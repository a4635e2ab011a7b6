"""Sparse multivariate polynomials over Q with exact arithmetic.

Storage is integer numerators over one positive common denominator:
``_nums`` maps packed exponent -> nonzero ``int`` and ``_den`` is an
``int > 0``.  The form is canonical: the gcd of ``_den`` and every
numerator is 1, so equal polynomials have equal fields and hashing
reads them directly.  ``+``, ``-``, ``*`` and ``partial`` compute on
ints and divide out the gcd of the result once.  Instances are
immutable by convention.

An exponent e of ``nvars`` variables is packed into one int with a
field of ``_W`` bits per variable under a field for the total degree:

    key = deg << (W*nv) | e_0 << (W*(nv-1)) | ... | e_{nv-1}

Every total degree stays below ``_LIMIT`` = 2^31, so every field
leaves its top bit, the guard bit, clear.  Then, for valid keys a and b:

- the product x^a * x^b is the key ``a + b``, and when a divides b the
  quotient is ``b - a``: no field carries into its neighbour;
- a divides b iff ``((b | guard) - a) & guard == guard``, where
  ``guard`` has the guard bit of every variable field set;
- for deglex in declaration order the keys compare as the monomials
  do, so the key is its own sort key and a lead is ``max(keys)``;
  every other order sorts through a memo of its key of the unpacked
  exponent (``_sort_key``).

The limit is checked where degrees are made: in ``Poly(...)``, in the
product kernels ``__mul__`` and ``_minus_product``, and in the division
steps of orders that are not graded.  Crossing it raises ``ValueError``
instead of carrying.  ``_layout(nvars)`` owns the format and is built
on first use for each ``nvars``.

The API still hands out tuples and ``Fraction``s: ``terms`` is a
read-only view exponent tuple -> ``Fraction`` built on first read,
``lm()`` and ``leading()`` unpack the one exponent they return, and
``lc()``/``leading()`` build only the one coefficient they return.
Code in this package reads the packed integer form (``_lm`` is the
packed lead); it reads ``terms`` only to print, to validate input and
to copy user data.

``Poly(nvars, terms)`` validates and normalizes its input: exponents
are checked (``nvars`` nonnegative ints of total degree below the
limit), coefficients converted to ``Fraction``, repeated exponents
summed and zeros dropped.  Arithmetic results are built instead with
the trusted constructor ``Poly._make(nvars, nums, den)``, which stores
its arguments as given.  Its caller guarantees that every key is a
packed int of a valid exponent of ``nvars`` variables, every numerator
is a nonzero ``int``, the form is canonical, and no one else holds a
reference to ``nums``.  Breaking the contract breaks equality and
hashing silently, so ``_make`` is for code in this package that builds
the dict itself; input from users goes through ``Poly(...)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from struct import Struct
from types import MappingProxyType

from .orders import ExpVec, MonomialOrder, _KeyMemo

_W = 32  # bits per field
_LIMIT = 1 << (_W - 1)  # every total degree stays below this
_FIELD = (1 << _W) - 1


class _Layout:
    """The packed format for one number of variables.

    ``shifts[i]`` is the bit offset of variable i's field and ``dshift``
    that of the degree field; ``units[i]`` is the key of x_i, ``guard``
    holds the guard bits of the variable fields, ``fields`` all their
    bits, and ``top`` is the least key whose degree reaches the limit.
    """

    __slots__ = ("shifts", "dshift", "units", "guard", "fields", "top", "_words")

    def __init__(self, nvars: int):
        self.shifts = tuple(_W * (nvars - 1 - i) for i in range(nvars))
        self.dshift = d = _W * nvars
        self.units = tuple((1 << s) + (1 << d) for s in self.shifts)
        self.guard = sum(_LIMIT << s for s in self.shifts)
        self.fields = (1 << d) - 1
        self.top = _LIMIT << d
        self._words = Struct(f">{nvars}I")  # the variable fields, 32 bits each

    def pack(self, e: ExpVec) -> int:
        """Key of a valid exponent tuple."""
        k = sum(e) << self.dshift
        for x, s in zip(e, self.shifts):
            k |= x << s
        return k

    def unpack(self, k: int) -> ExpVec:
        """Exponent tuple of a key: its variable fields."""
        return self._words.unpack((k & self.fields).to_bytes(self.dshift >> 3, "big"))

    def lcm(self, a: int, b: int) -> int:
        """Key of the lcm of two keys; its degree may reach the limit,
        which only the degree field, the top one, can hold."""
        g = self.guard
        # the fields where b exceeds a, and b - a on them (no borrows)
        m = self.fields ^ ((((a | g) - b) & g) >> (_W - 1)) * _FIELD
        d = (b & m) - (a & m)
        # 2^W = 1 mod _FIELD, so d % _FIELD sums d's fields: the degree
        # d adds, exact as it is at most deg(b) < _FIELD
        return a + d + ((d % _FIELD) << self.dshift)


_layout = cache(_Layout)


def _sort_key(order: MonomialOrder, nvars: int):
    """Sort key of ``order`` on the keys of ``nvars`` variables: None
    when the keys are their own (deglex in declaration order), else a
    memo of ``order``'s key of the unpacked exponent.  The memo is kept
    on the order, one per ``nvars``."""
    keys = order._packed_keys
    try:
        return keys[nvars]
    except KeyError:
        pass
    if order.kind == "deglex" and order.prec is None:
        key = None
    else:
        unpack, compute = _layout(nvars).unpack, order._compute_key
        key = _KeyMemo(lambda k: compute(unpack(k))).__getitem__
    keys[nvars] = key
    return key


def _degree_error(nvars: int) -> ValueError:
    return ValueError(f"a total degree in {nvars} variables reaches the limit {_LIMIT}")


@cache
def display_order(nvars: int) -> MonomialOrder:
    """Order used only for printing: graded, with later variables ranked first.

    This makes differences of neighbouring variables read in the usual
    ascending way, e.g. ``x2 - x1`` and ``x1*x2 - x1^2``.
    """
    return MonomialOrder("deglex", tuple(range(nvars - 1, -1, -1)))


def _content(polys) -> tuple[int, int]:
    """The gcd of every numerator of ``polys`` and the lcm of their
    denominators; (0, 1) when there are no coefficients.

    The two are coprime: a prime of the lcm divides some denominator,
    and that polynomial, being canonical, has a numerator it does not
    divide."""
    g, den = 0, 1
    for p in polys:
        g = gcd(g, *p._nums.values())
        if p._den != 1:
            den = lcm(den, p._den)
    return g, den


def content(polys) -> Fraction:
    """Positive rational g with every coefficient of ``polys`` over g an
    integer and those integers coprime; 1 when there are no coefficients.

    Each polynomial is canonical, so its content is the gcd of its
    numerators over its denominator, and the content of all of them is
    the gcd of every numerator over the lcm of the denominators."""
    g, den = _content(polys)
    return Fraction(g, den) if g else Fraction(1)


def primitive_scale(polys, sign):
    """+-1/content(polys): the scale that makes ``polys`` integer-primitive
    and ``sign``, the one coefficient of theirs a caller names, positive.
    ``polys`` holds a nonzero coefficient.  The scale is an ``int`` when
    the numerators' gcd is 1 and a ``Fraction`` otherwise; ``_scaled``
    takes either."""
    g, den = _content(polys)
    if sign < 0:
        den = -den
    return den if g == 1 else Fraction(den, g)


def _common_den(data: dict) -> tuple[dict, int]:
    """Integer numerators and denominator of a dict of nonzero
    ``Fraction``s.  The denominator is the lcm of theirs, so the pair is
    already canonical: a prime of the lcm divides some denominator to
    its full power, and that term's numerator keeps no factor of it."""
    den = lcm(*(c.denominator for c in data.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in data.items()}, den


def _lowest(nvars: int, nums: dict, den: int) -> "Poly":
    """``Poly._make`` after dividing ``den`` and the nonzero numerators
    ``nums`` by their gcd."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    return Poly._make(nvars, nums, den)


class Poly:
    """Polynomial in ``nvars`` variables over Q."""

    __slots__ = ("nvars", "_nums", "_den", "_terms")

    def __init__(self, nvars: int, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        pack = _layout(nvars).pack
        data: dict[int, Fraction] = {}
        for e, c in items:
            e = tuple(e)
            if len(e) != nvars or not all(isinstance(k, int) and k >= 0 for k in e):
                raise ValueError(f"bad exponent {e} for {nvars} variables")
            if sum(e) >= _LIMIT:
                raise _degree_error(nvars)
            e = pack(e)
            c = Fraction(c)
            if not c:
                continue
            if e in data:
                s = data[e] + c
                if s:
                    data[e] = s
                else:
                    del data[e]
            else:
                data[e] = c
        self.nvars = nvars
        self._nums, self._den = _common_den(data)
        self._terms = None

    @classmethod
    def _make(cls, nvars: int, nums: dict, den: int = 1) -> "Poly":
        """Trusted constructor: no validation, ``nums`` and ``den`` are
        kept as is (see the module docstring for the caller's contract)."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._nums = nums
        p._den = den
        p._terms = None
        return p

    def __reduce__(self):
        # the view in _terms is rebuilt on demand, and it does not pickle
        return Poly._make, (self.nvars, self._nums, self._den)

    @property
    def terms(self):
        """Read-only view exponent tuple -> nonzero ``Fraction``, built
        on first read."""
        t = self._terms
        if t is None:
            den, unpack = self._den, _layout(self.nvars).unpack
            t = self._terms = MappingProxyType(
                {unpack(e): Fraction(c, den) for e, c in self._nums.items()})
        return t

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        c = Fraction(c)
        return cls._make(nvars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls._make(nvars, {0: 1})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {e: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exp: ExpVec, coeff=1) -> "Poly":
        return cls(nvars, {tuple(exp): Fraction(coeff)})

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._nums.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        # the degree field is the top one
        return max(self._nums) >> _layout(self.nvars).dshift

    def is_constant(self) -> bool:
        return not any(self._nums)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.nvars, other)
        return None

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the lcm of the two denominators."""
        d1, d2 = self._den, other._den
        if d1 == d2:
            den, m2 = d1, sign
            data = dict(self._nums)
        else:
            den = lcm(d1, d2)
            m1, m2 = den // d1, sign * (den // d2)
            data = {e: c * m1 for e, c in self._nums.items()}
        for e, c in other._nums.items():
            c *= m2
            s = data.get(e)
            if s is None:
                data[e] = c
            else:
                s += c
                if s:
                    data[e] = s
                else:
                    del data[e]
        return _lowest(self.nvars, data, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.nvars, {e: -c for e, c in self._nums.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        top = _layout(self.nvars).top
        data: dict[int, int] = {}
        b = other._nums.items()
        for e1, c1 in self._nums.items():
            for e2, c2 in b:
                e = e1 + e2
                if e >= top:
                    raise _degree_error(self.nvars)
                s = data.get(e)
                if s is None:
                    data[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        data[e] = s
                    else:
                        del data[e]
        return _lowest(self.nvars, data, self._den * other._den)

    __rmul__ = __mul__

    def _minus_product(self, u: "Poly", c: "Poly") -> "Poly":
        """``self - u*c`` in one integer pass, with no intermediate
        product; ``self`` may be ``None``, which stands for zero, so the
        method is also called as ``Poly._minus_product(s, u, c)``."""
        top = _layout(u.nvars).top
        den = dp = u._den * c._den
        if self is None:
            data, m = {}, -1
        elif self._den == dp:
            data, m = dict(self._nums), -1
        else:
            den = lcm(self._den, dp)
            k = den // self._den
            data = {e: x * k for e, x in self._nums.items()}
            m = -(den // dp)
        b = c._nums.items()
        for e1, c1 in u._nums.items():
            c1 *= m
            for e2, c2 in b:
                e = e1 + e2
                if e >= top:
                    raise _degree_error(u.nvars)
                s = data.get(e)
                if s is None:
                    data[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        data[e] = s
                    else:
                        del data[e]
        return _lowest(u.nvars, data, den)

    def _scaled(self, q) -> "Poly":
        """``self * q`` for a nonzero rational ``q`` (an ``int`` or a
        ``Fraction``), with no constant ``Poly`` and no exponent sums.

        Both factors are in lowest terms, so the gcd of the product's
        numerators and denominator is gcd(q's numerator, ``_den``) times
        gcd(q's denominator, the numerators).  Both are divided out
        before multiplying, and the result is canonical as built."""
        n, d = q.numerator, q.denominator
        if not self._nums or n == d:  # zero, or q == 1
            return self
        g = gcd(n, self._den)
        h = gcd(d, *self._nums.values()) if d != 1 else 1
        n //= g
        den = self._den // g * (d // h)
        if h == 1:
            nums = {e: c * n for e, c in self._nums.items()}
        else:
            nums = {e: c // h * n for e, c in self._nums.items()}
        return Poly._make(self.nvars, nums, den)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def partial(self, i: int) -> "Poly":
        """Formal derivative with respect to variable ``i``."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        lay = _layout(self.nvars)
        s, unit = lay.shifts[i], lay.units[i]
        # e -> e - unit_i is injective, so no two terms land together
        nums = {}
        for e, c in self._nums.items():
            k = (e >> s) & _FIELD
            if k:
                nums[e - unit] = c * k
        return _lowest(self.nvars, nums, self._den)

    def partial_multi(self, gamma: ExpVec) -> "Poly":
        """Iterated derivative d^gamma; stops early once zero."""
        out = self
        for i, k in enumerate(gamma):
            for _ in range(k):
                if out.is_zero():
                    return out
                out = out.partial(i)
        return out

    def eval(self, point) -> Fraction:
        """Evaluate at a point with exact rational coordinates."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        unpack = _layout(self.nvars).unpack
        for e, c in self._nums.items():
            total += c * prod((Fraction(p) ** k for p, k in zip(point, unpack(e))),
                              start=Fraction(1))
        return total / self._den

    # -- order-dependent views ----------------------------------------

    def _lm(self, order: MonomialOrder) -> int:
        """Packed leading exponent of a nonzero polynomial."""
        key = _sort_key(order, self.nvars)
        # max() parses a key argument, even None, at a cost per call
        return max(self._nums) if key is None else max(self._nums, key=key)

    def lm(self, order: MonomialOrder) -> ExpVec:
        if not self._nums:
            raise ValueError("zero polynomial has no leading term")
        return _layout(self.nvars).unpack(self._lm(order))

    def leading(self, order: MonomialOrder) -> tuple[ExpVec, Fraction]:
        if not self._nums:
            raise ValueError("zero polynomial has no leading term")
        e = self._lm(order)
        return _layout(self.nvars).unpack(e), Fraction(self._nums[e], self._den)

    def lc(self, order: MonomialOrder) -> Fraction:
        return self.leading(order)[1]

    def monic(self, order: MonomialOrder) -> "Poly":
        return self._scaled(1 / self.lc(order))

    def content(self) -> Fraction:
        """Positive rational g with self/g integer-primitive; 1 for zero."""
        return content((self,))

    def primitive(self, order: MonomialOrder) -> "Poly":
        """Integer coefficients, content 1, positive leading coefficient."""
        if not self._nums:
            return self
        return self._scaled(primitive_scale((self,), self._nums[self._lm(order)]))

    # -- printing ------------------------------------------------------

    def to_str(self, names=None) -> str:
        terms = self.terms
        if not terms:
            return "0"
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(self.nvars))
        parts = []
        for e in sorted(terms, key=display_order(self.nvars).key, reverse=True):
            c = terms[e]
            mono = "*".join(
                n + (f"^{k}" if k > 1 else "") for n, k in zip(names, e) if k
            )
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, '{self.to_str()}')"
