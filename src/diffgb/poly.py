"""Sparse multivariate polynomials over Q with exact arithmetic.

Terms live in a dict mapping exponent tuple -> Fraction; zero
coefficients are never stored, so equal polynomials have equal dicts.
Instances are immutable by convention: no method touches ``terms``
after construction.

``Poly(nvars, terms)`` validates and normalizes its input: exponents
are checked, coefficients converted to ``Fraction``, repeated exponents
summed and zeros dropped.  Arithmetic results are built instead with
the trusted constructor ``Poly._make(nvars, data)``, which stores the
dict as given.  Its caller guarantees that every exponent is a tuple of
``nvars`` nonnegative ints, every coefficient is a nonzero ``Fraction``,
and no one else holds a reference to ``data``.  Breaking the contract
breaks equality and hashing silently, so ``_make`` is for code in this
package that builds the dict itself; input from users goes through
``Poly(...)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add

from .orders import ExpVec, MonomialOrder, total_degree

_DISPLAY_ORDERS: dict[int, MonomialOrder] = {}


def display_order(nvars: int) -> MonomialOrder:
    """Order used only for printing: graded, with later variables ranked first.

    This makes differences of neighbouring variables read in the usual
    ascending way, e.g. ``x2 - x1`` and ``x1*x2 - x1^2``.
    """
    if nvars not in _DISPLAY_ORDERS:
        _DISPLAY_ORDERS[nvars] = MonomialOrder("deglex", tuple(range(nvars - 1, -1, -1)))
    return _DISPLAY_ORDERS[nvars]


def content(coeffs) -> Fraction:
    """Positive rational g with every c/g an integer and the quotients
    coprime; 1 when there are no coefficients."""
    coeffs = list(coeffs)
    if not coeffs:
        return Fraction(1)
    return Fraction(gcd(*(abs(c.numerator) for c in coeffs)),
                    lcm(*(c.denominator for c in coeffs)))


class Poly:
    """Polynomial in ``nvars`` variables over Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        data: dict[ExpVec, Fraction] = {}
        for e, c in items:
            e = tuple(e)
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent {e} for {nvars} variables")
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
        self.terms = data

    @classmethod
    def _make(cls, nvars: int, data: dict) -> "Poly":
        """Trusted constructor: no validation, ``data`` is kept as is
        (see the module docstring for the caller's contract)."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = data
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        c = Fraction(c)
        return cls._make(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(total_degree(e) for e in self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomial ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e)
            if s is None:
                data[e] = c
            else:
                s += c
                if s:
                    data[e] = s
                else:
                    del data[e]
        return Poly._make(self.nvars, data)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e)
            if s is None:
                data[e] = -c
            else:
                s -= c
                if s:
                    data[e] = s
                else:
                    del data[e]
        return Poly._make(self.nvars, data)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data: dict[ExpVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = data.get(e)
                if s is None:
                    data[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        data[e] = s
                    else:
                        del data[e]
        return Poly._make(self.nvars, data)

    __rmul__ = __mul__

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
        # e -> e - unit_i is injective, so no two terms land together
        return Poly._make(self.nvars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.terms.items() if e[i]})

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
        for e, c in self.terms.items():
            total += c * prod((Fraction(p) ** k for p, k in zip(point, e)), start=Fraction(1))
        return total

    # -- order-dependent views ----------------------------------------

    def leading(self, order: MonomialOrder) -> tuple[ExpVec, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = order.max(self.terms)
        return e, self.terms[e]

    def lm(self, order: MonomialOrder) -> ExpVec:
        return self.leading(order)[0]

    def lc(self, order: MonomialOrder) -> Fraction:
        return self.leading(order)[1]

    def monic(self, order: MonomialOrder) -> "Poly":
        c = self.lc(order)
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def content(self) -> Fraction:
        """Positive rational g with self/g integer-primitive; 1 for zero."""
        return content(self.terms.values())

    def primitive(self, order: MonomialOrder) -> "Poly":
        """Integer coefficients, content 1, positive leading coefficient."""
        if not self.terms:
            return self
        p = self * (Fraction(1) / self.content())
        if p.lc(order) < 0:
            p = -p
        return p

    # -- printing ------------------------------------------------------

    def to_str(self, names=None, order: MonomialOrder | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(self.nvars))
        if order is None:
            order = display_order(self.nvars)
        parts = []
        for e in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[e]
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
