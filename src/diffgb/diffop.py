"""The operator ring D = H[d1..dn] with H = Q[x1..x_{n+m}].

The first n ring variables carry a derivation (d_i acts on x_i), the
remaining m are parameters.  Operators are stored in normal form as
maps d-exponent -> H-coefficient; products follow the Leibniz rule

    d^b * p = sum_{g <= b} binom(b, g) (d^g p) d^{b-g}.

The d-part invariants (support, leading exponent, leading coefficient)
are taken with respect to the ring's d-order and drive every basis
computation downstream.

A d-exponent is stored packed in ``poly``'s layout for n variables
(``poly._layout(n)``): ``_terms`` maps packed d-key -> nonzero ``Poly``.
The Leibniz product adds and subtracts keys, ``d^b * d^c`` having the
key ``b + c``, and every total d-degree stays below ``poly._LIMIT`` =
2^31, as x-degrees do; ``DiffOp(...)`` and ``__mul__`` raise
``ValueError`` at the limit.  The leading key ``_exp()`` is
``max(_terms)`` under deglex in declaration order and goes through the
d-order's memo of packed keys (``poly._sort_key``) under any other.
The API still hands out tuples: ``terms`` is a read-only view
d-exponent tuple -> ``Poly`` built on first read, and ``exp_delta``,
``in_delta`` and ``support`` unpack.  ``DiffOp._make`` is the trusted
constructor of code in this package that builds ``_terms`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType

from .orders import ExpVec, MonomialOrder
from .poly import _LIMIT, Poly, _degree_error, _layout, _sort_key, primitive_scale


@dataclass(frozen=True)
class RingSpec:
    """Shape of the operator ring: variable counts, names and d-order."""

    n: int
    m: int = 0
    names: tuple[str, ...] | None = None
    dnames: tuple[str, ...] | None = None
    order_delta: MonomialOrder = MonomialOrder("deglex")

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one derivation variable")
        if self.m < 0:
            raise ValueError("parameter count cannot be negative")
        names = self.names or tuple(f"x{i + 1}" for i in range(self.n + self.m))
        dnames = self.dnames or tuple(f"d{i + 1}" for i in range(self.n))
        names = tuple(names)
        dnames = tuple(dnames)
        if len(names) != self.n + self.m:
            raise ValueError(f"expected {self.n + self.m} variable names, got {len(names)}")
        if len(dnames) != self.n:
            raise ValueError(f"expected {self.n} derivation names, got {len(dnames)}")
        if len(set(names) | set(dnames)) != len(names) + len(dnames):
            raise ValueError("variable names must be pairwise distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dnames", dnames)
        # not a field: one instance per ring, so every ideal of H built
        # from this ring shares its key cache
        object.__setattr__(self, "_x_order", MonomialOrder("deglex"))

    @property
    def nvars(self) -> int:
        return self.n + self.m

    def x_order(self) -> MonomialOrder:
        """Order used for all commutative computations in H."""
        return self._x_order

    def x(self, i: int) -> Poly:
        return Poly.variable(self.nvars, i)

    def d(self, i: int) -> "DiffOp":
        if not 0 <= i < self.n:
            raise ValueError(f"derivation index {i} out of range")
        return DiffOp._make(self, {_layout(self.n).units[i]: Poly.one(self.nvars)})

    def embed(self, p) -> "DiffOp":
        """H (or Q) embedded as order-zero operators."""
        if isinstance(p, (int, Fraction)):
            p = Poly.constant(self.nvars, p)
        elif p.nvars != self.nvars:
            raise ValueError("coefficient lives in the wrong polynomial ring")
        return DiffOp._make(self, {0: p} if p else {})

    def diff(self, f: Poly, i: int) -> Poly:
        """d_i applied to a coefficient; parameters carry no derivation."""
        if not 0 <= i < self.n:
            raise ValueError(f"x{i + 1} is a parameter variable, it carries no derivation")
        return f.partial(i)


@dataclass
class InitialTerm:
    """Leading d-monomial of an operator: coefficient in H and exponent."""

    coeff: Poly
    exponent: ExpVec

    def __iter__(self):
        return iter((self.coeff, self.exponent))


def _leibniz_shifts(beta: ExpVec, units, p: Poly):
    """All (gamma, binom(beta,gamma) * d^gamma p) with gamma <= beta and
    a nonzero value, gamma packed with the d-layout's ``units``.
    Differentiation is pruned variable by variable."""
    items = [(0, p)]
    for i, bi in enumerate(beta):
        if not bi:
            continue
        u = units[i]
        grown = []
        for g, q in items:
            grown.append((g, q))
            dq = q
            for k in range(1, bi + 1):
                dq = dq.partial(i)
                if dq.is_zero():
                    break
                grown.append((g + k * u, dq._scaled(comb(bi, k))))
        items = grown
    return items


class DiffOp:
    """Element of D in normal form: coefficients to the left of the d's."""

    __slots__ = ("ring", "_terms", "_view", "_lead")

    def __init__(self, ring: RingSpec, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        pack = _layout(ring.n).pack
        data: dict[int, Poly] = {}
        for e, p in items:
            e = tuple(e)
            if len(e) != ring.n or not all(isinstance(k, int) and k >= 0 for k in e):
                raise ValueError(f"bad d-exponent {e} for n={ring.n}")
            if sum(e) >= _LIMIT:
                raise _degree_error(ring.n)
            e = pack(e)
            if isinstance(p, (int, Fraction)):
                p = Poly.constant(ring.nvars, p)
            if p.nvars != ring.nvars:
                raise ValueError("coefficient lives in the wrong polynomial ring")
            if p.is_zero():
                continue
            if e in data:
                s = data[e] + p
                if s:
                    data[e] = s
                else:
                    del data[e]
            else:
                data[e] = p
        self.ring = ring
        self._terms = data
        self._view = None
        self._lead = None

    @classmethod
    def _make(cls, ring: RingSpec, data: dict) -> "DiffOp":
        """Trusted constructor: no validation, ``data`` is kept as is.
        The caller guarantees packed keys of valid d-exponents, nonzero
        coefficients from ``ring``'s polynomial ring, and an unshared
        dict."""
        op = object.__new__(cls)
        op.ring = ring
        op._terms = data
        op._view = None
        op._lead = None
        return op

    def __reduce__(self):
        # the view in _view is rebuilt on demand, and it does not pickle
        return DiffOp._make, (self.ring, self._terms)

    @property
    def terms(self):
        """Read-only view d-exponent tuple -> nonzero ``Poly``, built on
        first read."""
        t = self._view
        if t is None:
            unpack = _layout(self.ring.n).unpack
            t = self._view = MappingProxyType(
                {unpack(e): p for e, p in self._terms.items()})
        return t

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> "DiffOp":
        return cls._make(ring, {})

    @classmethod
    def term(cls, ring: RingSpec, exp: ExpVec, coeff) -> "DiffOp":
        return cls(ring, {tuple(exp): coeff})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = self.ring.embed(other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def support(self) -> frozenset:
        """Set of d-exponents carrying a nonzero coefficient."""
        if not self._terms:
            raise ValueError("the zero operator has empty support")
        return frozenset(self.terms)

    def order_total(self) -> int:
        """Largest total d-degree appearing; -1 for zero."""
        if not self._terms:
            return -1
        # the degree field is the top one
        return max(self._terms) >> _layout(self.ring.n).dshift

    # -- d-invariants ----------------------------------------------------

    def _leading(self):
        """(packed leading d-exponent, its coefficient), memoized."""
        if self._lead is None:
            if not self._terms:
                raise ValueError("the zero operator has no leading data")
            key = _sort_key(self.ring.order_delta, self.ring.n)
            e = max(self._terms) if key is None else max(self._terms, key=key)
            self._lead = (e, self._terms[e])
        return self._lead

    def _exp(self) -> int:
        """Packed leading d-exponent."""
        return self._leading()[0]

    def exp_delta(self) -> ExpVec:
        """Leading d-exponent under the ring's d-order."""
        return _layout(self.ring.n).unpack(self._leading()[0])

    def c_delta(self) -> Poly:
        """Coefficient of the leading d-exponent (nonzero by construction)."""
        return self._leading()[1]

    def in_delta(self) -> InitialTerm:
        return InitialTerm(self.c_delta(), self.exp_delta())

    # -- arithmetic ------------------------------------------------------

    def _plus(self, other: "DiffOp", sign: int) -> "DiffOp":
        """self + sign*other, coefficient by coefficient through Poly._plus."""
        data = dict(self._terms)
        for e, p in other._terms.items():
            s = data.get(e)
            if s is None:
                data[e] = p if sign > 0 else -p
            else:
                s = s._plus(p, sign)
                if s:
                    data[e] = s
                else:
                    del data[e]
        return DiffOp._make(self.ring, data)

    def __add__(self, other):
        other = _as_op(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return DiffOp._make(self.ring, {e: -p for e, p in self._terms.items()})

    def __sub__(self, other):
        other = _as_op(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """Composition of operators (Leibniz product)."""
        other = _as_op(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        lay = _layout(self.ring.n)
        top, units = lay.top, lay.units
        acc: dict[int, Poly] = {}
        b = other._terms.items()
        for e1, p1 in self._terms.items():
            beta = lay.unpack(e1)
            for e2, p2 in b:
                e = e1 + e2
                if e >= top:
                    raise _degree_error(self.ring.n)
                for gamma, q in _leibniz_shifts(beta, units, p2):
                    v = p1 * q
                    cur = acc.get(e - gamma)
                    acc[e - gamma] = v if cur is None else cur + v
        return DiffOp._make(self.ring, {e: p for e, p in acc.items() if p})

    def __rmul__(self, other):
        left = _as_op(self.ring, other)
        if left is NotImplemented:
            return NotImplemented
        return left * self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.embed(1)
        for _ in range(k):
            out = out * self
        return out

    def primitive(self) -> "DiffOp":
        """Scalar-normalized copy: integer coefficients with overall
        content 1 and positive leading sign of the leading coefficient."""
        if not self._terms:
            return self
        lead = self.c_delta().lc(self.ring.x_order())
        c = primitive_scale(self._terms.values(), lead)
        return DiffOp._make(self.ring, {e: p._scaled(c) for e, p in self._terms.items()})

    # -- printing ----------------------------------------------------------

    def to_str(self) -> str:
        """Canonical display form, reparseable by the problem grammar."""
        if not self._terms:
            return "0"
        ring = self.ring
        unpack = _layout(ring.n).unpack
        parts = []
        for k in sorted(self._terms, key=_sort_key(ring.order_delta, ring.n), reverse=True):
            dpart = "*".join(
                nm + (f"^{j}" if j > 1 else "")
                for nm, j in zip(ring.dnames, unpack(k))
                if j
            )
            body = f"({self._terms[k].to_str(names=ring.names)})"
            parts.append(f"{body}*{dpart}" if dpart else body)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"DiffOp('{self.to_str()}')"


def _as_op(ring: RingSpec, value):
    """Coerce scalars and H-elements into D; reject foreign rings."""
    if isinstance(value, DiffOp):
        if value.ring != ring:
            raise ValueError("operator ring mismatch")
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return ring.embed(value)
    return NotImplemented
