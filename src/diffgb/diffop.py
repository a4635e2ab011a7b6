"""The operator ring D = H[d1..dn] with H = Q[x1..x_{n+m}].

The first n ring variables carry a derivation (d_i acts on x_i), the
remaining m are parameters.  Operators are stored in normal form as
maps d-exponent -> H-coefficient; products follow the Leibniz rule

    d^b * p = sum_{g <= b} binom(b, g) (d^g p) d^{b-g}.

The d-part invariants (support, leading exponent, leading coefficient)
are taken with respect to the ring's d-order and drive every basis
computation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .orders import ExpVec, MonomialOrder
from .poly import Poly, primitive_scale


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
        e = tuple(1 if j == i else 0 for j in range(self.n))
        return DiffOp(self, {e: Poly.one(self.nvars)})

    def embed(self, p) -> "DiffOp":
        """H (or Q) embedded as order-zero operators."""
        return DiffOp(self, {(0,) * self.n: p})

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


def _leibniz_shifts(beta: ExpVec, p: Poly):
    """All (gamma, binom(beta,gamma) * d^gamma p) with gamma <= beta and
    a nonzero value.  Differentiation is pruned variable by variable."""
    items = [((0,) * len(beta), p)]
    for i, bi in enumerate(beta):
        if not bi:
            continue
        grown = []
        for g, q in items:
            grown.append((g, q))
            dq = q
            for k in range(1, bi + 1):
                dq = dq.partial(i)
                if dq.is_zero():
                    break
                gg = g[:i] + (k,) + g[i + 1:]
                grown.append((gg, dq * comb(bi, k)))
        items = grown
    return items


class DiffOp:
    """Element of D in normal form: coefficients to the left of the d's."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: RingSpec, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        data: dict[ExpVec, Poly] = {}
        for e, p in items:
            e = tuple(e)
            if len(e) != ring.n or not all(isinstance(k, int) and k >= 0 for k in e):
                raise ValueError(f"bad d-exponent {e} for n={ring.n}")
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
        self.terms = data
        self._lead = None

    @classmethod
    def _make(cls, ring: RingSpec, data: dict) -> "DiffOp":
        """Trusted constructor: no validation, ``data`` is kept as is.
        The caller guarantees valid d-exponents, nonzero coefficients
        from ``ring``'s polynomial ring, and an unshared dict."""
        op = object.__new__(cls)
        op.ring = ring
        op.terms = data
        op._lead = None
        return op

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> "DiffOp":
        return cls(ring)

    @classmethod
    def term(cls, ring: RingSpec, exp: ExpVec, coeff) -> "DiffOp":
        return cls(ring, {tuple(exp): coeff})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = self.ring.embed(other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def support(self) -> frozenset:
        """Set of d-exponents carrying a nonzero coefficient."""
        if not self.terms:
            raise ValueError("the zero operator has empty support")
        return frozenset(self.terms)

    def order_total(self) -> int:
        """Largest total d-degree appearing; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- d-invariants ----------------------------------------------------

    def _leading(self):
        if self._lead is None:
            if not self.terms:
                raise ValueError("the zero operator has no leading data")
            e = self.ring.order_delta.max(self.terms)
            self._lead = (e, self.terms[e])
        return self._lead

    def exp_delta(self) -> ExpVec:
        """Leading d-exponent under the ring's d-order."""
        return self._leading()[0]

    def c_delta(self) -> Poly:
        """Coefficient of the leading d-exponent (nonzero by construction)."""
        return self._leading()[1]

    def in_delta(self) -> InitialTerm:
        e, c = self._leading()
        return InitialTerm(c, e)

    # -- arithmetic ------------------------------------------------------

    def _plus(self, other: "DiffOp", sign: int) -> "DiffOp":
        """self + sign*other, coefficient by coefficient through Poly._plus."""
        data = dict(self.terms)
        for e, p in other.terms.items():
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
        return DiffOp._make(self.ring, {e: -p for e, p in self.terms.items()})

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
        acc: dict[ExpVec, Poly] = {}
        for e1, p1 in self.terms.items():
            for e2, p2 in other.terms.items():
                for gamma, q in _leibniz_shifts(e1, p2):
                    e = tuple(a - g + b for a, g, b in zip(e1, gamma, e2))
                    v = p1 * q
                    cur = acc.get(e)
                    acc[e] = v if cur is None else cur + v
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
        if not self.terms:
            return self
        lead = self.c_delta().lc(self.ring.x_order())
        c = primitive_scale(self.terms.values(), lead)
        return DiffOp._make(self.ring, {e: p._scaled(c) for e, p in self.terms.items()})

    # -- printing ----------------------------------------------------------

    def to_str(self) -> str:
        """Canonical display form, reparseable by the problem grammar."""
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for e in sorted(self.terms, key=ring.order_delta.key, reverse=True):
            p = self.terms[e]
            dpart = "*".join(
                nm + (f"^{k}" if k > 1 else "")
                for nm, k in zip(ring.dnames, e)
                if k
            )
            body = f"({p.to_str(names=ring.names)})"
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
