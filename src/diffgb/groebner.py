"""Commutative Groebner machinery over Q[x1..xk].

Division with explicit cofactors, reduced bases via Buchberger's
algorithm with expression tracking (every basis element keeps its
representation over the input generators), membership certificates
against the original generators, and syzygy generators obtained by
Schreyer lifting transported back to the input list.
"""

from __future__ import annotations

from fractions import Fraction

from .orders import MonomialOrder, add_exp, divides, lcm_exp, minimal_indices, sub_exp
from .poly import Poly, content


def divide(f: Poly, gens, order: MonomialOrder):
    """Multivariate division of f by an ordered list of nonzero divisors.

    Returns (cofactors, remainder) with f = sum q_i*gens_i + r, no
    monomial of r divisible by any leading monomial of gens, and every
    q_i*gens_i bounded above by the leading monomial of f.
    """
    gens = list(gens)
    if any(g.is_zero() for g in gens):
        raise ValueError("division by a zero polynomial")
    nv = f.nvars
    heads = [g.leading(order) for g in gens]
    key = order.key

    # mutable working copy; the processed leading monomial strictly
    # decreases, so each quotient slot is written at most once
    work = dict(f.terms)
    quot = [{} for _ in gens]
    rem = {}
    while work:
        pe = max(work, key=key)
        pc = work[pe]
        for i, (ge, gc) in enumerate(heads):
            if divides(ge, pe):
                q = pc / gc
                qe = sub_exp(pe, ge)
                quot[i][qe] = q
                for me, mc in gens[i].terms.items():
                    te = add_exp(qe, me)
                    nc = work.get(te, 0) - q * mc
                    if nc:
                        work[te] = nc
                    else:
                        work.pop(te, None)
                break
        else:
            rem[pe] = pc
            del work[pe]
    return [Poly(nv, d) for d in quot], Poly(nv, rem)


def _tracked_groebner(gens, order: MonomialOrder):
    """Reduced Groebner base plus expression matrix over ``gens``.

    Returns (G, A) with G the reduced base (monic, fully inter-reduced,
    ascending leading monomials) and A[i] the cofactor row such that
    G[i] = sum_k A[i][k] * gens[k].  Zero generators contribute zero
    columns.  Everything is deterministic: pairs are processed by lcm
    in the active order with index tie-breaks, and the coprime-lead
    pair criterion is applied.
    """
    gens = list(gens)
    cols = len(gens)
    if cols == 0:
        return [], []
    nv = gens[0].nvars
    one = Fraction(1)

    basis: list[Poly] = []
    exprs: list[list[Poly]] = []

    def push(p: Poly, row: list[Poly]) -> None:
        c = p.lc(order)
        inv = one / c
        basis.append(p * inv)
        exprs.append([q * inv for q in row])

    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        row = [Poly.zero(nv) for _ in range(cols)]
        row[k] = Poly.one(nv)
        push(g, row)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def pair_key(ij):
        i, j = ij
        l = lcm_exp(basis[i].lm(order), basis[j].lm(order))
        return (order.key(l), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        ei, ej = basis[i].lm(order), basis[j].lm(order)
        l = lcm_exp(ei, ej)
        if l == add_exp(ei, ej):
            continue  # coprime leads: S-polynomial reduces to zero
        mi = Poly.monomial(nv, sub_exp(l, ei))
        mj = Poly.monomial(nv, sub_exp(l, ej))
        s = mi * basis[i] - mj * basis[j]
        row = [mi * a - mj * b for a, b in zip(exprs[i], exprs[j])]
        q, r = divide(s, basis, order)
        for t, qt in enumerate(q):
            if qt:
                row = [a - qt * b for a, b in zip(row, exprs[t])]
        if r:
            new = len(basis)
            push(r, row)
            pairs.update((t, new) for t in range(new))

    if not basis:
        return [], []

    # minimal base: drop anything whose lead is divisible by another lead
    keep = minimal_indices([p.lm(order) for p in basis], order.key)

    # tail reduction against the other survivors
    final: list[Poly] = []
    final_exprs: list[list[Poly]] = []
    for t in keep:
        others = [basis[u] for u in keep if u != t]
        other_rows = [exprs[u] for u in keep if u != t]
        if others:
            q, r = divide(basis[t], others, order)
            row = exprs[t]
            for qt, orow in zip(q, other_rows):
                if qt:
                    row = [a - qt * b for a, b in zip(row, orow)]
        else:
            r, row = basis[t], exprs[t]
        final.append(r)
        final_exprs.append(row)
    # the kept leads ascend and tail division keeps each one: no re-sort
    return final, final_exprs


def buchberger(gens, order: MonomialOrder) -> list[Poly]:
    """Reduced Groebner base of the ideal generated by ``gens``."""
    return _tracked_groebner(gens, order)[0]


def _normalize_vector(vec, order: MonomialOrder):
    """Integer-primitive scaling; sign fixed so the last nonzero entry
    has negative leading coefficient.  Returns None for zero vectors."""
    if not any(vec):
        return None
    scale = 1 / content(c for p in vec for c in p.terms.values())
    vec = [p * scale for p in vec]
    for p in reversed(vec):
        if p:
            if p.lc(order) > 0:
                vec = [-q for q in vec]
            break
    return tuple(vec)


def syzygies(gens, order: MonomialOrder) -> list[tuple[Poly, ...]]:
    """Generators of the syzygy module of ``gens`` (all entries nonzero).

    Schreyer's construction on the reduced base, transported back to
    the input coordinates, plus the rows of I - B*A that express the
    divisions of the inputs through the base.
    """
    gens = list(gens)
    if any(g.is_zero() for g in gens):
        raise ValueError("syzygies require nonzero generators")
    r = len(gens)
    if r == 0:
        return []
    nv = gens[0].nvars
    G, A = _tracked_groebner(gens, order)
    t = len(G)

    B = []
    for g in gens:
        q, rem = divide(g, G, order)
        if rem:
            raise AssertionError("a generator does not divide to zero by its own base")
        B.append(q)

    raw = []
    for i in range(t):
        for j in range(i + 1, t):
            ei, ej = G[i].lm(order), G[j].lm(order)
            l = lcm_exp(ei, ej)
            mi = Poly.monomial(nv, sub_exp(l, ei))
            mj = Poly.monomial(nv, sub_exp(l, ej))
            s = mi * G[i] - mj * G[j]
            if s:
                q, rem = divide(s, G, order)
                if rem:
                    raise AssertionError("an S-polynomial of the base leaves a remainder")
            else:
                q = [Poly.zero(nv)] * t
            vg = [-qq for qq in q]
            vg[i] = vg[i] + mi
            vg[j] = vg[j] - mj
            raw.append([sum((vg[u] * A[u][k] for u in range(t)), Poly.zero(nv)) for k in range(r)])
    for k in range(r):
        row = [
            sum((-B[k][u] * A[u][c] for u in range(t)), Poly.zero(nv))
            for c in range(r)
        ]
        row[k] = row[k] + Poly.one(nv)
        raw.append(row)

    out = []
    seen = set()
    for v in raw:
        w = _normalize_vector(v, order)
        if w is None or w in seen:
            continue
        seen.add(w)
        out.append(w)
    return out


class PolyIdeal:
    """Ideal of Q[x..] held by generators, with a lazily cached reduced base.

    The empty generator list (or all zero generators) is the zero ideal.
    The cache is written once; concurrent readers only ever see either
    nothing or the finished pair.
    """

    def __init__(self, generators, order: MonomialOrder):
        self.generators = tuple(generators)
        self.order = order
        nv = {g.nvars for g in self.generators}
        if len(nv) > 1:
            raise ValueError("generators live in different rings")
        self._basis = None

    def _ensure(self):
        if self._basis is None:
            g, a = _tracked_groebner(self.generators, self.order)
            self._basis = (tuple(g), tuple(tuple(row) for row in a))
        return self._basis

    @property
    def groebner(self) -> tuple[Poly, ...]:
        return self._ensure()[0]

    @property
    def expression_matrix(self):
        """Rows expressing the reduced base over the original generators."""
        return self._ensure()[1]

    def member_with_cofactors(self, f: Poly):
        """Cofactors of f over the original generators, or None if f is
        not in the ideal.  f = sum cof_k * generators[k] exactly."""
        r = len(self.generators)
        nv = f.nvars
        if f.is_zero():
            return [Poly.zero(nv) for _ in range(r)]
        g, a = self._ensure()
        if not g:
            return None
        q, rem = divide(f, g, self.order)
        if rem:
            return None
        return [
            sum((q[t] * a[t][k] for t in range(len(g))), Poly.zero(nv))
            for k in range(r)
        ]

    def contains(self, f: Poly) -> bool:
        if f.is_zero():
            return True
        g = self.groebner
        if not g:
            return False
        return divide(f, g, self.order)[1].is_zero()

    def is_zero(self) -> bool:
        return not self.groebner

    def is_unit(self) -> bool:
        g = self.groebner
        return len(g) == 1 and g[0].is_constant()

    def equals(self, other: "PolyIdeal") -> bool:
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"PolyIdeal<{inside}>"
