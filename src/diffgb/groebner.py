"""Commutative Groebner machinery over Q[x1..xk].

Division with explicit cofactors, reduced bases via Buchberger's
algorithm with expression tracking (every basis element keeps its
representation over the input generators), membership certificates
against the original generators, and syzygy generators obtained by
Schreyer lifting transported back to the input list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .orders import MonomialOrder, critical_pairs, minimal_indices
from .poly import Poly, _degree_error, _layout, _lowest, _sort_key, primitive_scale


def _heads_of(gens, order: MonomialOrder) -> list[tuple[int, int]]:
    """``divide``'s ``_heads`` of nonzero divisors."""
    return [(e, g._nums[e]) for g in gens for e in (g._lm(order),)]


def divide(f: Poly, gens, order: MonomialOrder, _heads=None):
    """Multivariate division of f by an ordered list of nonzero divisors.

    Returns (cofactors, remainder) with f = sum q_i*gens_i + r, no
    monomial of r divisible by any leading monomial of gens, and every
    q_i*gens_i bounded above by the leading monomial of f.

    The division is fraction-free: it keeps integer numerators over one
    running denominator, and so do the quotients.  A quotient term is
    written as its integer numerator with the running denominator of
    the moment, and each quotient is put in lowest terms once, at the
    end.  When the first divisor is a constant c, its lead divides
    every monomial, so the result is (f/c, 0, ..., 0) and remainder 0,
    computed in one scaling (none when c is 1); a cone ideal's base is
    [1] whenever the cone is the unit ideal.

    ``_heads`` is the list of ``(g._lm(order), numerator of lc(g))``
    for the divisors, in order, with the leads as packed keys (see
    ``poly``), when the caller already holds it (a Groebner loop or a
    cached base); the divisors are then taken to be nonzero and over
    f's variables, which a call without it checks.

    Exponents are packed keys throughout: a head divides a term when
    the guard test passes, the quotient monomial is the difference and
    a product the sum.  Under a graded order a product term never
    outgrows the term it cancels; under lex it may, so each lex step
    checks the degree limit of the divisor's largest term.
    """
    gens = list(gens)
    heads = _heads
    if heads is None:
        if any(g.nvars != f.nvars for g in gens):
            raise ValueError("polynomial ring mismatch")
        if any(g.is_zero() for g in gens):
            raise ValueError("division by a zero polynomial")
        heads = _heads_of(gens, order)
    nv = f.nvars
    zero = Poly._make(nv, {})
    if heads and not heads[0][0]:
        d, c = gens[0]._den, heads[0][1]
        q = f if d == c else f._scaled(Fraction(d, c))
        return [q] + [zero] * (len(gens) - 1), zero
    key = _sort_key(order, nv)
    lay = _layout(nv)
    guard = lay.guard
    tops = [max(g._nums) for g in gens] if order.kind == "lex" else None

    # fraction-free working copy: integer numerators over the running
    # denominator den.  A step scales both by gc/h and subtracts pc/h
    # times the divisor's numerators; the processed leading monomial
    # strictly decreases, so each quotient slot is written at most once
    work = dict(f._nums)
    den = f._den
    quot = [{} for _ in gens]  # exponent -> (numerator, den at the time)
    rem = {}  # exponent -> (numerator, den when the term left work)
    while work:
        pe = max(work) if key is None else max(work, key=key)
        pc = work[pe]
        pg = pe | guard
        for i, (ge, gc) in enumerate(heads):
            if (pg - ge) & guard == guard:
                g = gens[i]
                qe = pe - ge
                if tops is not None and qe + tops[i] >= lay.top:
                    raise _degree_error(nv)
                # the quotient term is pc * g._den / (den * gc)
                quot[i][qe] = (pc * g._den, den)
                h = gcd(pc, gc)
                s, t = gc // h, pc // h
                if s < 0:
                    s, t = -s, -t
                if s != 1:
                    work = {e: c * s for e, c in work.items()}
                    den *= s
                for me, mc in g._nums.items():
                    te = qe + me
                    nc = work.get(te, 0) - t * mc
                    if nc:
                        work[te] = nc
                    else:
                        del work[te]
                break
        else:
            rem[pe] = (pc, den)
            del work[pe]
    rem = {e: c * (den // d) for e, (c, d) in rem.items()}
    out = []
    for (_, gc), q in zip(heads, quot):
        if not q:
            out.append(zero)
            continue
        # den only gains factors, so each term's den divides the last
        # one's, top; the sign of gc moves to the numerators
        top = next(reversed(q.values()))[1]
        if gc < 0:
            top = -top
        out.append(_lowest(nv, {e: n * (top // d) for e, (n, d) in q.items()}, top * gc))
    return out, _lowest(nv, rem, den)


def _row_sub(row: dict, q: Poly, other: dict) -> dict:
    """``row - q*other`` on sparse cofactor rows (column -> nonzero
    ``Poly``), as a new dict; ``q`` is nonzero, so every product is."""
    out = dict(row)
    for k, b in other.items():
        a = out.pop(k, None)
        a = -(q * b) if a is None else a - q * b
        if a:
            out[k] = a
    return out


def _combine(coeffs, rows, cols: int, nv: int) -> list[Poly]:
    """Dense row ``sum_u coeffs[u] * rows[u]`` of ``cols`` entries over
    dense rows, skipping zero coefficients and zero row entries."""
    out = [Poly.zero(nv)] * cols
    for c, row in zip(coeffs, rows):
        if c:
            for k, a in enumerate(row):
                if a:
                    out[k] = out[k] + c * a if out[k] else c * a
    return out


def _tracked_groebner(gens, order: MonomialOrder):
    """Reduced Groebner base plus expression matrix over ``gens``.

    Returns (G, A) with G the reduced base (monic, fully inter-reduced,
    ascending leading monomials) and A[i] the cofactor row such that
    G[i] = sum_k A[i][k] * gens[k].  Zero generators contribute zero
    columns.  Everything is deterministic: ``critical_pairs`` pops the
    pairs smallest (lcm in the active order, i, j) first, and the
    coprime-lead pair criterion is applied.  A is not unique, so it
    depends on that order.

    Inside the loop a cofactor row is sparse (column -> nonzero
    ``Poly``), so a row update multiplies only entries that are there;
    the dense rows of ``len(gens)`` entries are built once, at return.
    Zero entries add nothing to a sum, so A is the same as with dense
    rows.  A pair's row is built only when its S-polynomial leaves a
    remainder, the one case that pushes it.  Once a constant is in the
    base, whether an input or a remainder, no further pair is popped
    (the unit exit): every later S-polynomial divides to zero by the
    constant and pushes nothing, and minimalization keeps only the
    first constant with its row, so (G, A) is the same as when the
    queue is run to the end.
    """
    gens = list(gens)
    cols = len(gens)
    if cols == 0:
        return [], []
    nv = gens[0].nvars
    lay = _layout(nv)
    key = _sort_key(order, nv)

    basis: list[Poly] = []
    exprs: list[dict[int, Poly]] = []
    leads: list[int] = []  # packed
    heads: list[tuple] = []  # (lead, its numerator) for divide's _heads

    def push(p: Poly, row: dict[int, Poly]) -> None:
        lead = p._lm(order)
        inv = Fraction(p._den, p._nums[lead])
        g = p._scaled(inv)
        basis.append(g)
        exprs.append({k: q._scaled(inv) for k, q in row.items()})
        leads.append(lead)
        heads.append((lead, g._nums[lead]))

    for k, g in enumerate(gens):
        if g:
            push(g, {k: Poly.one(nv)})

    pairs = () if 0 in leads else critical_pairs(leads, lay.lcm, key)
    for i, j, l in pairs:
        ei, ej = leads[i], leads[j]
        if l == ei + ej:
            continue  # coprime leads: S-polynomial reduces to zero
        # both leads divide their lcm: the differences are valid keys
        mi = Poly._make(nv, {l - ei: 1})
        mj = Poly._make(nv, {l - ej: 1})
        q, r = divide(mi * basis[i] - mj * basis[j], basis, order, _heads=heads)
        if r:
            row = _row_sub({k: mi * a for k, a in exprs[i].items()}, mj, exprs[j])
            for t, qt in enumerate(q):
                if qt:
                    row = _row_sub(row, qt, exprs[t])
            push(r, row)
            if not leads[-1]:
                break

    # minimal base: drop anything whose lead is divisible by another lead
    guard = lay.guard
    keep = minimal_indices(leads, key, lambda a, b: ((b | guard) - a) & guard == guard)

    # tail reduction against the other survivors
    final: list[Poly] = []
    final_exprs: list[list[Poly]] = []
    zero = Poly.zero(nv)
    for t in keep:
        others = [u for u in keep if u != t]
        q, r = divide(basis[t], [basis[u] for u in others], order,
                      _heads=[heads[u] for u in others])
        row = exprs[t]
        for qt, u in zip(q, others):
            if qt:
                row = _row_sub(row, qt, exprs[u])
        final.append(r)
        final_exprs.append([row.get(k, zero) for k in range(cols)])
    # the kept leads ascend and tail division keeps each one: no re-sort
    return final, final_exprs


def buchberger(gens, order: MonomialOrder) -> list[Poly]:
    """Reduced Groebner base of the ideal generated by ``gens``."""
    return _tracked_groebner(gens, order)[0]


def _normalize_vector(vec, order: MonomialOrder):
    """Integer-primitive scaling; sign fixed so the last nonzero entry
    has negative leading coefficient.  Returns None for zero vectors."""
    last = next((p for p in reversed(vec) if p), None)
    if last is None:
        return None
    scale = primitive_scale(vec, -last._nums[last._lm(order)])
    return tuple(p._scaled(scale) for p in vec)


def syzygies(gens, order: MonomialOrder, _basis=None) -> list[tuple[Poly, ...]]:
    """Generators of the syzygy module of ``gens`` (all entries nonzero).

    Schreyer's construction on the reduced base, transported back to
    the input coordinates, plus the rows of I - B*A that express the
    divisions of the inputs through the base.  ``_basis`` is the
    ``(G, A)`` pair of ``_tracked_groebner(gens, order)`` when the
    caller already holds it (a cone ideal's cache); it must come from
    the same generators in the same order.
    """
    gens = list(gens)
    if any(g.is_zero() for g in gens):
        raise ValueError("syzygies require nonzero generators")
    r = len(gens)
    if r == 0:
        return []
    nv = gens[0].nvars
    G, A = _tracked_groebner(gens, order) if _basis is None else _basis
    t = len(G)
    heads = _heads_of(G, order)
    lcm = _layout(nv).lcm

    B = []
    for g in gens:
        q, rem = divide(g, G, order, _heads=heads)
        if rem:
            raise AssertionError("a generator does not divide to zero by its own base")
        B.append(q)

    raw = []
    for i in range(t):
        for j in range(i + 1, t):
            ei, ej = heads[i][0], heads[j][0]
            l = lcm(ei, ej)
            mi = Poly._make(nv, {l - ei: 1})
            mj = Poly._make(nv, {l - ej: 1})
            q, rem = divide(mi * G[i] - mj * G[j], G, order, _heads=heads)
            if rem:
                raise AssertionError("an S-polynomial of the base leaves a remainder")
            vg = [-qq for qq in q]
            vg[i] = vg[i] + mi
            vg[j] = vg[j] - mj
            raw.append(_combine(vg, A, r, nv))
    for k in range(r):
        row = _combine([-b for b in B[k]], A, r, nv)
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
    nothing or the finished pair.  So are the heads of the base, which
    ``divide`` keeps as a finished list.
    """

    def __init__(self, generators, order: MonomialOrder):
        self.generators = tuple(generators)
        self.order = order
        nv = {g.nvars for g in self.generators}
        if len(nv) > 1:
            raise ValueError("generators live in different rings")
        self._nvars = next(iter(nv), 0)
        self._basis = None
        self._heads = None

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

    def divide(self, f: Poly):
        """Quotients of f over the reduced base and the remainder:
        f = sum q_j * groebner[j] + r, and r is zero iff f is in the ideal.
        The heads of the base are found on the first call and kept."""
        if self.generators and f.nvars != self._nvars:
            raise ValueError("polynomial ring mismatch")
        G = self.groebner
        if self._heads is None:
            self._heads = _heads_of(G, self.order)
        return divide(f, G, self.order, _heads=self._heads)

    def lift(self, quotients) -> list[Poly]:
        """Cofactors over the original generators of sum q_j * groebner[j],
        through the expression matrix."""
        return _combine(quotients, self.expression_matrix, len(self.generators),
                        self._nvars)

    def member_with_cofactors(self, f: Poly):
        """Cofactors of f over the original generators, or None if f is
        not in the ideal.  f = sum cof_k * generators[k] exactly."""
        q, rem = self.divide(f)
        return None if rem else self.lift(q)

    def contains(self, f: Poly) -> bool:
        return not self.divide(f)[1]

    def is_zero(self) -> bool:
        # the ideal is zero iff every generator is: no base needed
        return not any(self.generators)

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
