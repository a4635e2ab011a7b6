"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the code paths they are used to check:
the division oracles cancel one leading term at a time in ``Poly`` and
``DiffOp`` arithmetic and record each quotient monomial as they go,
naive Buchberger works with a FIFO queue and no pair criteria (in the
Weyl algebra too, through a textbook S-operator and the division
oracle, with every lead read from the tuple view ``terms``), the
membership oracle is dense linear algebra over the rationals, the
product oracle moves one derivation at a time instead of using the
closed Leibniz formula, the delta-reduction oracle subtracts one such
product per cofactor instead of reusing cached cone rows, and the
pair-order reference scans a dict of open pairs for its minimum instead
of keeping a heap, and the delta-base certificate checks the library's
cone data against the slow oracles and rebuilds the syzygies,
S-operators and reductions from them.
"""

import importlib.util
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from diffgb import (
    CompletionCapExceeded,
    DiffOp,
    GeneratorSet,
    MonomialOrder,
    Poly,
    PolyIdeal,
    ProblemFile,
    RingSpec,
    WeylExp,
    minimal_stair,
)
from diffgb.deltabasis import _first_failure
from diffgb.orders import deglex, degrevlex, divides, lex
from diffgb.poly import _layout
from diffgb.problems import parse_expression


# -- exponent tuples ---------------------------------------------------------
# The library adds, subtracts and takes lcms of packed keys; these are
# the tuple definitions the tests and the oracles check them against.

def _same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"exponent length mismatch: {len(a)} vs {len(b)}")


def add_exp(a, b):
    _same_length(a, b)
    return tuple(x + y for x, y in zip(a, b))


def sub_exp(a, b):
    """Componentwise difference; only defined when it stays in N^k."""
    _same_length(a, b)
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError(f"{a} - {b} leaves N^{len(a)}")
    return out


def lcm_exp(a, b):
    _same_length(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def total_degree(a):
    return sum(a)


# -- construction shortcuts --------------------------------------------------

def ring1(order="deglex"):
    return RingSpec(1, order_delta=MonomialOrder(order))


def ring2(order="deglex", m=0):
    return RingSpec(2, m, order_delta=MonomialOrder(order))


def packed_ring(k, m=0):
    """A ring of 1-3 derivations under a d-order whose packed keys sort
    through a memo: lex, degrevlex, or deglex with the variables reversed."""
    n = 1 + k % 3
    order = (MonomialOrder("lex"), MonomialOrder("degrevlex"),
             MonomialOrder("deglex", tuple(range(n - 1, -1, -1))))[k // 3 % 3]
    return RingSpec(n, m, order_delta=order)


def parse_op(ring, text, **named):
    """Operator from source text in the given ring."""
    pf = ProblemFile(ring, dict(named), None)
    return parse_expression(text, pf)


def example6_ops(ring=None, b="x1", d="1"):
    """The running pair P1 = x1 d1 + x1 d2 + b, P2 = (x2-x1) d2 - d."""
    if ring is None:
        ring = ring2()
    p1 = parse_op(ring, f"x1*d1 + x1*d2 + ({b})")
    p2 = parse_op(ring, f"(x2 - x1)*d2 - ({d})")
    return ring, p1, p2


def cone_example_ops(ring=None):
    """P1 = x1 d1^2 + x2 d1 and P2 = x2 d2^2 + x1 d2 under lex d1 > d2."""
    if ring is None:
        ring = ring2(order="lex")
    p1 = parse_op(ring, "x1*d1^2 + x2*d1")
    p2 = parse_op(ring, "x2*d2^2 + x1*d2")
    return ring, p1, p2


# -- random data -------------------------------------------------------------

def rand_poly(rng, nvars, max_deg=2, max_terms=3, zero_ok=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    p = Poly(nvars, {e: Fraction(c) for e, c in terms.items() if c})
    if p.is_zero() and not zero_ok:
        return Poly.constant(nvars, Fraction(rng.choice([-2, -1, 1, 2])))
    return p


def rand_op(rng, ring, max_order=2, max_terms=3, max_deg=2, zero_ok=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * ring.n
        for _ in range(rng.randint(0, max_order)):
            e[rng.randrange(ring.n)] += 1
        c = rand_poly(rng, ring.nvars, max_deg, 2, zero_ok=True)
        e = tuple(e)
        terms[e] = terms[e] + c if e in terms else c
    op = DiffOp(ring, {e: c for e, c in terms.items() if not c.is_zero()})
    if op.is_zero() and not zero_ok:
        return DiffOp.term(ring, (0,) * ring.n,
                           Poly.constant(ring.nvars, Fraction(1)))
    return op


def rand_qpoly(rng, nvars, max_deg=2, max_terms=3):
    """Nonzero polynomial with rational coefficients of both signs."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]),
                                   rng.randint(1, 6))
    return Poly(nvars, terms)


def integer_primitive(coeffs) -> bool:
    """All coefficients are integers and their gcd is 1."""
    coeffs = list(coeffs)
    return all(c.denominator == 1 for c in coeffs) and gcd(
        *(c.numerator for c in coeffs)) == 1


def rand_point(rng, nvars):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)]


def permuted_orders(nv):
    """deglex, lex and degrevlex with a precedence other than the
    declaration order (for nv > 1): packed keys sort through the
    order's memoized key under them, never by value."""
    rev = tuple(range(nv - 1, -1, -1))
    rot = (nv - 1,) + tuple(range(nv - 1))
    return [deglex(rev), lex(rot), degrevlex(rev)]


# -- canonical storage --------------------------------------------------------

def assert_canonical_poly(p):
    """p is stored exactly as the validating constructor stores it:
    packed int keys of nvars-long exponents that round-trip through
    ``unpack``, and nonzero int numerators over a positive int
    denominator, with no factor common to all of them, and a ``terms``
    view of the matching nonzero Fractions."""
    assert p == Poly(p.nvars, p.terms)
    assert type(p._den) is int and p._den > 0
    assert gcd(p._den, *p._nums.values()) == 1
    lay = _layout(p.nvars)
    for e, c in p._nums.items():
        assert type(e) is int
        u = lay.unpack(e)
        assert len(u) == p.nvars and lay.pack(u) == e
        assert type(c) is int and c != 0
    assert dict(p.terms) == {lay.unpack(e): Fraction(c, p._den) for e, c in p._nums.items()}
    assert all(type(c) is Fraction for c in p.terms.values())


def assert_canonical_op(op):
    """The DiffOp analogue: packed int keys of n-long d-exponents that
    round-trip through ``unpack``, nonzero canonical coefficients from
    the ring's polynomial ring, and a ``terms`` view of the same
    coefficients under the unpacked keys."""
    assert op == DiffOp(op.ring, op.terms)
    lay = _layout(op.ring.n)
    for e, c in op._terms.items():
        assert type(e) is int
        u = lay.unpack(e)
        assert len(u) == op.ring.n and lay.pack(u) == e
        assert isinstance(c, Poly) and c.nvars == op.ring.nvars and c
        assert_canonical_poly(c)
    assert dict(op.terms) == {lay.unpack(e): c for e, c in op._terms.items()}


# -- polynomial division and Buchberger, the slow way ------------------------

def naive_division(f, gens, order):
    """Quotients and remainder of f under repeated leading-term
    elimination: f = sum q_i*gens_i + r.  Each step takes the first
    divisor whose leading monomial divides the current one, as
    ``divide`` does, and records its monomial in that quotient."""
    qs = [Poly.zero(f.nvars) for _ in gens]
    rem = Poly.zero(f.nvars)
    cur = f
    while not cur.is_zero():
        e, c = cur.leading(order)
        for i, g in enumerate(gens):
            ge, gc = g.leading(order)
            if divides(ge, e):
                mono = Poly.monomial(f.nvars, sub_exp(e, ge), c / gc)
                qs[i] = qs[i] + mono
                cur = cur - mono * g
                break
        else:
            mono = Poly.monomial(f.nvars, e, c)
            rem = rem + mono
            cur = cur - mono
    return qs, rem


def naive_divide(f, gens, order):
    """Remainder of f under repeated leading-term elimination."""
    return naive_division(f, gens, order)[1]


def weyl_lead(op, worder):
    """Leading (WeylExp, coefficient) of a nonzero operator: the largest
    monomial of the tuple view ``terms`` under ``WeylOrder.key``."""
    return max(((WeylExp(x, d), c) for d, q in op.terms.items() for x, c in q.terms.items()),
               key=lambda t: worder.key(t[0]))


def naive_s_operator_weyl(f, g, worder):
    """mf*f - mg*g with mf = x^a d^b / lc(f) built out and multiplied
    one derivation at a time."""
    (wf, cf), (wg, cg) = weyl_lead(f, worder), weyl_lead(g, worder)
    lx, ld = lcm_exp(wf.x, wg.x), lcm_exp(wf.d, wg.d)

    def multiplier(w, c):
        return DiffOp.term(f.ring, sub_exp(ld, w.d),
                           Poly.monomial(f.ring.nvars, sub_exp(lx, w.x), 1 / c))

    return slow_mul(multiplier(wf, cf), f) - slow_mul(multiplier(wg, cg), g)


def naive_division_weyl(p, gens, worder):
    """``naive_division`` in the Weyl algebra: the leading monomial is
    ``weyl_lead``'s, and each step subtracts the product of its
    quotient monomial and the divisor formed by ``slow_mul``."""
    ring = p.ring
    qs = [DiffOp.zero(ring) for _ in gens]
    rem = DiffOp.zero(ring)
    cur = p
    while not cur.is_zero():
        w, c = weyl_lead(cur, worder)
        for i, g in enumerate(gens):
            h, gc = weyl_lead(g, worder)
            if divides(h.x, w.x) and divides(h.d, w.d):
                t = DiffOp.term(ring, sub_exp(w.d, h.d), Poly.monomial(
                    ring.nvars, sub_exp(w.x, h.x), c / gc))
                qs[i] = qs[i] + t
                cur = cur - slow_mul(t, g)
                break
        else:
            t = DiffOp.term(ring, w.d, Poly.monomial(ring.nvars, w.x, c))
            rem = rem + t
            cur = cur - t
    return qs, rem


def naive_reduced_groebner(gens, order):
    """FIFO Buchberger without pair criteria, then full inter-reduction.

    Returns the unique reduced basis as a sorted list, so results can be
    compared against the fast implementation by plain equality.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    queue = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while queue:
        i, j = queue.pop(0)
        fi, fj = basis[i], basis[j]
        ei, ci = fi.leading(order)
        ej, cj = fj.leading(order)
        l = tuple(max(a, b) for a, b in zip(ei, ej))
        s = (Poly.monomial(fi.nvars, sub_exp(l, ei), Fraction(1) / ci) * fi
             - Poly.monomial(fj.nvars, sub_exp(l, ej), Fraction(1) / cj) * fj)
        r = naive_divide(s, basis, order)
        if not r.is_zero():
            basis.append(r)
            queue.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    mins = []
    for g in sorted(basis, key=lambda p: order.key(p.lm(order))):
        if not any(divides(h.lm(order), g.lm(order)) for h in mins):
            mins.append(g)
    out = []
    for i, g in enumerate(mins):
        others = mins[:i] + mins[i + 1:]
        r = naive_divide(g, others, order) if others else g
        if not r.is_zero():
            out.append(r.monic(order))
    out.sort(key=lambda p: order.key(p.lm(order)))
    return out


def naive_buchberger_weyl(gens, worder):
    """FIFO Buchberger in the Weyl algebra without pair criteria, then
    minimalization and tail reduction, through ``naive_s_operator_weyl``
    and ``naive_division_weyl``.

    Returns the unique reduced basis, each element monic under
    ``worder``, in ascending lead order.
    """
    basis = [g for g in gens if not g.is_zero()]
    queue = [(i, j) for j in range(len(basis)) for i in range(j)]
    while queue:
        i, j = queue.pop(0)
        s = naive_s_operator_weyl(basis[i], basis[j], worder)
        r = naive_division_weyl(s, basis, worder)[1]
        if not r.is_zero():
            queue.extend((t, len(basis)) for t in range(len(basis)))
            basis.append(r)

    def lead_divides(a, b):
        return divides(a.x, b.x) and divides(a.d, b.d)

    leads = [weyl_lead(g, worder)[0] for g in basis]
    mins = []
    for t in sorted(range(len(basis)), key=lambda t: worder.key(leads[t])):
        if not any(lead_divides(leads[u], leads[t]) for u in mins):
            mins.append(t)
    out = []
    for t in mins:
        r = naive_division_weyl(basis[t], [basis[u] for u in mins if u != t], worder)[1]
        out.append(r * (1 / weyl_lead(r, worder)[1]))
    return out


# -- benchmark inputs ----------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def complete_pool_sample(count, seed):
    """A seeded sample of the benchmark's complete pool, restricted to
    the inputs with a reference cost (the others run for minutes), as
    (inputs, cap) pairs."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    ref = json.loads((PERFBENCH / "reference.json").read_text())["complete"]
    pool = {p["id"]: p for p in corpus.complete_pool()}
    ids = sorted(i for i in pool if ref[i][1] is not None)
    out = []
    for i in random.Random(seed).sample(ids, count):
        prob = pool[i]
        ring = RingSpec(prob["n"], prob["m"], order_delta=MonomialOrder(prob["order"]))
        gens = [DiffOp(ring, {e: Poly(ring.nvars, c) for e, c in op.items()})
                for op in prob["gens"]]
        out.append((gens, prob["cap"]))
    return out


# -- critical-pair order, the slow way ---------------------------------------

def min_scan_pairs(leads, lcm, key):
    """Reference for ``orders.critical_pairs``: every open pair sits in a
    dict under its (key(lcm), i, j), and each step pops the minimum by a
    full scan; a ``key`` of None orders the lcms themselves.  Leads
    appended while iterating join before the next pop."""
    pairs = {}
    seen = 0
    while True:
        for j in range(seen, len(leads)):
            for i in range(j):
                l = lcm(leads[i], leads[j])
                pairs[(i, j)] = (l if key is None else key(l), i, j)
        seen = len(leads)
        if not pairs:
            return
        i, j = min(pairs, key=pairs.__getitem__)
        del pairs[(i, j)]
        yield i, j, lcm(leads[i], leads[j])


# -- dense linear-algebra membership oracle ----------------------------------

def _monomials_up_to(nvars, bound):
    out = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(bound + 1 - sum(e))]
    return out


def _echelon_reduce(vec, basis):
    """Reduce the sparse vector ``vec`` (exponent -> nonzero Fraction, in
    place) against ``basis`` (pivot -> vector with entry 1 at its pivot,
    the pivot being its largest exponent) until its largest exponent is
    no pivot.  Vectors with distinct largest exponents are independent,
    so ``vec`` lies in the span exactly when it reduces to empty."""
    while vec:
        lead = max(vec)
        row = basis.get(lead)
        if row is None:
            return vec
        c = vec[lead]
        for e, a in row.items():
            v = vec.get(e, 0) - c * a
            if v:
                vec[e] = v
            else:
                del vec[e]
    return vec


def linear_membership(f, gens, bound):
    """Is f a combination sum q_i g_i with deg q_i g_i <= bound?

    Solved as an exact linear system over the monomial basis, no
    Groebner machinery involved: every column m*g_i with deg m*g_i <=
    bound is reduced into an echelon basis of sparse vectors, then f is
    reduced against it.  A True answer proves membership; a False answer
    only rules out cofactors up to the bound.
    """
    nvars = f.nvars
    if f.is_zero():
        return True
    if f.degree() > bound:
        return False
    basis = {}
    for g in gens:
        if g.is_zero():
            continue
        room = bound - g.degree()
        if room < 0:
            continue
        for e in _monomials_up_to(nvars, room):
            col = _echelon_reduce(dict((Poly.monomial(nvars, e) * g).terms), basis)
            if col:
                lead = max(col)
                inv = 1 / col[lead]
                basis[lead] = {ee: c * inv for ee, c in col.items()}
    return not _echelon_reduce(dict(f.terms), basis)


# -- one-step operator product oracle ----------------------------------------

def apply_d(op, i):
    """Left multiplication by a single derivation symbol."""
    ring = op.ring
    acc = {}

    def put(e, p):
        acc[e] = acc[e] + p if e in acc else p

    for e, c in op.terms.items():
        up = list(e)
        up[i] += 1
        put(tuple(up), c)
        dc = c.partial(i)
        if not dc.is_zero():
            put(e, dc)
    return DiffOp(ring, {e: p for e, p in acc.items() if not p.is_zero()})


def slow_mul(p, q):
    """Operator product moving one derivation across at a time."""
    ring = p.ring
    total = DiffOp.zero(ring)
    for e, c in p.terms.items():
        part = q
        for i in range(ring.n):
            for _ in range(e[i]):
                part = apply_d(part, i)
        scaled = DiffOp(ring, {ee: c * cc for ee, cc in part.terms.items()})
        total = total + scaled
    return total


# -- delta reduction by the cofactor formula ---------------------------------

def naive_reduce(p, gens, tail=False):
    """Delta reduction that cancels each leading coefficient through its
    cofactors over the covering generators, one product per cofactor.

    At the leading exponent alpha, ``member_with_cofactors`` of the cone
    ideal gives q_k, and the step subtracts slow_mul(q_k d^(alpha-e_k),
    F_k) for every covering F_k.  No cone rows, no Leibniz formula.
    Returns (cofactors, remainder, steps) as ``reduce``'s trace has them.
    """
    ring = p.ring
    exps = [g.exp_delta() for g in gens]
    cones = {}
    cof = [DiffOp.zero(ring) for _ in gens]
    rem = DiffOp.zero(ring)
    cur = p
    steps = 0
    while not cur.is_zero():
        alpha, c = cur.exp_delta(), cur.c_delta()
        idxs = tuple(i for i, e in enumerate(exps) if divides(e, alpha))
        qs = None
        if idxs:
            if idxs not in cones:
                cones[idxs] = PolyIdeal([gens[i].c_delta() for i in idxs], ring.x_order())
            qs = cones[idxs].member_with_cofactors(c)
        if qs is not None:
            steps += 1
            for q, i in zip(qs, idxs):
                t = DiffOp.term(ring, sub_exp(alpha, exps[i]), q)
                cof[i] = cof[i] + t
                cur = cur - slow_mul(t, gens[i])
            continue
        if not tail:
            return cof, rem + cur, steps
        head = DiffOp.term(ring, alpha, c)
        rem, cur = rem + head, cur - head
        steps += 1
    return cof, rem, steps


# -- completion without carried-over caches ----------------------------------

def rebuild_complete(ops, cap=10000):
    """Completion that builds a fresh GeneratorSet, with empty cone
    caches, in every round.  Returns (ops, stair, stats)."""
    ring = ops[0].ring
    ops = list(ops)
    stats = {"rounds": 0, "s_operators": 0, "reductions": 0,
             "reduction_steps": 0, "additions": 0}
    while True:
        gs = GeneratorSet(tuple(ops), ring)
        stats["rounds"] += 1
        hit = _first_failure(gs, stats)
        if hit is None:
            return tuple(ops), minimal_stair(gs.exps, ring.order_delta), stats
        if stats["additions"] >= cap:
            raise CompletionCapExceeded(f"completion exceeded the cap of {cap} additions")
        ops.append(hit[1].remainder.primitive())
        stats["additions"] += 1


# -- an independent delta-base certificate -----------------------------------

class _Rejected(Exception):
    pass


def _oracle_lead(op, order):
    alpha = order.max(list(op.terms))
    return alpha, op.terms[alpha]


def _library_cone(ops, idxs):
    ring = ops[0].ring
    ideal = PolyIdeal([_oracle_lead(ops[i], ring.order_delta)[1] for i in idxs],
                      ring.x_order())
    return ideal.groebner, ideal.expression_matrix


def _combine_rows(us, A, width, nvars):
    """sum_j us[j] * A[j] as a row of width entries."""
    row = [Poly.zero(nvars) for _ in range(width)]
    for u, arow in zip(us, A):
        if not u.is_zero():
            row = [r + u * a for r, a in zip(row, arow)]
    return row


def certify_delta_oracle(ops, inputs, cone=None):
    """Check that ops is a delta base of an ideal holding every input,
    with code other than the code that built it.  Returns None, or a
    message naming the first failure.

    The cone data is untrusted: ``cone(ops, idxs)`` gives the pair (G, A)
    of the cone ideal of the leading coefficients of ops[idxs] (the
    library's ``PolyIdeal`` by default).  Each pair must hold G equal to
    ``naive_reduced_groebner`` of those coefficients and G = A * c by
    multiplication.  B (the coefficients over G) comes from
    ``naive_division``.  At every lcm target the syzygies of the
    coefficients are the Schreyer rows of G carried back through A and
    the rows of I - B*A; each gives an S-operator, formed with
    ``slow_mul``, that must reduce to zero.  The reduction cancels each
    leading coefficient with ``naive_division`` quotients over the
    cone's G, carried back through A, one ``slow_mul`` per cofactor.
    Every input must reduce to zero the same way.
    """
    cone = _library_cone if cone is None else cone
    ring = ops[0].ring
    order, xorder, nv = ring.order_delta, ring.x_order(), ring.nvars
    leads = [_oracle_lead(p, order) for p in ops]
    exps = [e for e, _ in leads]
    checked = {}

    def cone_data(idxs):
        if idxs not in checked:
            c = [leads[i][1] for i in idxs]
            G, A = cone(ops, idxs)
            G, A = list(G), [list(row) for row in A]
            where = [exps[i] for i in idxs]
            if G != naive_reduced_groebner(c, xorder):
                raise _Rejected(f"the cone of {where} is not its reduced base")
            if len(A) != len(G) or any(
                    len(row) != len(c) or sum((a * x for a, x in zip(row, c)),
                                              Poly.zero(nv)) != g
                    for row, g in zip(A, G)):
                raise _Rejected(f"the expression matrix of the cone of {where} is wrong")
            B = []
            for x in c:
                q, r = naive_division(x, G, xorder)
                if not r.is_zero():
                    raise _Rejected(f"a coefficient of the cone of {where} leaves G")
                B.append(q)
            checked[idxs] = G, A, B
        return checked[idxs]

    def shifted(alpha, i, q):
        return slow_mul(DiffOp.term(ring, sub_exp(alpha, exps[i]), q), ops[i])

    def reduces_to_zero(p):
        prev = None
        while not p.is_zero():
            alpha, c = _oracle_lead(p, order)
            if prev is not None and order.compare(alpha, prev) >= 0:
                raise _Rejected(f"the reduction climbs at {alpha}")
            prev = alpha
            idxs = tuple(i for i, e in enumerate(exps) if divides(e, alpha))
            if not idxs:
                return False
            G, A, _ = cone_data(idxs)
            us, r = naive_division(c, G, xorder)
            if not r.is_zero():
                return False
            for q, i in zip(_combine_rows(us, A, len(idxs), nv), idxs):
                if not q.is_zero():
                    p = p - shifted(alpha, i, q)
        return True

    try:
        if any(not g.is_zero() and not reduces_to_zero(g) for g in inputs):
            return "an input does not reduce to zero"
        targets = set()
        for e in exps:
            targets |= {e} | {tuple(map(max, t, e)) for t in targets}
        for alpha in sorted(targets, key=order.key):
            idxs = tuple(i for i, e in enumerate(exps) if divides(e, alpha))
            G, A, B = cone_data(idxs)
            rows = []
            for i in range(len(G)):
                for j in range(i + 1, len(G)):
                    ei, ej = G[i].lm(xorder), G[j].lm(xorder)
                    mi = Poly.monomial(nv, sub_exp(lcm_exp(ei, ej), ei))
                    mj = Poly.monomial(nv, sub_exp(lcm_exp(ei, ej), ej))
                    q, r = naive_division(mi * G[i] - mj * G[j], G, xorder)
                    if not r.is_zero():
                        raise _Rejected(f"an S-polynomial of the cone at {alpha} leaves G")
                    u = [-x for x in q]
                    u[i], u[j] = u[i] + mi, u[j] - mj
                    rows.append(_combine_rows(u, A, len(idxs), nv))
            for k in range(len(idxs)):
                row = _combine_rows([-x for x in B[k]], A, len(idxs), nv)
                row[k] = row[k] + Poly.constant(nv, 1)
                rows.append(row)
            for row in rows:
                sop = DiffOp.zero(ring)
                for lam, i in zip(row, idxs):
                    if not lam.is_zero():
                        sop = sop + shifted(alpha, i, lam)
                if not reduces_to_zero(sop):
                    return f"an S-operator at {alpha} does not reduce to zero"
    except _Rejected as e:
        return str(e)
    return None
