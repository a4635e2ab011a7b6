"""Classical bases under the elimination order, and the one-way bridge
from them to the d-part base criterion."""

import random
from fractions import Fraction

import pytest

from diffgb import (
    DiffOp,
    GeneratorSet,
    MonomialOrder,
    Poly,
    RingSpec,
    WeylExp,
    WeylOrder,
    buchberger_weyl,
    complete,
    divide_weyl,
    exp_full,
    gb_implies_delta_check,
    is_delta_groebner,
    is_gb,
    member,
    s_operator_weyl,
)
from diffgb import weylbasis
from diffgb.deltabasis import CompletionCapExceeded
from diffgb.orders import divides
from diffgb.poly import _layout
from diffgb.weylbasis import (_Divisors, _divide_weyl, _flat, _lead_full, _primitive_rem,
                               _primitive_weyl, _s_pair, _unflatten)
from helpers import (
    add_exp,
    assert_canonical_op,
    example6_ops,
    integer_primitive,
    naive_buchberger_weyl,
    naive_division_weyl,
    parse_op,
    rand_op,
    lcm_exp,
    rand_poly,
    ring1,
    ring2,
    slow_mul,
)

W = WeylOrder(MonomialOrder("deglex"), MonomialOrder("deglex"))


def test_elimination_order_compares_d_part_first():
    lo = WeylExp((9, 9), (0, 1))
    hi = WeylExp((0, 0), (1, 1))
    assert W.compare(lo, hi) < 0
    assert W.compare(hi, hi) == 0
    # ties on the d-part fall back to the x-part
    a = WeylExp((1, 0), (1, 0))
    b = WeylExp((0, 1), (1, 0))
    assert W.compare(a, b) > 0


def test_exp_full_running_pair():
    _, p1, p2 = example6_ops()
    assert exp_full(p1, W) == WeylExp((1, 0), (1, 0))
    assert exp_full(p2, W) == WeylExp((1, 0), (0, 1))


def test_exp_full_rejects_parameters_and_zero():
    ring = RingSpec(1, 1)
    with pytest.raises(ValueError):
        exp_full(ring.d(0), W)
    r = ring2()
    with pytest.raises(ValueError):
        exp_full(DiffOp.zero(r), W)


def test_exp_full_multiplicative_fuzz():
    rng = random.Random(61)
    r = ring2()
    for _ in range(40):
        p = rand_op(rng, r)
        q = rand_op(rng, r)
        wp, wq, wpq = exp_full(p, W), exp_full(q, W), exp_full(p * q, W)
        assert wpq.x == tuple(a + b for a, b in zip(wp.x, wq.x))
        assert wpq.d == tuple(a + b for a, b in zip(wp.d, wq.d))


def test_s_operator_running_pair():
    r, p1, p2 = example6_ops()
    s = s_operator_weyl(p1, p2, W)
    assert s == r.d(1) * p1 + r.d(0) * p2
    assert exp_full(s, W) == WeylExp((0, 1), (1, 1))


def test_running_pair_is_never_classical_base():
    rng = random.Random(62)
    _, p1, p2 = example6_ops()
    assert not is_gb([p1, p2], W)
    # stays false for random polynomial parameters a, b, d
    r = ring2()
    for _ in range(5):
        a = rand_poly(rng, 2, max_deg=2, max_terms=2)
        b = rand_poly(rng, 2, max_deg=2, max_terms=2)
        d = rand_poly(rng, 2, max_deg=2, max_terms=2)
        p1 = r.embed(r.x(0)) * r.d(0) + r.embed(a) * r.d(1) + r.embed(b)
        p2 = r.embed(r.x(1) - r.x(0)) * r.d(1) - r.embed(d)
        assert not is_gb([p1, p2], W)


def test_division_identity_fuzz():
    rng = random.Random(63)
    r = ring2()
    for _ in range(30):
        gens = [rand_op(rng, r) for _ in range(rng.randint(1, 3))]
        p = rand_op(rng, r, max_order=3, max_terms=4)
        qs, rem = divide_weyl(p, gens, W)
        rebuilt = rem
        for q, g in zip(qs, gens):
            rebuilt = rebuilt + q * g
        assert rebuilt == p
        # no remainder monomial is divisible by a leading exponent
        heads = [exp_full(g, W) for g in gens]
        for beta, coeff in rem.terms.items():
            for e in coeff.terms:
                assert not any(
                    all(a <= b for a, b in zip(h.d, beta))
                    and all(a <= b for a, b in zip(h.x, e))
                    for h in heads)


def rand_qop(rng, ring, **kw):
    """rand_op with each coefficient scaled by its own signed rational."""
    op = rand_op(rng, ring, **kw)
    return DiffOp(ring, {e: c * Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 6))
                         for e, c in op.terms.items()})


def test_division_identity_on_rational_operators_fuzz():
    # rational coefficients with mixed denominators and signs on both
    # sides, so the fraction-free steps rescale the working copy
    rng = random.Random(68)
    for _ in range(40):
        r = rng.choice([ring1(), ring2()])
        w = rng.choice([W, WeylOrder(MonomialOrder("lex"), MonomialOrder("deglex"))])
        gens = [rand_qop(rng, r) for _ in range(rng.randint(1, 3))]
        p = rand_qop(rng, r, max_order=3, max_terms=4)
        qs, rem = divide_weyl(p, gens, w)
        rebuilt = rem
        for q, g in zip(qs, gens):
            rebuilt = rebuilt + q * g
            assert_canonical_op(q)
        assert rebuilt == p
        assert_canonical_op(rem)


def test_division_quotients_match_the_recording_oracle_fuzz():
    # as the commutative test: both lead signs, a lone constant, a
    # constant among other divisors, and a zero dividend
    rng = random.Random(72)
    consts = [Fraction(2), Fraction(-1), Fraction(-3, 2)]
    for k in range(60):
        w = rng.choice([W, WeylOrder(MonomialOrder("lex"), MonomialOrder("deglex"))])
        r = rng.choice([ring1(), ring2()])
        gens = [rand_qop(rng, r) for _ in range(rng.randint(1, 3))]
        c = r.embed(consts[k % 3])
        if k % 4 == 1:
            gens = [c]
        elif k % 4 == 2:
            gens.insert(rng.randrange(len(gens) + 1), c)
        p = r.embed(0) if k % 5 == 0 else rand_qop(rng, r, max_order=3, max_terms=4)
        qs, rem = divide_weyl(p, gens, w)
        assert (qs, rem) == naive_division_weyl(p, gens, w)
        for q in qs + [rem]:
            assert_canonical_op(q)


def test_division_bounds_cofactors_fuzz():
    rng = random.Random(64)
    r = ring1()
    for _ in range(30):
        gens = [rand_op(rng, r) for _ in range(2)]
        p = rand_op(rng, r, max_order=3)
        qs, rem = divide_weyl(p, gens, W)
        top = exp_full(p, W)
        for q, g in zip(qs, gens):
            if not q.is_zero():
                assert W.compare(exp_full(q * g, W), top) <= 0


def test_coprime_leads_still_interact():
    # in the first Weyl algebra the pair (x1, d1) has coprime leading
    # monomials yet S = d1 x1 - x1 d1 = 1, so the ideal is everything
    r = ring1()
    x1 = r.embed(r.x(0))
    d1 = r.d(0)
    assert s_operator_weyl(x1, d1, W) in (r.embed(1), r.embed(-1))
    assert not is_gb([x1, d1], W)
    g = buchberger_weyl([x1, d1], W)
    assert g.ops == (r.embed(1),)


def test_buchberger_weyl_output_is_base():
    rng = random.Random(65)
    r = ring2()
    for _ in range(10):
        gens = [rand_op(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(2)]
        g = buchberger_weyl(gens, W)
        assert is_gb(list(g.ops), W)
        for p in gens:
            assert divide_weyl(p, list(g.ops), W)[1].is_zero()


def test_buchberger_weyl_running_pair():
    r, p1, p2 = example6_ops()
    g = buchberger_weyl([p1, p2], W)
    assert is_gb(list(g.ops), W)
    for p in (p1, p2):
        assert divide_weyl(p, list(g.ops), W)[1].is_zero()
    # cross route: every classical basis element lies in the ideal
    b = complete([p1, p2])
    for p in g.ops:
        assert member(p, b)[0]


def test_buchberger_weyl_cap():
    r, p1, p2 = example6_ops()
    with pytest.raises(CompletionCapExceeded):
        buchberger_weyl([p1, p2], W, cap=0)


def test_buchberger_weyl_rejects_negative_cap_before_any_work():
    r, p1, p2 = example6_ops()
    for gens in ([p1, p2], [p1], []):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            buchberger_weyl(gens, W, cap=-1)


def test_classical_base_passes_delta_criterion():
    # the positive bridge, checked on computed bases
    rng = random.Random(66)
    r = ring2()
    for _ in range(10):
        gens = [rand_op(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(2)]
        g = buchberger_weyl(gens, W)
        assert gb_implies_delta_check(list(g.ops), W)
        assert is_delta_groebner(GeneratorSet(list(g.ops), r))


def test_bridge_is_vacuous_for_non_bases():
    _, p1, p2 = example6_ops()
    assert gb_implies_delta_check([p1, p2], W)  # not a base, nothing to check


def test_delta_base_need_not_be_classical_base():
    # the converse direction fails on the running pair
    _, p1, p2 = example6_ops()
    assert is_delta_groebner(GeneratorSet([p1, p2]))
    assert not is_gb([p1, p2], W)


def test_primitive_weyl_integer_content_one_positive_lead_fuzz():
    rng = random.Random(67)
    orders = [W, WeylOrder(MonomialOrder("lex"), MonomialOrder("deglex")),
              WeylOrder(MonomialOrder("deglex", (1, 0)), MonomialOrder("lex"))]
    for _ in range(150):
        worder = rng.choice(orders)
        r = ring2(worder.order_d.kind)
        p = rand_op(rng, r) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        out = _primitive_weyl(p, worder)
        assert integer_primitive(c for q in out.terms.values() for c in q.terms.values())
        # lead positive under the elimination order itself
        (w, c), (w0, c0) = _lead_full(out, worder), _lead_full(p, worder)
        assert w == w0 and c > 0
        assert out == p * (c / c0)


# Bases recorded verbatim with their counters.  A reduced base is
# unique, but the counters follow the order in which pairs are popped,
# the Gebauer-Moeller criteria and the early exit once a constant is
# added (the last five inputs generate the whole ring), so these pin
# all three.
WEYL_GOLDEN = [
    ("deglex", ["x1*d1 + x1*d2 + x1", "(x2 - x1)*d2 - 1"],
     ["(-x2 + x1)*d2 + (1)", "(x1)*d1 + (x2)*d2 + (x1 - 1)",
      "(x2)*d1*d2 + (x2)*d2^2 + (-1)*d1 + (x2 - 1)*d2 + (-1)"],
     {"s_pairs": 2, "reductions": 2, "division_steps": 9, "additions": 1}),
    ("deglex", ["(-3*x2^2 - x1*x2 - 3*x1^2 - 3*x2)*d2", "(-2*x1 - 3)*d1", "d1^2"],
     ["(1)*d2", "(1)*d1"],
     {"s_pairs": 17, "reductions": 15, "division_steps": 59, "additions": 8}),
    ("lex", ["(-3*x2^2 - x1*x2 - 3*x1^2 - 3*x2)*d2", "(-2*x1 - 3)*d1", "d1^2"],
     ["(1)*d2", "(1)*d1"],
     {"s_pairs": 22, "reductions": 19, "division_steps": 76, "additions": 10}),
    ("deglex", ["(x1 - 1)*d1 - d2", "(-3*x1*x2)*d2^2", "(-2*x1*x2 - x1^2 + 2*x2)*d1*d2"],
     ["(x1 - 1)*d1 + (-1)*d2", "(1)*d2^2", "(1)*d1*d2"],
     {"s_pairs": 14, "reductions": 10, "division_steps": 36, "additions": 6}),
    ("lex", ["(3*x1^2 + 2*x2 + x1 + 3)*d1", "-4*d1^2 - x2^2*d1*d2"],
     ["(1)*d1"],
     {"s_pairs": 9, "reductions": 9, "division_steps": 32, "additions": 5}),
    ("deglex", ["4*d1 + x1*x2", "(2*x2^2 + x1)*d1", "d1*d2 + 2*x1^2*d2^2"],
     ["(1)"],
     {"s_pairs": 17, "reductions": 12, "division_steps": 22, "additions": 9}),
    ("lex", ["4*d1 + x1*x2", "(2*x2^2 + x1)*d1", "d1*d2 + 2*x1^2*d2^2"],
     ["(1)"],
     {"s_pairs": 18, "reductions": 13, "division_steps": 25, "additions": 9}),
    ("deglex", ["x1*d1 + x2", "d1*d2 + x1", "x2*d2 - 1"],
     ["(1)"],
     {"s_pairs": 6, "reductions": 5, "division_steps": 11, "additions": 5}),
    ("deglex", ["x1^2*d1 + 1", "x1*d1^2 + d2"],
     ["(1)"],
     {"s_pairs": 8, "reductions": 8, "division_steps": 31, "additions": 7}),
    # equal leads: pairs with equal lcms pop in (i, j) order
    ("deglex", ["(x1*x2 - 2)*d1*d2 + 3", "3*x1*x2*d2", "3*x1*x2*d2"],
     ["(1)"],
     {"s_pairs": 18, "reductions": 11, "division_steps": 25, "additions": 10}),
]


@pytest.mark.parametrize("x_order, gens, ops, stats", WEYL_GOLDEN)
def test_buchberger_weyl_golden_bases_and_counters(x_order, gens, ops, stats):
    r = ring2()
    g = buchberger_weyl([parse_op(r, t) for t in gens],
                        WeylOrder(MonomialOrder(x_order), MonomialOrder("deglex")))
    assert [str(p) for p in g.ops] == ops
    assert g.stats == stats


# -- the memo of d-shifted divisors ------------------------------------------

ORDERS = [W, WeylOrder(MonomialOrder("lex"), MonomialOrder("deglex")),
          WeylOrder(MonomialOrder("deglex"), MonomialOrder("lex"))]


def textbook_s_operator(f, g, worder):
    """mf*f - mg*g with mf = x^a d^b / lc(f) built out and multiplied
    one derivation at a time."""
    (_, cf), (_, cg) = _lead_full(f, worder), _lead_full(g, worder)
    wf, wg = exp_full(f, worder), exp_full(g, worder)
    lx, ld = tuple(map(max, wf.x, wg.x)), tuple(map(max, wf.d, wg.d))

    def multiplier(w, c):
        return DiffOp(f.ring, {tuple(a - b for a, b in zip(ld, w.d)): Poly.monomial(
            f.ring.nvars, tuple(a - b for a, b in zip(lx, w.x)), 1 / c)})

    return slow_mul(multiplier(wf, cf), f) - slow_mul(multiplier(wg, cg), g)


def divisors(ops, worder):
    return _Divisors(ops, [_lead_full(g, worder)[0] for g in ops], ops[0].ring.nvars)


def test_s_operator_matches_textbook_with_and_without_memo_fuzz():
    rng = random.Random(69)
    for _ in range(40):
        w = rng.choice(ORDERS)
        r = rng.choice([ring1(w.order_d.kind), ring2(w.order_d.kind)])
        ops = [rand_qop(rng, r) for _ in range(3)]
        base = divisors(ops, w)
        for i, j in [(0, 1), (1, 2), (2, 0), (0, 2), (1, 1)]:
            want = textbook_s_operator(ops[i], ops[j], w)
            for got in (s_operator_weyl(ops[i], ops[j], w),
                        _unflatten(r, *_s_pair(base, i, j), base)):
                assert got == want
                assert_canonical_op(got)


def test_memo_is_keyed_by_base_index_fuzz():
    # one memo shared by divisions by sublists in any order, as the tail
    # reductions of buchberger_weyl share it: each divisor must get its
    # own products, whatever its position in the sublist
    rng = random.Random(70)
    for _ in range(30):
        w = rng.choice(ORDERS)
        r = rng.choice([ring1(w.order_d.kind), ring2(w.order_d.kind)])
        ops = [rand_qop(rng, r) for _ in range(4)]
        base = divisors(ops, w)
        for _ in range(6):
            ids = rng.sample(range(4), rng.randint(1, 4))
            gens = [ops[k] for k in ids]
            p = rand_qop(rng, r, max_order=3, max_terms=4)
            qs, rem = divide_weyl(p, gens, w)
            assert _unflatten(r, *_divide_weyl(*_flat(p, base.shift), w, base, ids), base) == rem
            # the cofactors of the memo-free division rebuild p
            rebuilt = rem
            for q, g in zip(qs, gens):
                rebuilt = rebuilt + slow_mul(q, g)
            assert rebuilt == p
        # and in the base's own order, as the pair loop divides
        p = rand_qop(rng, r, max_order=3, max_terms=4)
        nums, den = _divide_weyl(*_flat(p, base.shift), w, base, range(4))
        assert _unflatten(r, nums, den, base) == divide_weyl(p, ops, w)[1]


def test_flat_route_matches_the_public_route_fuzz(monkeypatch):
    # the pair loop's route, the S kernel's numerators (not in lowest
    # terms) straight into the division kernel, against the public
    # route through DiffOp: the same primitive remainder in the same
    # number of steps, also with the numerators scaled by an integer
    made = []

    class Spy(_Divisors):
        __slots__ = ()

        def __init__(self, ops, leads, nvars):
            made.append(self)
            super().__init__(ops, leads, nvars)

    monkeypatch.setattr(weylbasis, "_Divisors", Spy)
    rng = random.Random(77)
    seen = set()
    for _ in range(30):
        w = rng.choice(ORDERS)
        r = rng.choice([ring1(w.order_d.kind), ring2(w.order_d.kind)])
        gens = [rand_qop(rng, r, max_order=1, max_terms=2, max_deg=1) for _ in range(3)]
        for ops in (gens, list(buchberger_weyl(gens, w).ops)):
            base = divisors(ops, w)
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    _, rem = divide_weyl(s_operator_weyl(ops[i], ops[j], w), ops, w)
                    steps = made[-1].steps
                    for k in (1, rng.choice([-1, 1]) * rng.randint(2, 99)):
                        work, den = _s_pair(base, i, j)
                        work = {e: c * k for e, c in work.items()}
                        before = base.steps
                        nums, _ = _divide_weyl(work, den, w, base, range(len(ops)))
                        assert base.steps - before == steps
                        if nums:
                            assert _primitive_rem(r, nums, base) == _primitive_weyl(rem, w)
                        else:
                            assert rem.is_zero()
                        seen.add(bool(nums))
    assert seen == {True, False}


def test_is_gb_matches_textbook_criterion_fuzz():
    rng = random.Random(72)
    seen = set()
    for _ in range(25):
        w = rng.choice(ORDERS)
        r = ring2(w.order_d.kind)
        gens = [rand_qop(rng, r, max_order=1, max_terms=2, max_deg=1) for _ in range(2)]
        for ops in (gens, list(buchberger_weyl(gens, w).ops)):
            want = all(divide_weyl(textbook_s_operator(f, g, w), ops, w)[1].is_zero()
                       for i, f in enumerate(ops) for g in ops[i + 1:])
            assert is_gb(ops, w) == want
            seen.add(want)
    assert seen == {True, False}


def test_is_gb_shares_one_memo(monkeypatch):
    made = []

    class Spy(_Divisors):
        __slots__ = ()

        def __init__(self, ops, leads, nvars):
            made.append(len(ops))
            super().__init__(ops, leads, nvars)

    r = ring2()
    gens = [parse_op(r, t) for t in WEYL_GOLDEN[0][2]]
    monkeypatch.setattr(weylbasis, "_Divisors", Spy)
    assert is_gb(gens, W)
    assert made == [3]


def test_parameter_rings_are_rejected_at_every_entry_point():
    r = RingSpec(1, 1)
    x1, x2, d1 = r.embed(r.x(0)), r.embed(r.x(1)), r.d(0)
    for call in (lambda: is_gb([x2 * d1], W),
                 lambda: is_gb([x2 * d1, d1 + x1], W),
                 lambda: gb_implies_delta_check([x2 * d1], W),
                 lambda: s_operator_weyl(x2 * d1, d1 + x1, W)):
        with pytest.raises(ValueError, match=r"pure operator ring \(m = 0\)"):
            call()


def weyl_ops(ring):
    x1, d1 = ring.embed(ring.x(0)), ring.d(0)
    return x1 * d1, d1 + x1


@pytest.mark.parametrize("other", [RingSpec(1), RingSpec(2, names=("y1", "y2")), ring2("lex")],
                         ids=["n", "names", "d-order"])
def test_weyl_entry_points_reject_an_operator_of_another_ring(other):
    # the same operators over another ring: every entry point raises, as
    # reduce does, for the dividend and a divisor alike, zero operators
    # included, and answers as before over one ring
    f, g = weyl_ops(ring2())
    q, h = weyl_ops(other)
    for call in (lambda: divide_weyl(q, [f, g], W),
                 lambda: divide_weyl(f, [g, q], W),
                 lambda: s_operator_weyl(q, g, W),
                 lambda: s_operator_weyl(f, q, W),
                 lambda: buchberger_weyl([f, q], W),
                 lambda: buchberger_weyl([q, g], W),
                 lambda: buchberger_weyl([f, DiffOp.zero(other)], W),
                 lambda: is_gb([f, g, q], W),
                 lambda: is_gb([f, g, DiffOp.zero(other)], W)):
        with pytest.raises(ValueError, match="operator ring mismatch"):
            call()
    for ops in ([f, g], [q, h]):
        base = buchberger_weyl(ops, W).ops
        assert is_gb(base, W)
        assert all(divide_weyl(p, base, W)[1].is_zero() for p in ops)


def test_bridge_checks_the_rings_of_zero_operators_too():
    # a zero operator over another ring, or over a parameter ring, is
    # refused as is_gb refuses it, before the zeros are dropped
    r = ring2()
    x1d1 = r.embed(r.x(0)) * r.d(0)
    with pytest.raises(ValueError, match="operator ring mismatch"):
        is_gb([x1d1, DiffOp.zero(RingSpec(1))], W)
    with pytest.raises(ValueError, match="operator ring mismatch"):
        gb_implies_delta_check([x1d1, DiffOp.zero(RingSpec(1))], W)
    with pytest.raises(ValueError, match=r"pure operator ring \(m = 0\)"):
        gb_implies_delta_check([x1d1, DiffOp.zero(RingSpec(2, 1))], W)
    with pytest.raises(ValueError, match=r"pure operator ring \(m = 0\)"):
        gb_implies_delta_check([DiffOp.zero(RingSpec(1, 1))], W)
    assert gb_implies_delta_check([x1d1, DiffOp.zero(r)], W)


# -- counters ---------------------------------------------------------------


def monomials(op):
    return sum(len(c.terms) for c in op.terms.values())


def test_division_steps_count_the_pair_loop_divisions_fuzz(monkeypatch):
    # each division step writes one cofactor monomial or moves one
    # monomial to the remainder, so the pair loop's divisions, redone
    # through the public path, account for every counted step; the
    # tail reductions after the loop (the last len(ops) divisions) are
    # not counted.  The loop divides through the kernel _divide_weyl,
    # which consumes its work: the spy rebuilds the dividend first.
    real = weylbasis._divide_weyl
    calls = []

    def spy(work, den, worder, base, ids, cofd=None):
        p = _unflatten(base.ops[0].ring, dict(work), den, base)
        calls.append((p, [base.ops[k] for k in ids], worder))
        return real(work, den, worder, base, ids, cofd)

    monkeypatch.setattr(weylbasis, "_divide_weyl", spy)
    rng = random.Random(74)
    steps = 0
    for _ in range(30):
        w = rng.choice(ORDERS)
        r = rng.choice([ring1(w.order_d.kind), ring2(w.order_d.kind)])
        gens = [rand_qop(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(rng.randint(1, 3))]
        calls.clear()
        result = buchberger_weyl(gens, w)
        stats = result.stats
        pair_loop = calls[:len(calls) - len(result.ops)]
        want = 0
        for p, ops, worder in pair_loop:
            qs, rem = divide_weyl(p, ops, worder)
            want += sum(map(monomials, qs)) + monomials(rem)
        assert stats["division_steps"] == want
        assert stats["reductions"] == len(pair_loop)
        steps += want
    assert steps > 100


def test_counters_match_the_calls_they_count_fuzz(monkeypatch):
    # read from outside the loop: every popped pair forms one
    # S-operator (by the kernel _s_pair), every nonzero one is divided
    # once (by the kernel _divide_weyl), the tail pass divides each
    # output element once, and every addition grows the base that the
    # memo holds
    real_s, real_div = weylbasis._s_pair, weylbasis._divide_weyl
    bases, s_calls, divisions = [], [], []

    class Spy(_Divisors):
        __slots__ = ()

        def __init__(self, ops, leads, nvars):
            bases.append(ops)
            super().__init__(ops, leads, nvars)

    def s_spy(*args, **kw):
        s_calls.append(args)
        return real_s(*args, **kw)

    def div_spy(*args, **kw):
        divisions.append(args)
        return real_div(*args, **kw)

    monkeypatch.setattr(weylbasis, "_Divisors", Spy)
    monkeypatch.setattr(weylbasis, "_s_pair", s_spy)
    monkeypatch.setattr(weylbasis, "_divide_weyl", div_spy)
    rng = random.Random(75)
    added = 0
    for _ in range(30):
        w = rng.choice(ORDERS)
        r = rng.choice([ring1(w.order_d.kind), ring2(w.order_d.kind)])
        gens = [rand_qop(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(rng.randint(1, 3))]
        for calls in (bases, s_calls, divisions):
            calls.clear()
        result = buchberger_weyl(gens, w)
        stats = result.stats
        assert stats["s_pairs"] == len(s_calls)
        assert stats["reductions"] == len(divisions) - len(result.ops)
        [ops] = bases
        assert stats["additions"] == len(ops) - sum(not g.is_zero() for g in gens)
        added += stats["additions"]
    assert added > 20


# -- the pair criteria against a criterion-free oracle ----------------------


def test_buchberger_weyl_matches_the_criterion_free_oracle_fuzz():
    # the Gebauer-Moeller update skips pairs and divides by the live
    # elements only; the reduced base must not notice
    rng = random.Random(76)
    for _ in range(60):
        w = rng.choice(ORDERS)
        r = rng.choice([ring1(w.order_d.kind), ring2(w.order_d.kind)])
        gens = [rand_qop(rng, r, max_order=2, max_terms=2, max_deg=1)
                for _ in range(rng.randint(2, 4))]
        got = list(buchberger_weyl(gens, w).ops)
        want = naive_buchberger_weyl(gens, w)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            e = exp_full(p, w)
            c = p.terms[e.d].terms[e.x]
            assert c > 0 and p == q * c
        assert is_gb(got, w)
        for g in gens:
            assert divide_weyl(g, got, w)[1].is_zero()


def test_s_operator_names_the_zero_operator():
    r = RingSpec(2)
    zero, d1 = DiffOp.zero(r), r.d(0)
    for f, g in ((zero, d1), (d1, zero), (zero, zero)):
        with pytest.raises(ValueError, match="zero operator"):
            s_operator_weyl(f, g, WeylOrder())


# -- full keys d << S | x ----------------------------------------------------

LIMIT = 2 ** 31  # total degrees stay below it, in x and in d


def full_key(n, x, d):
    lay = _layout(n)
    return lay.pack(d) << _Divisors([], [], n).shift | lay.pack(x)


def test_full_key_divides_lcm_and_order_match_the_tuple_definitions_fuzz():
    # the one guard test and the half-by-half lcm against componentwise
    # definitions, including x-halves that do not divide, also with a
    # larger x-degree (its degree field then borrows from the d-half),
    # and entries and lcm degrees near the limit
    rng = random.Random(91)
    seen = set()
    for k in range(800):
        n = 1 + k % 3
        base = _Divisors([], [], n)

        def exp(top):
            if rng.random() < 0.2:  # near the limit: split a total below it
                cuts = sorted(rng.randint(0, LIMIT - 1) for _ in range(n - 1))
                return tuple(b - a for a, b in zip([0, *cuts], [*cuts, LIMIT - 1]))
            return tuple(rng.randint(0, top) for _ in range(n))

        ax, ad, bx, bd = exp(3), exp(3), exp(3), exp(3)
        kind = k // 3 % 4
        if kind & 1 and sum(ad) + 6 < LIMIT:  # the d-half divides
            bd = add_exp(ad, tuple(rng.randint(0, 2) for _ in range(n)))
        if kind & 2 and sum(ax) + 6 < LIMIT:  # the x-half divides
            bx = add_exp(ax, tuple(rng.randint(0, 2) for _ in range(n)))
        a, b = full_key(n, ax, ad), full_key(n, bx, bd)
        dx, dd = divides(ax, bx), divides(ad, bd)
        assert base.divides(a, b) == (dx and dd)
        seen.add((dx, dd, sum(ax) > sum(bx)))
        assert base.lcm(a, b) == full_key(n, lcm_exp(ax, bx), lcm_exp(ad, bd))
        # under deglex/deglex the keys are their own sort key
        assert (a < b) == (W.key(WeylExp(ax, ad)) < W.key(WeylExp(bx, bd)))
    assert seen == {(True, True, False), (True, False, False),
                    (False, True, False), (False, True, True),
                    (False, False, False), (False, False, True)}


def test_divide_weyl_matches_the_recording_oracle_under_memo_orders_fuzz():
    # full keys that sort through the memo of (d-key, x-key): lex,
    # degrevlex and reversed deglex d-orders, deglex and lex x-orders,
    # with one to three derivations
    rng = random.Random(92)
    for k in range(54):
        n = 1 + k % 3
        order_d = (MonomialOrder("lex"), MonomialOrder("degrevlex"),
                   MonomialOrder("deglex", tuple(range(n - 1, -1, -1))))[k // 3 % 3]
        w = WeylOrder(MonomialOrder("lex" if k // 9 % 2 else "deglex"), order_d)
        r = RingSpec(n, order_delta=order_d)
        gens = [rand_qop(rng, r, max_order=2, max_terms=2, max_deg=1)
                for _ in range(rng.randint(1, 3))]
        p = rand_qop(rng, r, max_order=3, max_terms=4)
        qs, rem = divide_weyl(p, gens, w)
        assert (qs, rem) == naive_division_weyl(p, gens, w)
        for q in qs + [rem]:
            assert_canonical_op(q)
        assert s_operator_weyl(gens[0], gens[-1], w) == textbook_s_operator(gens[0], gens[-1], w)
