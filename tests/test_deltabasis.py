"""Reduction, cone ideals, S-operators, the base criterion, completion."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from diffgb import (
    CompletionCapExceeded,
    DiffOp,
    GeneratorSet,
    Poly,
    PolyIdeal,
    complete,
    cone_coefficients,
    cone_ideal,
    cone_ideal_of_ideal,
    delta_stair,
    is_delta_groebner,
    is_reduced,
    lcm_targets,
    member,
    minimal_stair,
    reduce,
    s_delta_operators,
)
from diffgb import deltabasis, groebner
from diffgb.diffop import RingSpec
from diffgb.orders import MonomialOrder
from helpers import (
    assert_canonical_op,
    certify_delta_oracle,
    complete_pool_sample,
    cone_example_ops,
    example6_ops,
    naive_reduce,
    packed_ring,
    parse_op,
    rand_op,
    rand_poly,
    rebuild_complete,
    ring1,
    ring2,
    slow_mul,
)


def ideal_eq(ideal, gens, order):
    return ideal.equals(PolyIdeal(tuple(gens), order))


# -- cone ideals --------------------------------------------------------------


def test_cone_coefficients_lex_example():
    r, p1, p2 = cone_example_ops()
    f = GeneratorSet([p1, p2])
    assert cone_coefficients((1, 1), f) == []
    assert cone_coefficients((2, 2), f) == [p1.c_delta(), p2.c_delta()]
    assert cone_coefficients((2, 0), f) == [p1.c_delta()]


def test_cone_ideals_lex_example():
    r, p1, p2 = cone_example_ops()
    f = GeneratorSet([p1, p2])
    o = r.x_order()
    x1, x2 = r.x(0), r.x(1)
    assert cone_ideal((1, 1), f).is_zero()
    assert ideal_eq(cone_ideal((2, 0), f), [x1], o)
    assert ideal_eq(cone_ideal((0, 2), f), [x2], o)
    assert ideal_eq(cone_ideal((2, 2), f), [x1, x2], o)
    # an exponent given as a list names the same cone
    assert cone_ideal([2, 0], f) is cone_ideal((2, 0), f)
    assert cone_coefficients([2, 2], f) == cone_coefficients((2, 2), f)


def test_cone_ideal_single_generator():
    r, p1, p2 = example6_ops()
    f = GeneratorSet([p1])
    assert ideal_eq(cone_ideal((1, 0), f), [p1.c_delta()], r.x_order())


def test_query_exponents_past_the_degree_limit_keep_their_participants():
    # a queried exponent is not an operator's: the memos key packed
    # exponents, yet entries at or past 2^31, and negative ones, get the
    # componentwise answer; a cone row there would need an operator past
    # the limit, and no S-operator target lies there
    _, p1, p2 = cone_example_ops()  # exponents (2, 0) and (0, 2)
    f = GeneratorSet([p1, p2])
    big = 2 ** 31
    assert f.participants((big, 0)) == f.participants((big, 1)) == (0,)
    assert f.participants((3 * big, 10 ** 30)) == (0, 1)
    assert f.participants((-1, 5)) == () and cone_coefficients((5, -1), f) == []
    with pytest.raises(ValueError, match="is not an lcm target"):
        s_delta_operators(f, (big, 0))
    with pytest.raises(ValueError, match="limit"):
        f.cone_row((big, 2), 0)


# -- reducedness ---------------------------------------------------------------


def test_reduced_outside_every_cone():
    r, p1, p2 = example6_ops()
    f = GeneratorSet([p1, p2])
    one = r.embed(1)
    assert is_reduced(one, f)
    assert is_reduced(DiffOp.zero(r), f)
    assert not is_reduced(p1, f)
    assert not is_reduced(p2, f)


def test_reduced_inside_cone_with_escaping_coefficient():
    # exponent under the stair but coefficient outside the cone ideal
    r = ring2()
    f = GeneratorSet([parse_op(r, "x1*d1")])
    assert not is_reduced(parse_op(r, "x1^2*d1"), f)
    assert is_reduced(parse_op(r, "x2*d1"), f)


@pytest.mark.parametrize("other", [RingSpec(2, 1), RingSpec(1), ring2(order="lex")],
                         ids=["m", "n", "d-order"])
def test_reduced_rejects_an_operator_of_another_ring(other):
    # the same text over another ring: is_reduced raises as reduce does,
    # zero operators included, and answers as before over its own ring
    f = GeneratorSet([parse_op(ring2(), "x1*d1")])
    q = parse_op(other, "x1*d1")
    for p in (q, DiffOp.zero(other)):
        with pytest.raises(ValueError, match="operator ring mismatch"):
            is_reduced(p, f)
        with pytest.raises(ValueError, match="operator ring mismatch"):
            reduce(p, f)
    assert not is_reduced(q, GeneratorSet([q]))
    assert not is_reduced(f[0], f)


# -- reduction -----------------------------------------------------------------


def test_reduce_zero():
    r, p1, p2 = example6_ops()
    tr = reduce(DiffOp.zero(r), GeneratorSet([p1, p2]))
    assert tr.remainder.is_zero()
    assert all(c.is_zero() for c in tr.cofactors)


def test_reduce_left_multiples_fuzz():
    rng = random.Random(51)
    r, p1, p2 = example6_ops()
    f = GeneratorSet([p1, p2])
    for _ in range(25):
        q = rand_op(rng, r)
        tr = reduce(q * p1, f)
        assert tr.remainder.is_zero()


def test_reduce_identity_and_degree_bound_fuzz():
    rng = random.Random(52)
    r = ring2()
    o = r.order_delta
    for _ in range(40):
        gens = [rand_op(rng, r) for _ in range(rng.randint(1, 3))]
        f = GeneratorSet(gens)
        p = rand_op(rng, r, max_order=3, max_terms=4)
        tr = reduce(p, f)
        rebuilt = tr.remainder
        for c, g in zip(tr.cofactors, gens):
            rebuilt = rebuilt + c * g
        assert rebuilt == p
        assert is_reduced(tr.remainder, f)
        # condition 3: nothing climbs above the input exponent
        tops = [tr.remainder] + [c * g for c, g in zip(tr.cofactors, gens)
                                 if not c.is_zero()]
        exps = [t.exp_delta() for t in tops if not t.is_zero()]
        if not p.is_zero():
            assert o.max(exps) == p.exp_delta()


def test_reduce_tail_mode_peels_heads():
    r = ring2()
    f = GeneratorSet([parse_op(r, "x1*d1")])
    p = parse_op(r, "d1*d2 + x1^2*d1 + x2")
    top = reduce(p, f)
    assert top.remainder == p  # head (1,1) is stuck, whole input returned
    tail = reduce(p, f, tail=True)
    assert tail.remainder == parse_op(r, "d1*d2 + x2")
    rebuilt = tail.remainder
    for c, g in zip(tail.cofactors, f):
        rebuilt = rebuilt + c * g
    assert rebuilt == p


def test_reduce_example_subtraction():
    # the displayed reduction: S - d P1 - (d2 a) P2 - b P2 with a=x1, b=x1, d=1
    r, p1, p2 = example6_ops()
    f = GeneratorSet([p1, p2])
    sops = s_delta_operators(f, (1, 1))
    assert len(sops) == 1
    tr = reduce(sops[0].operator, f)
    assert tr.remainder.is_zero()
    assert tr.cofactors[0] == r.embed(1)
    assert tr.cofactors[1] == parse_op(r, "x1*d2 + x1")


def _trace(tr):
    return list(tr.cofactors), tr.remainder, tr.steps


def test_reduce_matches_the_cofactor_formula_oracle():
    # cone rows give the same trace as one product per cofactor
    rng = random.Random(61)
    for k in range(36):
        r = ring2(order=("deglex", "degrevlex", "lex")[k % 3], m=k // 3 % 2)
        gens = [rand_op(rng, r, max_order=2, max_terms=2, max_deg=1)
                for _ in range(rng.randint(1, 3))]
        f = GeneratorSet(gens)
        queries = [rand_op(rng, r, max_order=3, max_terms=4)]
        combo = DiffOp.zero(r)
        for g in gens:
            combo = combo + slow_mul(rand_op(rng, r, max_order=1, max_terms=2,
                                             max_deg=1, zero_ok=True), g)
        queries.append(combo)
        for p in queries:
            for tail in (False, True):
                tr = reduce(p, f, tail=tail)
                assert _trace(tr) == naive_reduce(p, gens, tail=tail)
                rebuilt = tr.remainder
                for c, g in zip(tr.cofactors, gens):
                    rebuilt = rebuilt + slow_mul(c, g)
                assert rebuilt == p


def test_reduce_after_an_append_matches_a_fresh_generator_set():
    # the append changes the participants, the cone base and its row at
    # the visited exponent (1,): x1*d1 + 1 alone, then with d1 as well
    r = ring1()
    gs = GeneratorSet([parse_op(r, "x1*d1 + 1")])
    queries = [parse_op(r, "x1*d1"), parse_op(r, "d1 + x1")]
    before = [_trace(reduce(p, gs)) for p in queries]
    assert before[0][2] == 1 and not before[1][1].is_zero()
    gs._append(parse_op(r, "d1"))
    fresh = GeneratorSet(gs.ops)
    for p in queries:
        assert _trace(reduce(p, gs)) == _trace(reduce(p, fresh))
    assert reduce(queries[1], gs).remainder == parse_op(r, "x1")
    # the same on seeded sets, appending an operator below a visited exponent
    rng = random.Random(62)
    for k in range(30):
        r = ring2(m=k % 2)
        gs = GeneratorSet([rand_op(rng, r, max_order=2, max_terms=2, max_deg=1)
                           for _ in range(rng.randint(1, 2))])
        queries = [rand_op(rng, r, max_order=3, max_terms=4) for _ in range(3)]
        for p in queries:
            reduce(p, gs)
        # the memos are keyed by packed exponents
        alpha = rng.choice(sorted(map(gs._lay.unpack, gs._idxs)))
        shift = tuple(rng.randint(0, a) for a in alpha)
        extra = rand_op(rng, r, max_order=0, max_terms=2, max_deg=1)
        gs._append(DiffOp.term(r, shift, 1) + extra)
        fresh = GeneratorSet(gs.ops)
        for p in queries:
            assert _trace(reduce(p, gs)) == _trace(reduce(p, fresh))


# -- lcm targets and S-operators ----------------------------------------------


def test_lcm_targets_running_pair():
    r, p1, p2 = example6_ops()
    assert set(lcm_targets(GeneratorSet([p1, p2]))) == {(1, 0), (0, 1), (1, 1)}


def test_lcm_targets_degenerate():
    r, p1, _ = example6_ops()
    assert lcm_targets(GeneratorSet([p1])) == [(1, 0)]
    assert lcm_targets(GeneratorSet([p1, p1 + p1])) == [(1, 0)]


def test_s_delta_running_pair_exact():
    r, p1, p2 = example6_ops()
    f = GeneratorSet([p1, p2])
    sops = s_delta_operators(f, (1, 1))
    assert len(sops) == 1
    s = sops[0]
    x1, x2 = r.x(0), r.x(1)
    assert s.lam == (x2 - x1, -x1)
    d = r.d
    expect = (r.embed(x2 - x1) * d(1) * p1) - (r.embed(x1) * d(0) * p2)
    assert s.operator == expect
    assert s.operator == parse_op(
        r, "(x1*x2 - x1^2)*d2^2 + (x1*x2 - x1^2 + x1)*d2 + x1*d1")


def test_s_delta_commuting_derivations():
    r = ring2()
    f = GeneratorSet([r.d(0), r.d(1)])
    sops = s_delta_operators(f, (1, 1))
    assert len(sops) == 1
    assert sops[0].lam == (Poly.one(2), -Poly.one(2))
    assert sops[0].operator.is_zero()


def test_s_delta_euler_pair():
    # F = {x1 d1, x1 d2}: lambda (1,-1), S = d2 x1 d1 - d1 x1 d2 = -d2
    r = ring2()
    a = parse_op(r, "x1*d1")
    b = parse_op(r, "x1*d2")
    f = GeneratorSet([a, b])
    sops = s_delta_operators(f, (1, 1))
    assert len(sops) == 1
    assert sops[0].lam == (Poly.one(2), -Poly.one(2))
    expect = r.d(1) * a - r.d(0) * b
    assert sops[0].operator == expect == parse_op(r, "0 - d2")


def test_s_delta_rejects_non_target():
    r, p1, p2 = example6_ops()
    with pytest.raises(ValueError):
        s_delta_operators(GeneratorSet([p1, p2]), (2, 2))


def _lcm_closure_brute(exps):
    """The lcm of every nonempty subset of the exponents."""
    out = set()
    for mask in range(1, 1 << len(exps)):
        chosen = [e for k, e in enumerate(exps) if mask >> k & 1]
        out.add(tuple(max(col) for col in zip(*chosen)))
    return out


def _target_sets(seed):
    """Seeded generator sets over 1-3 derivations, some with repeated
    leading exponents (scalar and coefficient multiples of a member)."""
    rng = random.Random(seed)
    for k in range(40):
        r = RingSpec(1 + k % 3, k % 2)
        ops = [rand_op(rng, r) for _ in range(rng.randint(1, 4))]
        if k % 4 == 0:
            ops.append(ops[0] + ops[0])
        if k % 4 == 1:
            ops.append(r.embed(r.x(0)) * ops[-1])
        yield GeneratorSet(ops)


def test_lcm_targets_match_brute_force_closure():
    for f in _target_sets(61):
        got = lcm_targets(f)
        assert set(got) == _lcm_closure_brute(f.exps)
        assert got == sorted(set(got), key=f.ring.order_delta.key)


def test_s_delta_rejects_exactly_the_non_targets_in_a_box():
    for f in _target_sets(67):
        closure = _lcm_closure_brute(f.exps)
        top = tuple(max(col) + 1 for col in zip(*f.exps))
        for alpha in itertools.product(*(range(t + 1) for t in top)):
            if alpha in closure:
                assert all(s.alpha == alpha for s in s_delta_operators(f, alpha))
            else:
                with pytest.raises(ValueError, match="is not an lcm target"):
                    s_delta_operators(f, alpha)
        with pytest.raises(ValueError, match="is not an lcm target"):
            s_delta_operators(f, top + (0,))


def test_s_delta_degree_drop_fuzz():
    rng = random.Random(53)
    r = ring2()
    o = r.order_delta
    for _ in range(30):
        f = GeneratorSet([rand_op(rng, r) for _ in range(rng.randint(2, 3))])
        for alpha in lcm_targets(f):
            for s in s_delta_operators(f, alpha):
                combo = DiffOp.zero(r)
                for lam, (e, g) in zip(s.lam, zip(f.exps, f)):
                    if lam.is_zero():
                        continue
                    shift = tuple(a - b for a, b in zip(alpha, e))
                    combo = combo + DiffOp.term(r, shift, lam) * g
                assert combo == s.operator
                if not s.operator.is_zero():
                    assert o.compare(s.operator.exp_delta(), alpha) < 0


# -- the base criterion --------------------------------------------------------


def test_running_pair_is_delta_base():
    _, p1, p2 = example6_ops()
    assert is_delta_groebner(GeneratorSet([p1, p2]))


def test_running_pair_variants():
    # b any element of Q[x1], d any rational
    for b, d in (("0", "5"), ("x1^2 - 2*x1", "1/3"), ("7/2*x1", "0 - 2")):
        _, p1, p2 = example6_ops(b=b, d=d)
        assert is_delta_groebner(GeneratorSet([p1, p2]))


def test_running_pair_bad_parameters_fail():
    # b depending on x2 breaks the criterion
    _, p1, p2 = example6_ops(b="x2")
    assert not is_delta_groebner(GeneratorSet([p1, p2]))


def test_parameter_ring_variant():
    # three ring variables, two derivations: b in Q[x1,x3], d in Q[x3]
    ring = RingSpec(2, 1)
    _, p1, p2 = example6_ops(ring=ring, b="x1*x3 + x1", d="x3^2 - 4")
    assert is_delta_groebner(GeneratorSet([p1, p2]))


def test_singletons_are_bases_fuzz():
    rng = random.Random(54)
    r = ring2()
    for _ in range(20):
        assert is_delta_groebner(GeneratorSet([rand_op(rng, r)]))


# -- completion ----------------------------------------------------------------


def test_complete_keeps_certified_input():
    _, p1, p2 = example6_ops()
    b = complete([p1, p2])
    assert b.ops == (p1, p2)
    assert b.stats["additions"] == 0


def test_complete_constant_coefficient_pair():
    r = ring2()
    b = complete([r.d(0), r.d(1)])
    assert b.ops == (r.d(0), r.d(1))
    assert b.stair == ((0, 1), (1, 0))


def test_complete_euler_and_variable():
    r = ring1()
    p1 = parse_op(r, "x1*d1 + 1")
    p2 = parse_op(r, "x1")
    b = complete([p1, p2])
    assert is_delta_groebner(b.genset)
    assert b.ops == (p1, p2)
    assert b.stair == ((0,),)


def test_complete_adds_new_generator():
    r = ring2()
    p1 = parse_op(r, "x1*d1 + d2")
    p2 = parse_op(r, "x1")
    b = complete([p1, p2])
    assert b.stats["additions"] == 1
    assert b.ops[2] == parse_op(r, "d2 - 1")
    assert b.stair == ((0, 0),)
    assert is_delta_groebner(b.genset)
    # the addition lies in the ideal: rebuild it from the inputs
    ok, tr = member(b.ops[2], b)
    assert ok


def test_complete_is_closure_fuzz():
    rng = random.Random(55)
    r = ring2()
    for _ in range(10):
        gens = [rand_op(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(2)]
        b = complete(gens)
        assert is_delta_groebner(b.genset)
        again = complete(list(b.ops))
        assert again.ops == b.ops
        assert again.stats["additions"] == 0


def test_complete_cap_trips():
    r = ring2()
    with pytest.raises(CompletionCapExceeded):
        complete([parse_op(r, "x1*d1 + d2"), parse_op(r, "x1")], cap=0)


def test_complete_rejects_negative_cap_before_any_work():
    r = ring2()
    needs_one = [parse_op(r, "x1*d1 + d2"), parse_op(r, "x1")]
    _, p1, p2 = example6_ops()
    # with or without an addition to make, and before the input is read
    for gens in (needs_one, [p1, p2], []):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            complete(gens, cap=-1)


def test_complete_rejects_empty_and_zero():
    r = ring2()
    with pytest.raises(ValueError):
        complete([])
    with pytest.raises(ValueError):
        complete([DiffOp.zero(r)])


# -- cone ideals shared across rounds -------------------------------------------


def _completion_inputs():
    """Fixed pairs plus seeded random inputs, several of which grow."""
    out = [(example6_ops(b="1")[1:], 8), (example6_ops()[1:], 8),
           (cone_example_ops()[1:], 3),
           ((parse_op(ring2(), "x1*d1 + d2"), parse_op(ring2(), "x1")), 8)]
    rng = random.Random(57)
    for k in range(24):
        r = ring2(m=k % 2)
        gens = tuple(rand_op(rng, r, max_order=2, max_terms=2, max_deg=1)
                     for _ in range(rng.randint(1, 2)))
        out.append((gens, 4))
    return out


def _outcome(run):
    try:
        return run()
    except CompletionCapExceeded as exc:
        return str(exc)


def test_complete_matches_rebuild_every_round_oracle():
    grew = 0
    for gens, cap in _completion_inputs():
        want = _outcome(lambda: rebuild_complete(gens, cap))
        got = _outcome(lambda: complete(gens, cap=cap))
        if not isinstance(want, str):
            got = (got.ops, got.stair, got.stats)
            grew += want[2]["additions"] > 0
        assert got == want
    assert grew >= 3


def test_complete_counters_match_the_reductions_it_runs(monkeypatch):
    real = deltabasis.reduce
    steps = []

    def spy(*args, **kw):
        tr = real(*args, **kw)
        steps.append(tr.steps)
        return tr

    monkeypatch.setattr(deltabasis, "reduce", spy)
    grew = 0
    for gens, cap in _completion_inputs():
        steps.clear()
        try:
            stats = complete(gens, cap=cap).stats
        except CompletionCapExceeded:
            continue
        assert stats["reductions"] == len(steps)
        assert stats["reduction_steps"] == sum(steps)
        assert stats["rounds"] == stats["additions"] + 1
        grew += stats["additions"] > 0
    assert grew >= 3


def test_complete_computes_each_cone_base_once(monkeypatch):
    real = groebner._tracked_groebner
    seen = []

    def counting(gens, order):
        seen.append(tuple(gens))
        return real(gens, order)

    monkeypatch.setattr(groebner, "_tracked_groebner", counting)
    for pair, cap in [(example6_ops(b="1")[1:], 8), (cone_example_ops()[1:], 3)]:
        seen.clear()
        try:
            complete(pair, cap=cap)
        except CompletionCapExceeded:
            pass
        assert seen
        assert len(seen) == len(set(seen))


def test_syzygies_with_precomputed_base_fuzz():
    rng = random.Random(59)
    o = MonomialOrder("deglex")
    for _ in range(40):
        nv = rng.randint(1, 3)
        gens = [rand_poly(rng, nv, max_deg=2, max_terms=3)
                for _ in range(rng.randint(1, 4))]
        ideal = PolyIdeal(tuple(gens), o)
        base = (ideal.groebner, ideal.expression_matrix)
        assert groebner.syzygies(gens, o, _basis=base) == groebner.syzygies(gens, o)


def test_complete_keeps_only_the_stair_cones():
    for gens, cap in _completion_inputs():
        try:
            b = complete(gens, cap=cap)
        except CompletionCapExceeded:
            continue
        gs = b.genset
        tops = [max(pure) for i in range(b.ring.n)
                if (pure := [e for e in gs.exps if not any(e[:i] + e[i + 1:])])]
        assert set(gs._cones) == {gs.participants(a) for a in b.stair + tuple(tops)}
        assert all(b.cones[a] is gs.cone_ideal(a) for a in b.stair)


def test_complete_leaves_the_callers_generator_set_unchanged():
    grew = 0
    for gens, cap in _completion_inputs():
        gs = GeneratorSet(gens)
        for alpha in lcm_targets(gs):
            gs.cone_ideal(alpha)
        ops, exps, cones = gs.ops, gs.exps, dict(gs._cones)
        try:
            b = complete(gs, cap=cap)
        except CompletionCapExceeded:
            b = None
        assert gs.ops == ops and gs.exps == exps
        assert gs._cones.keys() == cones.keys()
        assert all(gs._cones[k] is v for k, v in cones.items())
        if b is not None:
            assert b.genset is not gs
            grew += len(b.ops) > len(ops)
    assert grew


# -- stair and cones of the ideal ---------------------------------------------


def test_minimal_stair_absorbs():
    o = MonomialOrder("deglex")
    assert minimal_stair([(1, 0), (2, 0)], o) == ((1, 0),)
    assert minimal_stair([(1, 0), (0, 1), (1, 1)], o) == ((0, 1), (1, 0))


def test_delta_stair_running_pair():
    _, p1, p2 = example6_ops()
    b = complete([p1, p2])
    assert set(delta_stair(b)) == {(1, 0), (0, 1)}


def test_cone_ideals_of_ideal():
    r, p1, p2 = example6_ops()
    b = complete([p1, p2])
    o = r.x_order()
    assert ideal_eq(cone_ideal_of_ideal((1, 0), b), [r.x(0)], o)
    assert ideal_eq(cone_ideal_of_ideal((0, 1), b), [r.x(1) - r.x(0)], o)
    assert cone_ideal_of_ideal((0, 0), b).is_zero()


# -- membership ----------------------------------------------------------------


def test_member_positive_fuzz():
    rng = random.Random(56)
    r, p1, p2 = example6_ops()
    b = complete([p1, p2])
    for _ in range(20):
        q1 = rand_op(rng, r)
        q2 = rand_op(rng, r)
        p = q1 * p1 + q2 * p2
        ok, tr = member(p, b)
        assert ok
        rebuilt = tr.remainder
        for c, g in zip(tr.cofactors, b.ops):
            rebuilt = rebuilt + c * g
        assert rebuilt == p


def test_complete_returns_empty_memos_that_member_fills():
    r, p1, p2 = example6_ops()
    b = complete([p1, p2])
    gs = b.genset
    assert gs._idxs == {} and gs._rows == {} and gs._sops == {}
    ok, tr = member(r.d(1) * p1 + p2, b)
    assert ok and tr.steps >= 1
    assert gs._idxs and gs._rows and gs._sops == {}
    # keyed by the packed exponent, which is each built row's packed lead
    assert all(h is None or h._exp() == alpha
               for alpha, hs in gs._rows.items() for h in hs)


def test_member_negative_unit():
    r, p1, p2 = example6_ops()
    b = complete([p1, p2])
    ok, tr = member(r.embed(1), b)
    assert not ok and tr is None


def test_member_zero():
    r, p1, p2 = example6_ops()
    b = complete([p1, p2])
    ok, tr = member(DiffOp.zero(r), b)
    assert ok and tr.remainder.is_zero()


def test_certified_base_reduces_ideal_elements_to_zero_fuzz():
    # criterion equivalence, sampled: certified base + random combination
    rng = random.Random(57)
    r = ring2()
    for _ in range(8):
        gens = [rand_op(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(2)]
        b = complete(gens)
        for _ in range(5):
            combo = DiffOp.zero(r)
            for g in b.ops:
                combo = combo + rand_op(rng, r, max_order=1, max_terms=2,
                                        max_deg=1, zero_ok=True) * g
            assert reduce(combo, b.genset).remainder.is_zero()


def test_minimal_stair_matches_brute_force_with_duplicates():
    rng = random.Random(91)
    for _ in range(200):
        k = rng.randint(1, 3)
        o = MonomialOrder(rng.choice(["lex", "deglex", "degrevlex"]))
        exps = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, 8))]
        exps += exps[: rng.randint(0, len(exps))]
        rng.shuffle(exps)
        uniq = set(exps)
        antichain = [e for e in uniq if not any(d != e and all(
            x <= y for x, y in zip(d, e)) for d in uniq)]
        assert minimal_stair(exps, o) == tuple(sorted(antichain, key=o.key))
        assert minimal_stair(iter(exps), o) == minimal_stair(exps, o)


def test_reduce_without_lift_gives_the_same_remainder_and_steps_fuzz():
    rng = random.Random(97)
    for gens, cap in _completion_inputs():
        try:
            ops = complete(gens, cap=cap).ops
        except CompletionCapExceeded:
            ops = gens
        r = ops[0].ring
        for f in (GeneratorSet(gens), GeneratorSet(ops)):
            for _ in range(4):
                p = rand_op(rng, r, max_order=3, max_terms=3, max_deg=2)
                for tail in (False, True):
                    tr = reduce(p, f, tail=tail)
                    lean = reduce(p, f, tail=tail, _lift=False)
                    assert lean.cofactors is None
                    assert (lean.remainder, lean.steps) == (tr.remainder, tr.steps)


def test_the_base_check_lifts_no_cofactors_and_member_does(monkeypatch):
    calls = []
    lift = PolyIdeal.lift

    def spy(self, quotients):
        calls.append(self)
        return lift(self, quotients)

    monkeypatch.setattr(PolyIdeal, "lift", spy)
    steps = 0
    for gens, cap in _completion_inputs():
        try:
            b = complete(gens, cap=cap)
        except CompletionCapExceeded:
            continue
        steps += b.stats["reduction_steps"]
        assert calls == []
        combo = DiffOp.zero(b.ring)
        for g in gens:
            combo = combo + b.ring.d(0) * g
        ok, tr = member(combo, b)
        assert ok and (calls or not tr.steps)
        calls.clear()
    assert steps


def test_s_operators_after_appends_match_a_fresh_generator_set_fuzz():
    # every target's S-operators are memoized before each append, so an
    # entry the append should drop, or a lam left one entry short, shows
    rng = random.Random(101)
    checked = 0
    for k in range(16):
        r = ring2(m=k % 2)
        gs = GeneratorSet([rand_op(rng, r, max_order=2, max_terms=2, max_deg=1)])
        for _ in range(3):
            for alpha in lcm_targets(gs):
                s_delta_operators(gs, alpha)
            gs._append(rand_op(rng, r, max_order=2, max_terms=2, max_deg=1))
            fresh = GeneratorSet(gs.ops)
            for alpha in lcm_targets(gs):
                got = s_delta_operators(gs, alpha)
                assert got == s_delta_operators(fresh, alpha)
                assert got is not s_delta_operators(gs, alpha)
                checked += len(got)
    assert checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[0].operator = DiffOp.zero(r)


# -- the integer S-operator build --------------------------------------------

LIMIT = 2 ** 31  # total degrees stay below it


def _fractional_op(rng, ring):
    """A random operator whose coefficients are scaled by signed
    fractions such as 1/2, each by its own."""
    op = rand_op(rng, ring, max_order=2, max_terms=3, max_deg=1)
    return DiffOp(ring, {e: c * Fraction(rng.choice([-1, 1, 3]), rng.choice([1, 2, 4, 6]))
                         for e, c in op.terms.items()})


def test_s_operators_match_the_slow_product_oracle_fuzz():
    # each S-operator, summed in one integer pass, against
    # sum_k lam_k * (d^(alpha - e_k) * F_k) through slow_mul; the
    # fractional coefficients make the pass rescale to the lcm of the
    # denominators, which the benchmark's inputs never need
    rng = random.Random(103)
    built = fractional = 0
    for k in range(54):
        r = packed_ring(k, m=k // 9 % 2)
        f = GeneratorSet([_fractional_op(rng, r) for _ in range(rng.randint(2, 4))])
        for alpha in lcm_targets(f):
            idxs = f.participants(alpha)
            for s in s_delta_operators(f, alpha):
                combo = DiffOp.zero(r)
                for i, (lam, e, g) in enumerate(zip(s.lam, f.exps, f)):
                    if i not in idxs:
                        assert lam.is_zero()
                    elif lam:
                        shift = tuple(a - b for a, b in zip(alpha, e))
                        combo = combo + slow_mul(DiffOp.term(r, shift, lam), g)
                assert s.operator == combo
                assert_canonical_op(s.operator)
                built += 1
                fractional += any(c.denominator > 1 for i in idxs if s.lam[i]
                                  for q in f[i].terms.values() for c in q.terms.values())
    assert built > 60 and fractional > 30


def test_s_operators_keep_the_degree_limit_of_d_keys():
    # under lex d1 leads d1 + d2^(2^31 - 1), so the target (1, 1) shifts
    # it by d2 past the limit; one step below, the sum is built
    r = RingSpec(2, order_delta=MonomialOrder("lex"))
    d1, d2 = r.d(0), r.d(1)
    f = GeneratorSet([d1 + DiffOp.term(r, (0, LIMIT - 1), 1), d2])
    with pytest.raises(ValueError, match=r"^a total degree in 2 variables reaches the limit "
                                         r"2147483648$"):
        s_delta_operators(f, (1, 1))
    f = GeneratorSet([d1 + DiffOp.term(r, (0, LIMIT - 2), 1), d2])
    (s,) = s_delta_operators(f, (1, 1))
    assert s.operator.terms == {(0, LIMIT - 1): Poly.one(2) * s.lam[0].lc(r.x_order())}


def test_s_operators_keep_the_degree_limit_of_x_degrees():
    # the syzygy of the leads x1 and x2 has lam_1 = +-x2, which times
    # the tail x2^(2^31 - 1) of F_1 reaches the limit in the 2 ring
    # variables (the d-keys have 1); a tail one degree lower is built
    r = RingSpec(1, 1)
    x1, x2, d1 = r.embed(r.x(0)), r.embed(r.x(1)), r.d(0)
    for top, raises in ((LIMIT - 1, True), (LIMIT - 2, False)):
        f = GeneratorSet([x1 * d1 + r.embed(Poly.monomial(2, (0, top))), x2 * d1])
        if raises:
            with pytest.raises(ValueError, match=r"^a total degree in 2 variables reaches "
                                                 r"the limit 2147483648$"):
                s_delta_operators(f, (1,))
        else:
            (s,) = s_delta_operators(f, (1,))
            assert s.operator == slow_mul(r.embed(s.lam[0]), f[0]) + slow_mul(
                r.embed(s.lam[1]), f[1])


def test_a_one_participant_target_has_no_s_operators_and_builds_no_cone():
    # one nonzero coefficient has no syzygies: the target answers []
    # before its cone is built, and the cone built later is the one a
    # generator set that never asked for S-operators builds
    rng = random.Random(107)
    single = 0
    for k in range(40):
        r = packed_ring(k, m=k % 2)
        ops = [rand_op(rng, r) for _ in range(rng.randint(1, 3))]
        f, fresh = GeneratorSet(ops), GeneratorSet(ops)
        for alpha in lcm_targets(f):
            if len(f.participants(alpha)) != 1:
                continue
            single += 1
            cones = dict(f._cones)
            assert s_delta_operators(f, alpha) == []
            assert f._cones == cones
            got, want = f.cone_ideal(alpha), fresh.cone_ideal(alpha)
            assert got.generators == want.generators
            assert (got.groebner, got.expression_matrix) == (
                want.groebner, want.expression_matrix)
    assert single > 40
    r, p1, p2 = example6_ops()
    f = GeneratorSet([p1, p2])
    assert s_delta_operators(f, (1, 0)) == [] and not f._cones
    assert f.cone_ideal((1, 0)).groebner == (r.x(0),)
    assert f.cone_ideal((1, 0)).expression_matrix == ((Poly.one(2),),)


# -- an independent certificate ----------------------------------------------

def test_independent_checker_certifies_sampled_pool_bases():
    # every converged base passes, and drops out when its last addition
    # is removed: the round before that addition failed the criterion
    bases = additions = 0
    for gens, cap in complete_pool_sample(300, 25):
        try:
            b = complete(gens, cap=cap)
        except CompletionCapExceeded:
            continue
        assert certify_delta_oracle(b.ops, gens) is None
        bases += 1
        if b.stats["additions"]:
            additions += 1
            assert certify_delta_oracle(b.ops[:-1], gens) is not None
    assert bases > 250 and additions > 20


def test_independent_checker_rejects_a_dropped_generator():
    r = ring2()
    gens = [parse_op(r, "x1*d1 + d2"), parse_op(r, "x1")]
    b = complete(gens, cap=8)
    assert [p.to_str() for p in b.ops[2:]] == ["(1)*d2 + (-1)"]
    assert certify_delta_oracle(b.ops, gens) is None
    assert "S-operator at (1, 0)" in certify_delta_oracle(b.ops[:2], gens)
    # x1 and the addition are a base of the same ideal; x1 alone is not
    assert certify_delta_oracle(b.ops[1:], gens) is None
    assert certify_delta_oracle(b.ops[1:2], gens) == "an input does not reduce to zero"


def test_independent_checker_rejects_corrupted_cone_data():
    r, p1, p2 = example6_ops()
    ops = [p1, p2]
    assert certify_delta_oracle(ops, ops) is None

    def cone_ideal_data(ops, idxs):
        ideal = PolyIdeal([ops[i].c_delta() for i in idxs], r.x_order())
        return list(ideal.groebner), [list(row) for row in ideal.expression_matrix]

    def bad_entry(ops, idxs):
        G, A = cone_ideal_data(ops, idxs)
        A[-1][-1] = A[-1][-1] + Poly.monomial(r.nvars, (1, 0))
        return G, A

    def dropped_element(ops, idxs):
        G, A = cone_ideal_data(ops, idxs)
        return G[:-1], A[:-1]

    assert certify_delta_oracle(ops, ops, cone_ideal_data) is None
    assert "expression matrix" in certify_delta_oracle(ops, ops, bad_entry)
    assert "reduced base" in certify_delta_oracle(ops, ops, dropped_element)
