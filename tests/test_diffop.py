"""Operators: normal form, Leibniz product, delta invariants."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from diffgb import DiffOp, Poly, RingSpec, reduce
from helpers import (
    assert_canonical_op,
    cone_example_ops,
    example6_ops,
    integer_primitive,
    naive_reduce,
    packed_ring,
    parse_op,
    rand_op,
    ring1,
    ring2,
    slow_mul,
)


def test_commutation_relation():
    r = ring1()
    x1, d1 = r.embed(r.x(0)), r.d(0)
    assert d1 * x1 == x1 * d1 + 1
    assert (d1 * x1 - x1 * d1) == DiffOp.term(r, (0,), Poly.one(1))


def test_mixed_variables_commute():
    r = ring2()
    x2, d1 = r.embed(r.x(1)), r.d(0)
    assert d1 * x2 == x2 * d1
    assert r.d(0) * r.d(1) == r.d(1) * r.d(0)


def test_constants_pass_through():
    r = ring2()
    p = r.d(0) ** 2 * r.d(1)
    assert p * 5 == 5 * p
    assert (p * Fraction(1, 2)) * 2 == p


def test_squared_euler_operator():
    r = ring1()
    x1, d1 = r.embed(r.x(0)), r.d(0)
    e = x1 * d1
    expect = parse_op(r, "x1^2*d1^2 + x1*d1")
    assert e * e == expect
    assert slow_mul(e, e) == expect


def test_addition_collects_exponents():
    r = ring2()
    a = parse_op(r, "x1*d1")
    b = parse_op(r, "x1*d2")
    assert len((a + b).terms) == 2
    c = parse_op(r, "(x2 - x1)*d1")
    assert a + c == parse_op(r, "x2*d1")
    assert (a + (-a)).is_zero()


def test_product_against_single_step_oracle_fuzz():
    rng = random.Random(41)
    for _ in range(40):
        r = ring2() if rng.random() < 0.7 else ring1()
        p = rand_op(rng, r)
        q = rand_op(rng, r)
        assert p * q == slow_mul(p, q)


def test_product_associative_fuzz():
    rng = random.Random(42)
    r = ring2()
    for _ in range(25):
        p, q, s = (rand_op(rng, r, max_order=1, max_terms=2, max_deg=1)
                   for _ in range(3))
        assert (p * q) * s == p * (q * s)


def test_left_distributivity_fuzz():
    rng = random.Random(43)
    r = ring2()
    for _ in range(25):
        p, q, s = (rand_op(rng, r) for _ in range(3))
        assert p * (q + s) == p * q + p * s
        assert (p + q) * s == p * s + q * s


def test_newton_diagram():
    r, p1, _ = example6_ops()
    assert p1.support() == {(1, 0), (0, 1), (0, 0)}
    assert r.embed(5).support() == {(0, 0)}
    assert (r.d(0) ** 3).support() == {(3, 0)}
    with pytest.raises(ValueError):
        DiffOp.zero(r).support()


def test_delta_invariants_running_pair():
    r, p1, p2 = example6_ops()
    x1 = r.x(0)
    x2 = r.x(1)
    assert p1.exp_delta() == (1, 0)
    assert p1.c_delta() == x1
    assert p2.exp_delta() == (0, 1)
    assert p2.c_delta() == x2 - x1
    it = p1.in_delta()
    assert it.exponent == (1, 0) and it.coeff == x1


def test_delta_invariants_cone_pair():
    r, p1, p2 = cone_example_ops()
    assert p1.exp_delta() == (2, 0)
    assert p2.exp_delta() == (0, 2)


def test_zero_operator_has_no_invariants():
    r = ring2()
    z = DiffOp.zero(r)
    for f in (z.exp_delta, z.c_delta, z.in_delta):
        with pytest.raises(ValueError):
            f()


def test_product_law_for_exponents_fuzz():
    rng = random.Random(44)
    for kind in ("deglex", "lex", "degrevlex"):
        r = ring2(order=kind)
        for _ in range(30):
            p = rand_op(rng, r)
            q = rand_op(rng, r)
            pq = p * q
            assert pq.exp_delta() == tuple(
                a + b for a, b in zip(p.exp_delta(), q.exp_delta()))
            assert pq.c_delta() == p.c_delta() * q.c_delta()


def test_commutator_drops_fuzz():
    rng = random.Random(45)
    r = ring2()
    o = r.order_delta
    for _ in range(40):
        p = rand_op(rng, r)
        q = rand_op(rng, r)
        comm = p * q - q * p
        if comm.is_zero():
            continue
        top = tuple(a + b for a, b in zip(p.exp_delta(), q.exp_delta()))
        assert o.compare(comm.exp_delta(), top) < 0


def test_sum_laws():
    r = ring2()
    o = r.order_delta
    rng = random.Random(46)
    for _ in range(40):
        p = rand_op(rng, r)
        q = rand_op(rng, r)
        s = p + q
        ep, eq = p.exp_delta(), q.exp_delta()
        if ep != eq:
            assert s.exp_delta() == max(ep, eq, key=o.key)
        elif (p.c_delta() + q.c_delta()).is_zero():
            assert s.is_zero() or o.compare(s.exp_delta(), ep) < 0
        else:
            assert s.exp_delta() == ep
            assert s.c_delta() == p.c_delta() + q.c_delta()


def test_parameter_variables_stay_inert():
    r = RingSpec(1, 1)  # d/dx1 only, x2 is a parameter
    x2 = r.embed(r.x(1))
    d1 = r.d(0)
    assert d1 * x2 == x2 * d1
    p = (x2 * d1) * (x2 * d1)
    assert p == parse_op(r, "x2^2*d1^2")


def test_order_total():
    r, p1, p2 = example6_ops()
    assert p1.order_total() == 1
    assert (p1 * p2).order_total() == 2
    assert r.embed(7).order_total() == 0


def test_primitive_normalization():
    r = ring1()
    p = parse_op(r, "2/3*x1*d1 + 4/3")
    prim = p.primitive()
    assert prim == parse_op(r, "x1*d1 + 2")
    assert (-p).primitive() == prim
    assert DiffOp.zero(r).primitive().is_zero()


def test_ring_mismatch_rejected():
    a = ring2()
    b = RingSpec(2, 1)
    with pytest.raises(ValueError):
        a.d(0) + b.d(0)
    with pytest.raises(ValueError):
        a.d(0) * b.d(0)


def test_equality_with_other_values():
    a = ring2()
    assert a.embed(1) == 1 and a.embed(Fraction(1, 2)) == Fraction(1, 2)
    assert a.embed(a.x(0)) == a.x(0)
    assert a.d(0) != 1 and a.d(0) != a.x(0)
    # an operator of another ring is unequal, not an error
    b = RingSpec(2, 1)
    assert a.d(0) != b.d(0) and not (a.d(0) == b.d(0))
    assert a.d(0).__eq__("d1") is NotImplemented
    assert a.d(0) != "d1"


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(0)
    with pytest.raises(ValueError):
        RingSpec(2, names=("x1",))
    with pytest.raises(ValueError):
        RingSpec(1, names=("a",), dnames=("a",))


def test_display_form():
    r, p1, p2 = example6_ops()
    assert p1.to_str() == "(x1)*d1 + (x1)*d2 + (x1)"
    assert p2.to_str() == "(x2 - x1)*d2 + (-1)"
    assert DiffOp.zero(r).to_str() == "0"
    assert (r.d(0) ** 2 * r.d(1)).to_str() == "(1)*d1^2*d2"


def test_power():
    r = ring1()
    d1 = r.d(0)
    assert d1 ** 0 == r.embed(1)
    assert d1 ** 3 == d1 * d1 * d1
    with pytest.raises(ValueError):
        d1 ** -1


def test_primitive_integer_content_one_positive_lead_fuzz():
    rng = random.Random(47)
    for _ in range(150):
        r = ring2(rng.choice(["lex", "deglex"]), m=rng.randint(0, 1))
        p = rand_op(rng, r) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        out = p.primitive()
        assert integer_primitive(c for q in out.terms.values() for c in q.terms.values())
        # lead positive under the d-order, then deglex on the coefficient
        assert out.c_delta().lc(r.x_order()) > 0
        scale = out.c_delta().lc(r.x_order()) / p.c_delta().lc(r.x_order())
        assert out == p * scale
    assert DiffOp.zero(ring1()).primitive().is_zero()


def test_leibniz_product_drops_cancelled_terms():
    r = ring1()
    d1 = r.d(0)
    # d1 * (x1 d1 - 1) = x1 d1^2 + d1 - d1: the d1 accumulator cancels
    prod = d1 * parse_op(r, "x1*d1 - 1")
    assert prod.terms == {(2,): r.x(0)}
    assert_canonical_op(prod)


def test_arithmetic_results_are_canonical_fuzz():
    rng = random.Random(63)
    for _ in range(100):
        r = ring2(m=rng.randint(0, 1)) if rng.random() < 0.7 else ring1()
        p = rand_op(rng, r, zero_ok=True)
        q = rand_op(rng, r, zero_ok=True)
        prod = p * q
        assert prod == slow_mul(p, q)
        for op in (prod, q * p - prod, p + q, p - q, -p, p - p, p + (-p),
                   (p + q) - q, 3 * p, p * Fraction(-1, 2), p + r.x(0)):
            assert_canonical_op(op)


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), Fraction(1), "1"])
def test_d_exponents_that_are_not_ints_are_refused(bad):
    with pytest.raises(ValueError, match="bad d-exponent"):
        DiffOp(RingSpec(1), {(bad,): 1})
    with pytest.raises(ValueError, match="bad d-exponent"):
        DiffOp.term(RingSpec(2), (0, bad), Poly.one(2))


# -- packed d-exponents -------------------------------------------------------

LIMIT = 2 ** 31  # total d-degrees stay below it


def test_packed_arithmetic_and_reduce_match_the_tuple_oracles_fuzz():
    # +, -, * and reduce on packed d-keys against oracles that read only
    # the tuple view: the validating constructor sums repeated tuples,
    # slow_mul moves one derivation at a time, naive_reduce subtracts
    # one such product per cofactor
    rng = random.Random(90)
    for k in range(72):
        r = packed_ring(k, m=k // 9 % 2)
        order = r.order_delta
        p, q = (rand_op(rng, r, max_order=2, max_terms=3, max_deg=1, zero_ok=True)
                for _ in range(2))
        assert p + q == DiffOp(r, [*p.terms.items(), *q.terms.items()])
        assert p - q == DiffOp(r, [*p.terms.items(), *((e, -c) for e, c in q.terms.items())])
        prod = p * q
        assert prod == slow_mul(p, q)
        for op in (p + q, p - q, prod):
            assert_canonical_op(op)
            if op:
                assert op.exp_delta() == order.max(op.terms)
                assert op.c_delta() == op.terms[op.exp_delta()]
                assert op.support() == set(op.terms)
                assert op.order_total() == max(map(sum, op.terms))
        gens = [rand_op(rng, r, max_order=2, max_terms=2, max_deg=1)
                for _ in range(rng.randint(1, 3))]
        for tail in (False, True):
            tr = reduce(prod, gens, tail=tail)
            assert (list(tr.cofactors), tr.remainder, tr.steps) == naive_reduce(
                prod, gens, tail=tail)


def test_terms_view_rejects_item_assignment():
    r, p1, _ = example6_ops()
    with pytest.raises(TypeError):
        p1.terms[(2, 0)] = r.x(0)
    with pytest.raises(TypeError):
        del p1.terms[(1, 0)]
    assert p1.terms == {(1, 0): r.x(0), (0, 1): r.x(0), (0, 0): r.x(0)}


def test_operators_pickle_and_copy_after_their_views_are_read():
    # the tuple views are mappingproxies, which do not pickle; a copy
    # rebuilds them on demand
    r, p1, p2 = example6_ops(ring2("lex"))
    op = p1 * p2
    str(op), op.terms, [c.terms for c in op.terms.values()]
    for other in (pickle.loads(pickle.dumps(op)), copy.copy(op), copy.deepcopy(op)):
        assert other == op and hash(other) == hash(op)
        assert other.terms == op.terms and other.exp_delta() == op.exp_delta()
        assert_canonical_op(other)


def test_a_total_d_degree_just_below_the_limit_round_trips():
    r = ring2()
    for e in ((LIMIT - 1, 0), (0, LIMIT - 1), (LIMIT // 2, LIMIT // 2 - 1)):
        op = DiffOp(r, {e: r.x(0)})
        assert op.exp_delta() == e and op.terms == {e: r.x(0)}
        assert op.order_total() == LIMIT - 1
        assert_canonical_op(op)
    # a product that lands just below the limit
    op = DiffOp.term(r, (LIMIT - 2, 0), 1) * r.d(1)
    assert op.exp_delta() == (LIMIT - 2, 1)


@pytest.mark.parametrize("e", [(LIMIT, 0), (0, LIMIT), (LIMIT - 1, 1), (LIMIT // 2, LIMIT // 2)])
def test_a_total_d_degree_at_the_limit_is_refused(e):
    with pytest.raises(ValueError, match="limit"):
        DiffOp(ring2(), {e: 1})


@pytest.mark.parametrize("a, b", [((LIMIT - 1, 0), (0, 1)), ((LIMIT // 2, 0), (LIMIT // 2, 0)),
                                  ((1, LIMIT - 2), (0, 1))])
def test_a_product_reaching_the_d_degree_limit_is_refused(a, b):
    r = ring2()
    x1 = r.embed(r.x(0))
    with pytest.raises(ValueError, match="limit"):
        DiffOp.term(r, a, 1) * DiffOp.term(r, b, 1)
    # also when the Leibniz rule has lower terms to add
    with pytest.raises(ValueError, match="limit"):
        DiffOp.term(r, a, 1) * (x1 * DiffOp.term(r, b, 1))
