"""Sparse rational polynomials against a dense evaluation oracle."""

import random
from fractions import Fraction

import pytest

from diffgb import (DiffOp, MonomialOrder, Poly, RingSpec, WeylOrder, divide, divide_weyl,
                    s_operator_weyl)
from diffgb.orders import degrevlex, deglex, lex
from diffgb.poly import _layout, primitive_scale
from diffgb.weylbasis import _lead_full
from helpers import (assert_canonical_poly, integer_primitive, lcm_exp, permuted_orders,
                     rand_op, rand_point, rand_poly, rand_qpoly, ring2)

LIMIT = 2 ** 31  # total degrees stay below it


def P(nvars, items):
    return Poly(nvars, {e: Fraction(c) for e, c in items})


def test_additive_inverse():
    x1 = Poly.variable(2, 0)
    assert (x1 + (-x1)).is_zero()
    assert x1 - x1 == 0


def test_product_expansion():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    assert x1 * (x2 - x1) == P(2, [((1, 1), 1), ((2, 0), -1)])
    assert (x2 - x1) * (x2 + x1) == P(2, [((0, 2), 1), ((2, 0), -1)])


def test_canonical_form_drops_zeros():
    p = P(2, [((1, 0), 1)]) + P(2, [((1, 0), -1), ((0, 1), 2)])
    assert (1, 0) not in p.terms
    assert p == P(2, [((0, 1), 2)])


def test_constant_and_scalar_mixing():
    p = Poly.constant(2, Fraction(3, 2))
    assert p + Fraction(1, 2) == 2
    assert p * 2 == 3
    assert Poly.one(2) ** 5 == 1


def test_power_matches_repeated_product():
    rng = random.Random(21)
    for _ in range(20):
        p = rand_poly(rng, 2)
        q = Poly.one(2)
        for k in range(4):
            assert p ** k == q
            q = q * p


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(ValueError):
        Poly.variable(2, 0) * Poly.variable(3, 0)


def test_arithmetic_against_evaluation_oracle():
    rng = random.Random(22)
    for _ in range(60):
        nv = rng.randint(1, 3)
        f = rand_poly(rng, nv, max_deg=3, max_terms=4, zero_ok=True)
        g = rand_poly(rng, nv, max_deg=3, max_terms=4, zero_ok=True)
        fg, fpg, fmg = f * g, f + g, f - g
        for _ in range(20):
            pt = rand_point(rng, nv)
            fv, gv = f.eval(pt), g.eval(pt)
            assert fg.eval(pt) == fv * gv
            assert fpg.eval(pt) == fv + gv
            assert fmg.eval(pt) == fv - gv


def test_partial_power_rule():
    # d/dx1 of x1^2 x2 is 2 x1 x2
    p = P(2, [((2, 1), 1)])
    assert p.partial(0) == P(2, [((1, 1), 2)])
    assert p.partial(1) == P(2, [((2, 0), 1)])
    assert Poly.constant(2, Fraction(5)).partial(0).is_zero()


def test_partial_product_rule_fuzz():
    rng = random.Random(23)
    for _ in range(50):
        f = rand_poly(rng, 2, max_deg=3)
        g = rand_poly(rng, 2, max_deg=3)
        i = rng.randrange(2)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_partial_multi_matches_iterated():
    rng = random.Random(24)
    for _ in range(30):
        f = rand_poly(rng, 2, max_deg=4, max_terms=4)
        gamma = (rng.randint(0, 2), rng.randint(0, 2))
        expect = f
        for i, k in enumerate(gamma):
            for _ in range(k):
                expect = expect.partial(i)
        assert f.partial_multi(gamma) == expect


def test_parameter_variables_carry_no_derivation():
    ring = RingSpec(1, 1)  # one derivation variable, one parameter
    p = Poly.variable(2, 1)  # the parameter
    assert ring.diff(p, 0).is_zero()
    with pytest.raises(ValueError):
        ring.diff(p, 1)


def test_leading_data_and_monic():
    o = deglex()
    p = P(2, [((1, 1), 2), ((2, 0), -4), ((0, 0), 6)])
    assert p.lm(o) == (2, 0)
    assert p.lc(o) == -4
    assert p.monic(o).lc(o) == 1
    assert p.monic(o) * -4 == p


def test_leading_respects_order_choice():
    p = P(2, [((0, 2), 1), ((1, 0), 1)])
    assert p.lm(lex()) == (1, 0)
    assert p.lm(deglex()) == (0, 2)


def test_content_and_primitive():
    o = deglex()
    p = P(2, [((1, 0), Fraction(4, 3)), ((0, 1), Fraction(-2, 3))])
    assert p.content() == Fraction(2, 3)
    prim = p.primitive(o)
    assert prim == P(2, [((1, 0), 2), ((0, 1), -1)])
    assert (-p).primitive(o) == prim
    assert Poly.zero(2).primitive(o).is_zero()


def test_primitive_scale_under_each_sign_rule_fuzz():
    # the rule each caller applies: a polynomial's lead positive, a
    # syzygy row's last nonzero lead negative, an operator's lead
    # coefficient's lead positive, a Weyl operator's lead positive
    rng = random.Random(71)
    o = deglex()
    ring = ring2(m=1)
    worder = WeylOrder(MonomialOrder("lex"), MonomialOrder("deglex"))
    for _ in range(150):
        p = rand_qpoly(rng, 3)
        vec = [rand_qpoly(rng, 3) * rng.randint(0, 1) for _ in range(3)]
        vec.insert(rng.randint(0, 3), p)
        last = [q for q in vec if q][-1]
        op = rand_op(rng, ring) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        wop = rand_op(rng, ring2()) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        cases = [([p], p.lc(o), lambda q: q[0].lc(o)),
                 (vec, -last.lc(o), lambda q: -[x for x in q if x][-1].lc(o)),
                 (list(op.terms.values()), op.c_delta().lc(ring.x_order()),
                  lambda q: DiffOp(ring, zip(op.terms, q)).c_delta().lc(ring.x_order())),
                 (list(wop.terms.values()), _lead_full(wop, worder)[1],
                  lambda q: _lead_full(DiffOp(wop.ring, zip(wop.terms, q)), worder)[1])]
        for polys, sign, chosen in cases:
            scaled = [q * primitive_scale(polys, sign) for q in polys]
            assert integer_primitive(c for q in scaled for c in q.terms.values())
            assert chosen(scaled) > 0


def test_degree_and_zero_conventions():
    assert Poly.zero(2).degree() == -1
    assert Poly.one(2).degree() == 0
    assert P(2, [((2, 3), 1)]).degree() == 5
    with pytest.raises(ValueError):
        Poly.zero(2).leading(deglex())


def test_printing_reads_naturally():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    assert (x2 - x1).to_str(("x1", "x2")) == "x2 - x1"
    assert (x1 * x2 - x1 * x1).to_str(("x1", "x2")) == "x1*x2 - x1^2"
    assert (x1 * x1 * 3 + 1).to_str(("x1", "x2")) == "3*x1^2 + 1"
    assert Poly.zero(2).to_str(("x1", "x2")) == "0"
    assert (-x1).to_str(("x1", "x2")) == "-x1"


def test_hash_equals_contract():
    a = P(2, [((1, 0), 1), ((0, 1), 1)])
    b = P(2, [((0, 1), 1), ((1, 0), 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_arithmetic_results_are_canonical_fuzz():
    # results skip the validating constructor; each must equal its
    # revalidated copy and hold no zero or non-Fraction coefficient
    rng = random.Random(61)
    for _ in range(200):
        nv = rng.randint(1, 3)
        f = rand_poly(rng, nv, max_deg=3, max_terms=4, zero_ok=True)
        g = rand_poly(rng, nv, max_deg=3, max_terms=4, zero_ok=True)
        k = rng.randint(-3, 3)
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        for p in (f + g, f - g, f * g, -f, f - f, f + (-f), (f + g) - g,
                  (f * g) - g * f, f * k, k * f, f * s, s - f, f + k, k - f,
                  f.partial(rng.randrange(nv)), f ** 2):
            assert_canonical_poly(p)


def test_rational_arithmetic_results_are_canonical_fuzz():
    # rational inputs make the results share factors with their
    # denominators, so each operation has to divide out the gcd
    rng = random.Random(65)
    for _ in range(200):
        nv = rng.randint(1, 3)
        f, g = rand_qpoly(rng, nv, 3, 4), rand_qpoly(rng, nv, 3, 4)
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        for p in (f + g, f - g, f * g, -f, (f + g) - g, f * s, s * f + g,
                  f.partial(rng.randrange(nv)), f.monic(deglex()),
                  f.primitive(deglex()), f * (1 / f.content())):
            assert_canonical_poly(p)


def test_equal_values_along_different_paths_hash_equal_fuzz():
    rng = random.Random(66)
    for _ in range(100):
        nv = rng.randint(1, 3)
        p, q, r = (rand_qpoly(rng, nv, 2, 3) for _ in range(3))
        pairs = [((p * q) * r, p * (q * r)), (p + q - q, p), (p * (q + r), p * q + p * r),
                 ((p - p) * q, Poly.zero(nv)), (p * q * (1 / q.lc(lex())), p * q.monic(lex()))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1


def test_public_views_hand_out_fractions():
    o = deglex()
    p = P(2, [((1, 0), Fraction(4, 6)), ((0, 0), 2)])
    assert dict(p.terms) == {(1, 0): Fraction(2, 3), (0, 0): Fraction(2)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.leading(o) == ((1, 0), Fraction(2, 3))
    assert type(p.leading(o)[1]) is Fraction and type(p.lc(o)) is Fraction
    assert p.lc(o) / p.lc(o) == 1 and type(p.lc(o) / 2) is Fraction
    assert p.eval((Fraction(3), Fraction(0))) == 4
    with pytest.raises(TypeError):
        p.terms[(0, 1)] = Fraction(1)


def test_minus_product_equals_the_difference_with_the_product_fuzz():
    # self - u*c in one pass: self may be None (zero), the denominators
    # of self and of u*c differ or agree, and every fifth case cancels
    rng = random.Random(83)
    for k in range(240):
        nv = rng.randint(1, 3)
        draw = rand_qpoly if k % 2 else rand_poly  # rational or integer
        u, c = draw(rng, nv), draw(rng, nv)
        if k % 5 == 0:
            s = u * c
        elif k % 3 == 0:
            s = None
        else:
            s = draw(rng, nv, 4, 5) + rng.choice([Poly.zero(nv), u * c])
        got = Poly._minus_product(s, u, c)
        assert got == (-(u * c) if s is None else s - u * c)
        assert_canonical_poly(got)
        if k % 5 == 0:
            assert got.is_zero() and got._den == 1


# -- exponents: ints only, total degree below the limit ------------------------

@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(1, 2), Fraction(2), "1"])
def test_exponents_that_are_not_ints_are_refused(bad):
    with pytest.raises(ValueError, match="bad exponent"):
        Poly(2, {(1, bad): 1})
    with pytest.raises(ValueError, match="bad exponent"):
        Poly.monomial(1, (bad,))


def test_a_total_degree_just_below_the_limit_round_trips():
    top = (LIMIT - 1, 0)
    p = Poly(2, {top: 3, (LIMIT - 3, 2): -1, (0, 1): Fraction(1, 2)})
    assert dict(p.terms) == {top: 3, (LIMIT - 3, 2): -1, (0, 1): Fraction(1, 2)}
    assert p.degree() == LIMIT - 1
    for o in (deglex(), lex(), degrevlex(), *permuted_orders(2)):
        assert p.lm(o) == max(p.terms, key=o.key)
    assert p.leading(deglex()) == (top, 3)
    assert dict(p.partial(0).terms) == {(LIMIT - 2, 0): 3 * (LIMIT - 1),
                                        (LIMIT - 4, 2): -(LIMIT - 3)}
    assert dict(p.partial(1).terms) == {(LIMIT - 3, 1): -2, (0, 0): Fraction(1, 2)}
    g = Poly.monomial(2, (LIMIT - 3, 0)) - Poly.variable(2, 1)
    for o in (deglex(), lex()):
        (q,), r = divide(p, [g], o)
        assert q * g + r == p
        assert_canonical_poly(q)
        assert_canonical_poly(r)
    x1 = Poly.variable(2, 0)
    assert (Poly.monomial(2, (LIMIT - 2, 0)) * x1).lm(deglex()) == top


@pytest.mark.parametrize("exp", [(LIMIT,), (LIMIT - 1, 1), (LIMIT // 2, LIMIT // 2)])
def test_a_total_degree_at_the_limit_is_refused(exp):
    with pytest.raises(ValueError, match="limit"):
        Poly(len(exp), {exp: 1})


def test_a_product_that_crosses_the_limit_raises():
    half = Poly.monomial(2, (LIMIT // 2, 0)) + 1
    other = Poly.monomial(2, (0, LIMIT // 2)) - 1
    with pytest.raises(ValueError, match="limit"):
        half * other
    with pytest.raises(ValueError, match="limit"):
        Poly._minus_product(None, half, other)
    with pytest.raises(ValueError, match="limit"):
        other._minus_product(half, other)
    x = Poly.variable(1, 0)
    with pytest.raises(ValueError, match="limit"):
        Poly.monomial(1, (LIMIT - 1,)) * x
    with pytest.raises(ValueError, match="limit"):
        x ** 3 * Poly.monomial(1, (LIMIT - 3,))


def test_a_lex_division_that_crosses_the_limit_raises():
    # under lex x1 > x2^k, so x1*x2 -> x2^LIMIT: the step outgrows the term
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    g = x1 - Poly.monomial(2, (0, LIMIT - 1))
    with pytest.raises(ValueError, match="limit"):
        divide(x1 * x2, [g], lex())
    (q,), r = divide(x1, [g], lex())
    assert (q, r) == (Poly.one(2), Poly.monomial(2, (0, LIMIT - 1)))


def test_a_weyl_step_that_crosses_the_limit_raises():
    # under the elimination order d leads d + x^(LIMIT-1), so the x-shifts
    # of a division step and of an S-operator outgrow the monomial
    r = RingSpec(1)
    x, d = r.embed(r.x(0)), r.d(0)
    g = d + r.embed(Poly.monomial(1, (LIMIT - 1,)))
    with pytest.raises(ValueError, match="limit"):
        divide_weyl(x * d, [g], WeylOrder())
    with pytest.raises(ValueError, match="limit"):
        s_operator_weyl(g, x, WeylOrder())
    q, rem = divide_weyl(d, [g], WeylOrder())
    assert q == [r.embed(1)] and rem == -r.embed(Poly.monomial(1, (LIMIT - 1,)))


# -- packed keys ----------------------------------------------------------------

def test_packed_lcm_matches_the_tuple_lcm_fuzz():
    rng = random.Random(5)
    for _ in range(300):
        nv = rng.randint(1, 4)
        hi = rng.choice([3, LIMIT // (2 * nv) - 1])
        a, b = ([rng.randint(0, hi) for _ in range(nv)] for _ in range(2))
        lay = _layout(nv)
        l = lay.lcm(lay.pack(a), lay.pack(b))
        assert l == lay.pack(lcm_exp(tuple(a), tuple(b)))


def test_lm_and_leading_match_the_order_key_fuzz():
    # the plain orders and orders whose packed keys sort through the memo
    rng = random.Random(6)
    for _ in range(120):
        nv = rng.randint(1, 3)
        p = rand_qpoly(rng, nv, 4, 6)
        if not p:
            continue
        for o in (deglex(), lex(), degrevlex(), *permuted_orders(nv)):
            e = max(p.terms, key=o.key)
            assert p.lm(o) == e
            assert p.leading(o) == (e, p.terms[e])
            assert p.lc(o) == p.terms[e]
            assert p.monic(o).lm(o) == e and p.monic(o).lc(o) == 1
