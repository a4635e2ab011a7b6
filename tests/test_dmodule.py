"""Flatness loci and finiteness of the quotient over the coefficients."""

import random

from diffgb import (
    CompletionCapExceeded,
    Poly,
    PolyIdeal,
    complete,
    finiteness_test,
    flatness_report,
    product_ideal,
    unit_after_inverting,
)
from diffgb.orders import deglex
from helpers import example6_ops, parse_op, rand_op, ring2

X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def test_flatness_running_example():
    r, p1, p2 = example6_ops()
    rep = flatness_report(complete([p1, p2]))
    o = r.x_order()
    assert set(rep.stair) == {(1, 0), (0, 1)}
    assert rep.cone_ideals[(1, 0)].equals(PolyIdeal((X1,), o))
    assert rep.cone_ideals[(0, 1)].equals(PolyIdeal((X2 - X1,), o))
    assert rep.J.equals(PolyIdeal((X1 * (X2 - X1),), o))
    assert not rep.globally_flat
    assert rep.zero_cone.is_zero()
    assert not rep.maximal_set_known


def test_flatness_constant_coefficients():
    r = ring2()
    rep = flatness_report(complete([r.d(0), r.d(1)]))
    assert rep.globally_flat
    assert all(rep.cone_ideals[a].is_unit() for a in rep.stair)
    assert rep.J.is_unit()


def test_flatness_h_element_pins_the_open_set():
    r = ring2()
    rep = flatness_report(complete([parse_op(r, "x1")]))
    assert rep.stair == ((0, 0),)
    assert rep.zero_cone.equals(PolyIdeal((X1,), deglex()))
    assert rep.maximal_set_known
    assert not rep.globally_flat


def test_product_ideal_order_independent():
    rng = random.Random(71)
    o = deglex()
    ideals = [
        PolyIdeal((X1,), o),
        PolyIdeal((X2 - X1,), o),
        PolyIdeal((X1 + X2, X2 * X2), o),
    ]
    base = product_ideal(ideals, o, 2)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        other = product_ideal([ideals[i] for i in perm], o, 2)
        assert base.equals(other)
    del rng


def test_product_ideal_running_example():
    o = deglex()
    j = product_ideal([PolyIdeal((X1,), o), PolyIdeal((X2 - X1,), o)], o, 2)
    assert j.equals(PolyIdeal((X1 * X2 - X1 * X1,), o))


def test_finiteness_constant_coefficients():
    r = ring2()
    rep = finiteness_test(complete([r.d(0), r.d(1)]))
    assert rep.finite
    assert [w.degree for w in rep.witnesses] == [1, 1]
    assert all(w.unit for w in rep.witnesses)


def test_finiteness_negative_mixed_pair():
    r = ring2()
    rep = finiteness_test(complete([parse_op(r, "x1*d1"), parse_op(r, "d2")]))
    assert not rep.finite
    w1, w2 = rep.witnesses
    assert not w1.unit
    assert w1.certificate.equals(PolyIdeal((X1,), deglex()))
    assert w2.unit and w2.degree == 1


def test_finiteness_running_example_negative():
    _, p1, p2 = example6_ops()
    rep = finiteness_test(complete([p1, p2]))
    assert not rep.finite
    # pure powers exist in both directions but their coefficient ideals
    # stay proper
    w1, w2 = rep.witnesses
    assert w1.degree == 1 and not w1.unit
    assert w1.certificate.equals(PolyIdeal((X1,), deglex()))
    assert w2.degree == 1 and not w2.unit
    assert w2.certificate.equals(PolyIdeal((X2 - X1,), deglex()))


def test_finiteness_direction_with_no_pure_power():
    r = ring2()
    rep = finiteness_test(complete([parse_op(r, "x2*d1*d2 + d2")]))
    assert not rep.finite
    assert rep.witnesses[0].degree is None
    assert rep.witnesses[0].certificate.is_zero()


def test_finiteness_pure_powers_of_higher_degree():
    r = ring2()
    rep = finiteness_test(complete([parse_op(r, "d1^3 + x1*d1"),
                                    parse_op(r, "d2^2")]))
    assert rep.finite
    assert rep.witnesses[0].degree == 3
    assert rep.witnesses[1].degree == 2


def test_flat_ideals_have_unit_certificates_when_pure_powers_exist():
    # consistency between the two reports, sampled on tame inputs
    rng = random.Random(72)
    r = ring2()
    for _ in range(10):
        gens = [rand_op(rng, r, max_order=1, max_terms=2, max_deg=1)
                for _ in range(2)]
        b = complete(gens)
        if not flatness_report(b).globally_flat:
            continue
        for w in finiteness_test(b).witnesses:
            if w.degree is not None:
                assert w.unit


def test_unit_after_inverting_the_product():
    o = deglex()
    s = X1 * (X2 - X1)
    assert unit_after_inverting(PolyIdeal((X1,), o), s)
    assert unit_after_inverting(PolyIdeal((X2 - X1,), o), s)
    # every cone ideal of the running example trivializes off V(J)
    _, p1, p2 = example6_ops()
    rep = flatness_report(complete([p1, p2]))
    for a in rep.stair:
        assert unit_after_inverting(rep.cone_ideals[a], s)


def test_unit_after_inverting_negative():
    o = deglex()
    assert not unit_after_inverting(PolyIdeal((X1,), o), X2)
    assert not unit_after_inverting(PolyIdeal((X1 * X2,), o), X2 - X1)


def test_unit_after_inverting_rejects_zero():
    import pytest

    with pytest.raises(ValueError):
        unit_after_inverting(PolyIdeal((X1,), deglex()), Poly.zero(2))


def test_finiteness_certificate_is_the_completions_own_cone():
    # the cone at the largest pure power of each direction: its
    # participants are every pure power of that direction, in order
    rng = random.Random(103)
    r = ring2()
    seen = 0
    for _ in range(12):
        gens = [rand_op(rng, r, max_order=2, max_terms=2, max_deg=1) for _ in range(2)]
        try:
            b = complete(gens, cap=6)
        except CompletionCapExceeded:
            continue
        cones = dict(b.genset._cones)
        for w in finiteness_test(b).witnesses:
            i = w.coordinate
            pure = [p for p in b.ops
                    if all(k == 0 for j, k in enumerate(p.exp_delta()) if j != i)]
            if not pure:
                assert w.degree is None and not w.unit
                continue
            seen += 1
            assert w.degree == max(p.exp_delta()[i] for p in pure)
            assert w.certificate.generators == tuple(p.c_delta() for p in pure)
            assert w.certificate in cones.values()
            assert w.unit == PolyIdeal(w.certificate.generators, r.x_order()).is_unit()
    assert seen
