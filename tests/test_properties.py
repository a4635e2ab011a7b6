"""Property tests: Poly ring axioms against a plain Fraction-dict oracle,
the contracts of commutative division, tracked bases, syzygies,
cofactor membership and delta reduction, and the operator print/parse
round trip.

Examples are derandomized and bounded, so every run checks the same
cases in a few seconds.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffgb import (DiffOp, GeneratorSet, Poly, PolyIdeal, ProblemFile, RingSpec, divide,
                    is_reduced, parse_expression, reduce, syzygies)
from diffgb.groebner import _tracked_groebner
from diffgb.orders import deglex, divides, lex
from helpers import assert_canonical_poly, naive_divide, naive_reduced_groebner

NV = 2
PROPS = settings(max_examples=50, derandomize=True, deadline=None, database=None)

coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
exps = st.tuples(*[st.integers(0, 3)] * NV)
dicts = st.dictionaries(exps, coeffs, max_size=4)
polys = dicts.map(lambda d: Poly(NV, d))
nonzero = polys.filter(bool)
orders = st.sampled_from([deglex(), lex()])


def oracle(d) -> dict:
    """Exponent -> nonzero Fraction, as the validating constructor keeps it."""
    return {e: Fraction(c) for e, c in d.items() if c}


def oracle_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@PROPS
@given(dicts, dicts)
def test_arithmetic_matches_the_fraction_dict_oracle(a, b):
    p, q = Poly(NV, a), Poly(NV, b)
    a, b = oracle(a), oracle(b)
    for got, want in ((p + q, oracle_add(a, b)), (p - q, oracle_add(a, b, -1)),
                      (-p, {e: -c for e, c in a.items()}), (p * q, oracle_mul(a, b))):
        assert dict(got.terms) == want
        assert_canonical_poly(got)


# signed rationals up to 2^100 over denominators up to 2^80, and ints
big = st.integers(-(1 << 100), 1 << 100)
scalars = st.one_of(big.filter(bool), st.builds(Fraction, big.filter(bool),
                                                 st.integers(1, 1 << 80)))
big_polys = st.dictionaries(exps, st.builds(Fraction, big, st.integers(1, 1 << 40)),
                            max_size=4).map(lambda d: Poly(NV, d))


@PROPS
@given(st.one_of(polys, big_polys), scalars)
# q's numerator shares a factor with the denominator, q's denominator
# with every numerator, and both at once
@example(Poly(NV, {(1, 0): Fraction(1, 3)}), -3)
@example(Poly(NV, {(1, 0): 4, (0, 0): 6}), Fraction(-5, 2))
@example(Poly(NV, {(1, 1): Fraction(2, 9), (0, 2): Fraction(-4, 9)}), Fraction(27, 4))
def test_scaled_is_the_product_by_a_constant(p, q):
    got = p._scaled(q)
    assert got == p * q
    assert_canonical_poly(got)


@PROPS
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    zero, one = Poly.zero(NV), Poly.one(NV)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p + (-p)).is_zero() and p - q == p + (-q)
    assert hash((p * q) * r) == hash(p * (q * r))


@PROPS
@given(polys, st.lists(nonzero, min_size=1, max_size=3), orders)
def test_divide_contract(f, gens, order):
    qs, r = divide(f, gens, order)
    assert sum((q * g for q, g in zip(qs, gens)), Poly.zero(NV)) + r == f
    assert r == naive_divide(f, gens, order)
    heads = [g.lm(order) for g in gens]
    for e in r.terms:
        assert not any(divides(h, e) for h in heads)
    for q, g in zip(qs, gens):
        assert_canonical_poly(q)
        if q:
            assert order.compare((q * g).lm(order), f.lm(order)) <= 0
    assert_canonical_poly(r)


def combination(coeffs, gens):
    return sum((c * g for c, g in zip(coeffs, gens)), Poly.zero(NV))


# generator lists of a cone ideal: small polynomials, zero ones mixed in
small = st.dictionaries(st.tuples(*[st.integers(0, 2)] * NV), coeffs,
                        min_size=1, max_size=3).map(lambda d: Poly(NV, d))
generators = st.lists(st.one_of(st.just(Poly.zero(NV)), small), min_size=1, max_size=3)


@PROPS
@given(generators, orders)
def test_tracked_groebner_rows_express_the_reduced_base(gens, order):
    G, A = _tracked_groebner(gens, order)
    assert G == naive_reduced_groebner(gens, order)
    assert len(A) == len(G)
    for g, row in zip(G, A):
        assert len(row) == len(gens)
        assert all(not a for a, k in zip(row, gens) if not k)
        assert combination(row, gens) == g


@PROPS
@given(generators.map(lambda gs: [g for g in gs if g]).filter(bool), orders)
def test_syzygy_rows_annihilate_the_generators(gens, order):
    for row in syzygies(gens, order):
        assert len(row) == len(gens) and any(row)
        assert not combination(row, gens)


@PROPS
@given(generators, st.lists(polys, min_size=3, max_size=3), polys, orders)
def test_member_with_cofactors_reconstructs_members(gens, mults, other, order):
    ideal = PolyIdeal(gens, order)
    member = combination(mults, gens)
    cof = ideal.member_with_cofactors(member)
    assert cof is not None and len(cof) == len(gens)
    assert combination(cof, gens) == member
    cof = ideal.member_with_cofactors(other)
    inside = naive_divide(other, naive_reduced_groebner(gens, order), order).is_zero()
    assert (cof is not None) == inside
    if cof is not None:
        assert combination(cof, gens) == other


# operators shaped like helpers.rand_op's (a few terms, small exponents),
# with rational coefficients and a parameter x3
RING = RingSpec(2, 1)
op_coeffs = st.dictionaries(st.tuples(*[st.integers(0, 2)] * RING.nvars), coeffs,
                            min_size=1, max_size=2).map(lambda d: Poly(RING.nvars, d))
operators = st.dictionaries(st.tuples(*[st.integers(0, 2)] * RING.n), op_coeffs,
                            max_size=3).map(lambda d: DiffOp(RING, d))


@PROPS
@given(operators)
def test_operator_text_parses_back_to_the_operator(op):
    assert parse_expression(op.to_str(), ProblemFile(RING, {}, None)) == op


@PROPS
@given(operators, st.lists(operators.filter(bool), min_size=1, max_size=3), st.booleans())
def test_reduce_trace_identity_reduced_remainder_and_exponent_bound(p, ops, tail):
    f = GeneratorSet(ops, RING)
    tr = reduce(p, f, tail=tail)
    products = [q * g for q, g in zip(tr.cofactors, f.ops)]
    assert sum(products, tr.remainder) == p
    rem = tr.remainder
    # without tail only the head has to be irreducible; with it every term
    heads = [rem] if not tail else [DiffOp(RING, {a: c}) for a, c in rem.terms.items()]
    assert all(is_reduced(h, f) for h in heads)
    if p:
        key = RING.order_delta.key
        tops = [t.exp_delta() for t in products + [rem] if t]
        assert max(tops, key=key) == p.exp_delta()
