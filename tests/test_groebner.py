"""Commutative bases: division, Buchberger, membership, syzygies."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from diffgb import MonomialOrder, Poly, PolyIdeal, RingSpec, buchberger, divide, syzygies
from diffgb import groebner
from diffgb.groebner import _normalize_vector, _tracked_groebner
from diffgb.orders import deglex, degrevlex, lex
from helpers import (
    assert_canonical_poly,
    integer_primitive,
    linear_membership,
    naive_divide,
    naive_division,
    naive_reduced_groebner,
    parse_op,
    permuted_orders,
    rand_poly,
    rand_qpoly,
)

X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)
ONE = Poly.one(2)


def test_division_rejects_a_polynomial_of_another_ring():
    # x1 of Q[x1] against x2 of Q[x1, x2]: packed keys of two rings do
    # not compare, so the division and the ideal raise instead of
    # answering; the zero ideal has no generator and so no ring
    o, x1 = deglex(), Poly.variable(1, 0)
    ideal = PolyIdeal([X2], o)
    for call in (lambda: divide(x1, [X2], o), lambda: divide(X1, [X2, x1], o),
                 lambda: ideal.contains(x1), lambda: ideal.member_with_cofactors(x1)):
        with pytest.raises(ValueError, match="polynomial ring mismatch"):
            call()
    assert ideal.contains(X2) and not ideal.contains(X1)
    assert not PolyIdeal([], o).contains(x1)
    assert PolyIdeal([], o).divide(x1) == ([], x1)


def test_divide_identity_holds():
    o = deglex()
    f = X1 * X1 * X2 + X2 * X2 + 3
    gens = [X1 * X2 - 1, X2 + 1]
    qs, r = divide(f, gens, o)
    assert sum((q * g for q, g in zip(qs, gens)), Poly.zero(2)) + r == f
    # remainder has no term divisible by a leading monomial
    for e in r.terms:
        for g in gens:
            lm = g.lm(o)
            assert any(a > b for a, b in zip(lm, e))


def test_divide_matches_naive_oracle_on_rational_divisors_fuzz():
    # rational, non-monic divisors, half of them with a negative leading
    # coefficient, so every step has to rescale the working numerators;
    # under the permuted orders packed keys sort through the memo
    rng = random.Random(67)
    for _ in range(150):
        nv = rng.randint(1, 3)
        o = rng.choice([deglex(), lex(), *permuted_orders(nv)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = rand_qpoly(rng, nv, 2, 3)
            negative = rng.random() < 0.5
            if (g.lc(o) < 0) != negative:
                g = -g
            gens.append(g)
        f = rand_qpoly(rng, nv, 4, 5)
        qs, r = divide(f, gens, o)
        assert r == naive_divide(f, gens, o)
        assert sum((q * g for q, g in zip(qs, gens)), Poly.zero(nv)) + r == f
        top = f.lm(o)
        for q, g in zip(qs, gens):
            assert_canonical_poly(q)
            if q:
                assert o.compare((q * g).lm(o), top) <= 0
        assert_canonical_poly(r)


CONSTANTS = [Fraction(2), Fraction(-1), Fraction(-3, 2)]


def test_divide_quotients_match_the_recording_oracle_fuzz():
    # rational divisors of both lead signs; every fourth list is one
    # constant, every fourth one has a constant among other divisors,
    # and every fifth dividend is zero
    rng = random.Random(71)
    for k in range(160):
        o = rng.choice([deglex(), lex(), degrevlex()])
        nv = rng.randint(1, 3)
        gens = [rand_qpoly(rng, nv, 2, 3) for _ in range(rng.randint(1, 3))]
        c = Poly.constant(nv, CONSTANTS[k % 3])
        if k % 4 == 1:
            gens = [c]
        elif k % 4 == 2:
            gens.insert(rng.randrange(len(gens) + 1), c)
        f = Poly.zero(nv) if k % 5 == 0 else rand_qpoly(rng, nv, 4, 5)
        qs, r = divide(f, gens, o)
        assert (qs, r) == naive_division(f, gens, o)
        for p in qs + [r]:
            assert_canonical_poly(p)


@pytest.mark.parametrize("c", CONSTANTS)
def test_divide_by_a_constant_scales_the_dividend(c):
    f = Poly(2, {(2, 1): Fraction(7, 3), (0, 1): -4, (0, 0): Fraction(5, 6)})
    for g in (f, Poly.zero(2)):
        qs, r = divide(g, [Poly.constant(2, c), X1 + 1], deglex())
        assert qs == [g * (1 / c), Poly.zero(2)] and r == Poly.zero(2)
        for p in qs + [r]:
            assert_canonical_poly(p)


def test_divide_known_remainder_zero():
    qs, r = divide(X1 * X2 - X1 * X1, [X1, X2 - X1], lex())
    assert r.is_zero()
    assert linear_membership(X1 * X2 - X1 * X1, [X1, X2 - X1], 2)


def test_divide_zero_input():
    qs, r = divide(Poly.zero(2), [X1], deglex())
    assert r.is_zero() and all(q.is_zero() for q in qs)


def test_buchberger_unit_ideal():
    g = buchberger([X1 * X2 - 1, X1 * X1], deglex())
    assert list(g) == [ONE]


def test_buchberger_known_basis():
    # <x1^2, x1 x2 + x2^2>: reduced basis gains x2^3
    o = deglex()
    g = buchberger([X1 * X1, X1 * X2 + X2 * X2], o)
    expect = naive_reduced_groebner([X1 * X1, X1 * X2 + X2 * X2], o)
    assert list(g) == expect
    assert X2 ** 3 in set(g)


def test_buchberger_matches_naive_oracle_fuzz():
    rng = random.Random(31)
    for _ in range(25):
        nv = rng.randint(1, 3)
        gens = [rand_poly(rng, nv, max_deg=2, max_terms=3)
                for _ in range(rng.randint(1, 3))]
        for o in (deglex(), lex(), *permuted_orders(nv)):
            fast = list(buchberger(gens, o))
            slow = naive_reduced_groebner(gens, o)
            assert fast == slow


def test_reduced_basis_shape():
    rng = random.Random(32)
    o = deglex()
    for _ in range(15):
        gens = [rand_poly(rng, 2, max_deg=3, max_terms=3)
                for _ in range(rng.randint(1, 3))]
        g = buchberger(gens, o)
        lms = [p.lm(o) for p in g]
        assert lms == o.sorted(lms)
        for i, p in enumerate(g):
            assert p.lc(o) == 1
            others = [q.lm(o) for j, q in enumerate(g) if j != i]
            for e in p.terms:
                assert not any(all(a <= b for a, b in zip(lm, e)) for lm in others)


def test_groebner_idempotent():
    o = deglex()
    g1 = buchberger([X1 * X2 - 1, X1 * X1], o)
    assert buchberger(list(g1), o) == g1


def test_membership_with_cofactors_reconstructs():
    rng = random.Random(33)
    o = deglex()
    for _ in range(20):
        gens = [rand_poly(rng, 2, max_deg=2, max_terms=3) for _ in range(2)]
        ideal = PolyIdeal(tuple(gens), o)
        combo = sum((rand_poly(rng, 2, max_deg=2, max_terms=2) * g
                     for g in gens), Poly.zero(2))
        qs = ideal.member_with_cofactors(combo)
        assert qs is not None
        rebuilt = sum((q * g for q, g in zip(qs, gens)), Poly.zero(2))
        assert rebuilt == combo


def test_membership_negative():
    ideal = PolyIdeal((X1 * X1, X1 * X2), deglex())
    assert ideal.member_with_cofactors(X2) is None
    assert not ideal.contains(X2 * X2)
    assert ideal.contains(X1 * X1 * X2)


def test_membership_agrees_with_naive_remainder():
    rng = random.Random(34)
    o = deglex()
    for _ in range(20):
        gens = [rand_poly(rng, 2, max_deg=2, max_terms=3) for _ in range(2)]
        ideal = PolyIdeal(tuple(gens), o)
        f = rand_poly(rng, 2, max_deg=3, max_terms=4)
        nb = naive_reduced_groebner(gens, o)
        assert ideal.contains(f) == naive_divide(f, nb, o).is_zero()


def test_membership_of_zero_and_in_the_zero_ideal():
    # no special case answers these: dividing by an empty base leaves f
    # as the remainder, and zero quotients combine to the zero row
    o = deglex()
    zero = Poly.zero(2)
    for gens in [(), (zero, zero), (X1 * X2 - 1, X2 + 1)]:
        ideal = PolyIdeal(gens, o)
        assert ideal.member_with_cofactors(zero) == [zero] * len(gens)
        assert ideal.contains(zero)
    for gens in [(), (zero, zero)]:
        ideal = PolyIdeal(gens, o)
        assert ideal.member_with_cofactors(ONE) is None
        assert not ideal.contains(ONE)


def test_tracked_groebner_of_zero_generators_is_empty():
    assert _tracked_groebner([Poly.zero(2)] * 3, deglex()) == ([], [])


def test_ideal_predicates():
    o = deglex()
    assert PolyIdeal((X1 * X2 - 1, X1 * X1), o).is_unit()
    assert PolyIdeal((), o).is_zero()
    assert PolyIdeal((Poly.zero(2),), o).is_zero()
    assert not PolyIdeal((X1,), o).is_unit()
    a = PolyIdeal((X1, X2), o)
    b = PolyIdeal((X2, X1 + X2), o)
    assert a.equals(b)
    assert not a.equals(PolyIdeal((X1,), o))


def test_syzygy_running_pair():
    rows = syzygies([X1, X2 - X1], deglex())
    assert rows == [(X2 - X1, -X1)]


def test_syzygy_coprime_pair():
    # the S-polynomial x2*x1 - x1*x2 is zero; its Schreyer row remains
    rows = syzygies([X1, X2], deglex())
    assert rows == [(X2, -X1)]


def test_syzygy_equal_generators():
    rows = syzygies([X1, X1], deglex())
    assert rows == [(ONE, -ONE)]


def test_syzygy_rows_annihilate_fuzz():
    rng = random.Random(35)
    o = deglex()
    for _ in range(20):
        k = rng.randint(2, 3)
        gens = [rand_poly(rng, 2, max_deg=2, max_terms=2) for _ in range(k)]
        rows = syzygies(gens, o)
        for row in rows:
            assert len(row) == k
            combo = sum((l * g for l, g in zip(row, gens)), Poly.zero(2))
            assert combo.is_zero()


@pytest.mark.parametrize("kind", ["deglex", "lex", "degrevlex"])
def test_s_polynomials_keep_the_degree_limit(kind):
    # an S-polynomial is summed from integer numerators, so its shifts
    # check the limit the products checked: past it at the lcm of the
    # leads, and under lex at a tail term of higher degree than its lead
    o, big = MonomialOrder(kind), 2 ** 31 - 1
    x1x2 = Poly(2, {(1, 1): 1})
    cases = [([Poly(2, {(big, 0): 1}), x1x2], True),
             ([Poly(2, {(big - 1, 0): 1, (0, 1): 1}), x1x2], False)]
    if kind == "lex":
        cases.append(([Poly(2, {(1, 0): 1, (0, big): 1}), x1x2], True))
    for gens, raises in cases:
        if raises:
            for call in (buchberger, syzygies):
                with pytest.raises(ValueError, match="^a total degree in 2 variables "
                                                     "reaches the limit 2147483648$"):
                    call(gens, o)
        else:
            G = buchberger(gens, o)
            assert len(G) == 3 and not any(divide(g, G, o)[1] for g in gens)


def test_syzygy_rows_are_primitive_with_a_negative_last_lead_fuzz():
    # the Schreyer rows and the rows of I - B*A are built negated and
    # left to the normalization: each row is integer-primitive, its last
    # nonzero entry has a negative lead and it annihilates the inputs
    rng = random.Random(97)
    count = 0
    for k in range(80):
        o = rng.choice([deglex(), lex(), degrevlex()])
        nv = rng.randint(1, 3)
        gens = [rand_qpoly(rng, nv, 2, 3) for _ in range(rng.randint(1, 4))]
        if k % 3 == 0:
            gens.append(gens[-1] * rand_qpoly(rng, nv, 1, 2))
        for row in syzygies(gens, o):
            count += 1
            assert len(row) == len(gens)
            assert integer_primitive(c for p in row for c in p.terms.values())
            assert next(p for p in reversed(row) if p).lc(o) < 0
            assert sum((v * g for v, g in zip(row, gens)), Poly.zero(nv)).is_zero()
    assert count > 100


def test_syzygies_generate_kernel_on_small_cases():
    # every ad hoc kernel element must be a module combination of the
    # returned rows; checked through a degree-bounded linear search
    o = deglex()
    gens = [X1 * X2, X1 * X1, X2 * X2]
    rows = syzygies(gens, o)
    # koszul syzygies of the three pairs are in the kernel
    koszul = [
        (X1, -X2, Poly.zero(2)),
        (X2, Poly.zero(2), -X1),
        (Poly.zero(2), X2 * X2, -X1 * X1),
    ]
    for vec in koszul:
        combo = sum((l * g for l, g in zip(vec, gens)), Poly.zero(2))
        assert combo.is_zero()
        assert _in_row_span(vec, rows, bound=4)


def _in_row_span(vec, rows, bound):
    """Module membership by flattening: stack each row's components
    weighted by all monomials up to the bound and solve linearly."""
    from helpers import _monomials_up_to

    nv = vec[0].nvars
    k = len(vec)
    monos = _monomials_up_to(nv, bound)
    index = {}
    for pos in range(k):
        for e in monos:
            index.setdefault((pos, e), len(index))
    cols = []
    for row in rows:
        for e in monos:
            m = Poly.monomial(nv, e, Fraction(1))
            col = [Fraction(0)] * len(index)
            usable = True
            for pos in range(k):
                prod = m * row[pos]
                for ee, c in prod.terms.items():
                    if (pos, ee) not in index:
                        usable = False
                        break
                    col[index[(pos, ee)]] = c
                if not usable:
                    break
            if usable:
                cols.append(col)
    target = [Fraction(0)] * len(index)
    for pos in range(k):
        for ee, c in vec[pos].terms.items():
            target[index[(pos, ee)]] = c
    m = [[cols[j][i] for j in range(len(cols))] + [target[i]]
         for i in range(len(index))]
    r = 0
    for c in range(len(cols)):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return all(row[-1] == 0 for row in m if all(v == 0 for v in row[:-1]))


def test_syzygy_rejects_zero_generator():
    with pytest.raises(ValueError):
        syzygies([X1, Poly.zero(2)], deglex())


def test_expression_matrix_reconstructs_basis():
    rng = random.Random(36)
    o = deglex()
    for _ in range(15):
        gens = tuple(rand_poly(rng, 2, max_deg=2, max_terms=3)
                     for _ in range(rng.randint(1, 3)))
        ideal = PolyIdeal(gens, o)
        g = ideal.groebner
        a = ideal.expression_matrix
        for i, gi in enumerate(g):
            rebuilt = sum((a[i][j] * gens[j] for j in range(len(gens))),
                          Poly.zero(2))
            assert rebuilt == gi


def test_normalize_vector_integer_content_one_negative_last_lead_fuzz():
    rng = random.Random(37)
    for _ in range(150):
        order = rng.choice([deglex(), lex()])
        vec = [rand_poly(rng, 2, zero_ok=True) * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for _ in range(rng.randint(1, 4))]
        out = _normalize_vector(vec, order)
        if not any(vec):
            assert out is None
            continue
        assert integer_primitive(c for p in out for c in p.terms.values())
        # the last nonzero entry carries a negative leading coefficient
        k = max(i for i, p in enumerate(vec) if p)
        assert out[k].lc(order) < 0
        scale = out[k].lc(order) / vec[k].lc(order)
        assert list(out) == [p * scale for p in vec]


# Expression matrices recorded verbatim.  The reduced base is unique but
# its cofactor rows are not: they follow the order in which pairs are
# popped, so these pin it.
TRACKED_GOLDEN = [
    ("deglex", ["2*x2*x3 - 2*x1*x2 + 2", "-x1 + 2", "x1*x3 - 2*x1^2 + 3"],
     ["x3 - 5/2", "x2 + 2", "x1 - 2"],
     [["0", "1/2*x3 - x1 - 2", "1/2"], ["1", "-x2*x3 + 2*x1*x2 + 2*x2", "-x2"],
      ["0", "-1", "0"]]),
    ("deglex", ["-3*x2^2 + x1*x2", "-3*x1*x2 + 3*x1", "-2*x1^2"],
     ["x1", "x2^2"],
     [["-1/3*x1", "1/3*x2 - 1/9*x1 + 1/3", "-1/6"],
      ["-1/9*x1 - 1/3", "1/9*x2 - 1/27*x1", "-1/18"]]),
    ("deglex", ["-3*x1^2*x2 - x1*x2 - 1", "-3*x1^2*x2 + 3", "-x1^3 - 3*x2^2 - x2",
                "-2*x1^2 + 3"],
     ["1"],
     [["1/23*x1 - 6/23", "-2/207*x1^2 + 1/69*x1 + 6/23", "0",
       "1/69*x1^2*x2 - 2/23*x1*x2 - 1/69"]]),
    ("lex", ["-3*x1*x3 + 3*x3 - 1", "-x1*x2 + 1", "3*x1*x2 + x3 - 3*x2"],
     ["x3^2 - 1/3*x3 - 1", "-1/3*x3 + x2 - 1", "1/3*x3 + x1 - 10/9"],
     [["1/3*x3 + 1", "3*x1*x3 - 3*x3", "x1*x3"], ["0", "-1", "-1/3"],
      ["1/9", "x1 - 1", "1/3*x1"]]),
    ("degrevlex", ["-x2*x3 - 2*x3", "4*x1 + 3", "x1*x3 + 3*x1*x2 - 3"],
     ["1/3*x3 + x2 + 4/3", "x1 + 3/4", "x3^2 - 2*x3"],
     [["0", "1/9*x3 + 1/3*x2", "-4/9"], ["0", "1/4", "0"],
      ["3", "1/3*x3^2 + x2*x3", "-4/3*x3"]]),
    ("degrevlex", ["x1*x3 + x3", "x3^2 + 3", "2*x2^2 + 2*x1*x2"],
     ["x1 + 1", "x3^2 + 3", "x2^2 - x2"],
     [["-1/3*x3", "1/3*x1 + 1/3", "0"], ["0", "1", "0"],
      ["1/3*x2*x3", "-1/3*x1*x2 - 1/3*x2", "1/2"]]),
]


# The unit exit and the zero columns, recorded before either the exit or
# sparse rows existed: a constant that appears mid-run with pairs still
# queued, a constant input that is not the last generator, and zero
# generators between nonzero ones.
UNIT_GOLDEN = [
    ("deglex", ["x1*x2 - 1", "x1^2", "x2^2"],
     ["1"], [["-x1*x2 - 1", "0", "x1^2"]]),
    ("deglex", ["x1*x2 - 2*x3", "3", "x1^2 + x3", "x2*x3 - x1"],
     ["1"], [["0", "1/3", "0", "0"]]),
    ("lex", ["x1*x3 - x2", "0", "x2^2 - x1", "0", "x1*x2 + x3"],
     ["x3^5 + x3", "x3^3 + x2", "x3^2 + x1"],
     [["-x2*x3^3 - x3^2 + x2^2", "0", "-x3^3 + x2", "0", "x3^4 - x2*x3 + 1"],
      ["-x2*x3 - 1", "0", "-x3", "0", "x3^2"], ["-x2", "0", "-1", "0", "x3"]]),
]


def _cone_polys(texts):
    ring = RingSpec(3)
    return [parse_op(ring, t).terms.get((0, 0, 0), Poly.zero(3)) for t in texts]


@pytest.mark.parametrize("kind, gens, basis, rows", TRACKED_GOLDEN + UNIT_GOLDEN)
def test_tracked_groebner_golden_expression_matrices(kind, gens, basis, rows):
    G, A = _tracked_groebner(_cone_polys(gens), MonomialOrder(kind))
    assert [str(g) for g in G] == basis
    assert [[str(a) for a in row] for row in A] == rows


# Expression matrices and syzygy rows of 30 seeded lists in three
# variables, ten per order, recorded before the division kernels kept
# their quotients as integers.  A is not unique: it depends on the
# pair order and on every row update, and each delta base is built on
# it, so any change to these entries is a change of output.
GOLDEN = json.loads((Path(__file__).parent / "groebner_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['order']}-{k}" for k, c in enumerate(GOLDEN)])
def test_expression_matrices_and_syzygies_match_the_golden_file(case):
    order, gens = MonomialOrder(case["order"]), _cone_polys(case["gens"])
    G, A = _tracked_groebner(gens, order)
    assert [str(g) for g in G] == case["G"]
    assert [[str(a) for a in row] for row in A] == case["A"]
    assert [[str(a) for a in row] for row in syzygies(gens, order)] == case["syzygies"]


@pytest.mark.parametrize("kind, gens", [
    (kind, gens) for kind, gens, _, _ in UNIT_GOLDEN[:2]] + [
    ("degrevlex", ["2*x1*x3 - x2 + 1", "x2^2 - 3*x1", "x3^2 + x1*x2", "x1^2 - x3"])])
def test_tracked_groebner_stops_once_a_constant_is_in_the_base(kind, gens, monkeypatch):
    # every S-polynomial would divide to zero by the constant, so no
    # division may see one among its divisors (the tail reduction of
    # the constant itself divides by nothing); the spy sits on the
    # kernel, which the pair loop calls and divide wraps
    divide_ = groebner._divide

    def checked(work, den, nv, divisors, order, heads):
        assert not any(g.is_constant() for g in divisors), "pair popped after a constant"
        return divide_(work, den, nv, divisors, order, heads)

    monkeypatch.setattr(groebner, "_divide", checked)
    G, _ = _tracked_groebner(_cone_polys(gens), MonomialOrder(kind))
    assert [str(g) for g in G] == ["1"]


def test_divide_with_known_heads_matches_a_plain_divide_fuzz():
    # the heads a caller holds, for lists with constant divisors too
    # (1 included, which returns the dividend unscaled), and for a
    # PolyIdeal, which keeps its base's heads after the first divide
    rng = random.Random(89)
    constants = [Fraction(1), *CONSTANTS]
    for k in range(160):
        o = rng.choice([deglex(), lex(), degrevlex()])
        nv = rng.randint(1, 3)
        gens = [rand_qpoly(rng, nv, 2, 3) for _ in range(rng.randint(1, 3))]
        c = Poly.constant(nv, constants[k % 4])
        if k % 3 == 1:
            gens = [c]
        elif k % 3 == 2:
            gens.insert(rng.randrange(len(gens) + 1), c)
        f = Poly.zero(nv) if k % 5 == 0 else rand_qpoly(rng, nv, 4, 5)
        heads = [(g._lm(o), g._nums[g._lm(o)]) for g in gens]
        assert divide(f, gens, o, _heads=heads) == divide(f, gens, o)
        ideal = PolyIdeal(tuple(gens), o)
        for g in (f, gens[0] * f):
            assert ideal.divide(g) == divide(g, ideal.groebner, o)
