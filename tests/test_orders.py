"""Monomial orders: comparison axioms, exponent helpers and the
critical-pair queue."""

import copy
import pickle
import random

import pytest

from diffgb import Poly
from diffgb.orders import (
    EQ,
    GT,
    LT,
    MonomialOrder,
    critical_pairs,
    deglex,
    degrevlex,
    divides,
    lex,
    minimal_indices,
)
from diffgb.poly import _layout
from diffgb.weylbasis import WeylOrder, _Divisors, _full_key
from helpers import add_exp, lcm_exp, min_scan_pairs, sub_exp, total_degree

ALL_ORDERS = [lex(), deglex(), degrevlex()]


def test_lex_first_coordinate_wins():
    assert lex().compare((2, 0), (0, 2)) == GT


def test_reflexive_for_every_kind():
    for o in ALL_ORDERS:
        assert o.compare((3, 1), (3, 1)) == EQ


def test_deglex_degree_then_precedence():
    o = deglex()
    assert o.compare((1, 0), (0, 1)) == GT
    assert o.compare((0, 2), (1, 0)) == GT
    assert o.compare((1, 1), (0, 2)) == GT


def test_degrevlex_classic_tie():
    # same degree: smaller entry at the rightmost difference wins
    o = degrevlex()
    assert o.compare((1, 1, 0), (0, 2, 0)) == GT
    assert o.compare((2, 0, 0), (1, 1, 0)) == GT
    # the case where deglex and degrevlex disagree
    assert deglex().compare((1, 0, 2), (0, 2, 1)) == GT
    assert o.compare((1, 0, 2), (0, 2, 1)) == LT


def test_zero_is_minimum():
    rng = random.Random(11)
    for o in ALL_ORDERS:
        for _ in range(50):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            if e == (0, 0, 0):
                continue
            assert o.compare((0, 0, 0), e) == LT


def test_translation_invariance_fuzz():
    rng = random.Random(12)
    for o in ALL_ORDERS:
        for _ in range(200):
            k = rng.randint(1, 4)
            a = tuple(rng.randint(0, 5) for _ in range(k))
            b = tuple(rng.randint(0, 5) for _ in range(k))
            g = tuple(rng.randint(0, 5) for _ in range(k))
            assert o.compare(a, b) == o.compare(add_exp(a, g), add_exp(b, g))


def test_totality_and_antisymmetry_fuzz():
    rng = random.Random(13)
    for o in ALL_ORDERS:
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = o.compare(a, b)
            assert c in (LT, EQ, GT)
            assert o.compare(b, a) == -c
            assert (c == EQ) == (a == b)


def test_transitivity_fuzz():
    rng = random.Random(14)
    for o in ALL_ORDERS:
        for _ in range(200):
            es = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(3)]
            es.sort(key=o.key)
            assert o.compare(es[0], es[2]) in (LT, EQ)


def test_precedence_permutation():
    o = MonomialOrder("lex", (1, 0))
    assert o.compare((5, 1), (0, 2)) == LT  # second variable dominates


def test_max_and_sorted():
    o = deglex()
    exps = [(0, 1), (1, 1), (1, 0)]
    assert o.max(exps) == (1, 1)
    assert o.sorted(exps) == [(0, 1), (1, 0), (1, 1)]


def test_exponent_helpers():
    assert lcm_exp((1, 0), (0, 1)) == (1, 1)
    assert lcm_exp((2, 0), (2, 0)) == (2, 0)
    assert add_exp((1, 2), (3, 0)) == (4, 2)
    assert sub_exp((3, 2), (1, 2)) == (2, 0)
    assert total_degree((2, 3)) == 5
    assert divides((0, 0), (7, 9))
    assert divides((1, 1), (1, 2))
    assert not divides((2, 0), (1, 5))


def test_sub_exp_rejects_negative():
    with pytest.raises(ValueError):
        sub_exp((1, 0), (0, 1))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        add_exp((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        deglex().compare((1, 0), (1, 0, 0))


def test_dickson_style_descent_terminates():
    # repeatedly replace the maximum of a finite random set by strictly
    # smaller vectors; the loop must always hit bottom
    rng = random.Random(15)
    o = deglex()
    for _ in range(20):
        cur = tuple(rng.randint(0, 6) for _ in range(3))
        steps = 0
        while cur != (0, 0, 0):
            moves = [i for i in range(3) if cur[i] > 0]
            i = rng.choice(moves)
            nxt = list(cur)
            nxt[i] -= 1
            cur = tuple(nxt)
            steps += 1
            assert steps < 200


def test_minimal_indices_matches_brute_force_antichain():
    rng = random.Random(14)
    for _ in range(300):
        k = rng.randint(1, 3)
        o = rng.choice(ALL_ORDERS)
        exps = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, 9))]
        exps += [rng.choice(exps) for _ in range(rng.randint(0, 3))]  # repeats
        rng.shuffle(exps)
        keep = minimal_indices(exps, o.key)
        uniq = set(exps)
        antichain = {e for e in uniq
                     if not any(d != e and divides(d, e) for d in uniq)}
        assert sorted(exps[t] for t in keep) == sorted(antichain)
        # ascending in the order, each lead kept at its first index
        assert keep == sorted(keep, key=lambda t: (o.key(exps[t]), t))
        assert all(exps.index(exps[t]) == t for t in keep)


def test_minimal_indices_uses_the_given_divisibility():
    def multiple(a, b):
        return b[0] % a[0] == 0

    leads = [(2,), (4,), (3,), (2,)]
    assert minimal_indices(leads, deglex().key, multiple) == [0, 2]
    assert minimal_indices(leads, deglex().key) == [0]
    assert minimal_indices([], deglex().key) == []


def test_key_cache_starts_over_at_its_limit(monkeypatch):
    from diffgb import orders
    exps = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for kind in ("lex", "deglex", "degrevlex"):
        want = {e: MonomialOrder(kind, (2, 0, 1)).key(e) for e in exps}
        monkeypatch.setattr(orders, "_KEY_CACHE_LIMIT", 5)
        o = MonomialOrder(kind, (2, 0, 1))
        for _ in range(2):
            for e in exps:
                assert o.key(e) == want[e]
                assert len(o._key_cache) <= 5
        monkeypatch.undo()


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda o: pickle.loads(pickle.dumps(o))])
def test_copies_of_an_order_keep_their_own_key_cache(clone):
    # and their own memo of sort keys of packed exponents, which keys them
    # as the original does
    p = Poly(2, {(1, 2): 1, (3, 0): 2, (0, 4): 3, (2, 2): 4})
    for o in (MonomialOrder("lex"), MonomialOrder("degrevlex", (1, 0)),
              MonomialOrder("deglex", (1, 0)), MonomialOrder("deglex")):
        o.key((1, 2))
        want = p.lm(o)
        c = clone(o)
        assert c == o and hash(c) == hash(o) and c.prec == o.prec
        assert c._key_cache is not o._key_cache
        assert c._packed_keys is not o._packed_keys
        assert c.key((3, 0)) == o.key((3, 0)) and c.key((1, 2)) == o.key((1, 2))
        c.key((5, 5))
        assert (5, 5) in c._key_cache and (5, 5) not in o._key_cache
        assert p.lm(c) == want == max(p.terms, key=o.key)
        assert (p * p).lm(c) == (p * p).lm(o) == max((p * p).terms, key=c.key)


def _run_with_appends(pairs, start, extra, seed):
    """Drain a pair generator over a copy of ``start``, appending the
    ``extra`` leads on a seeded schedule; returns the triples and the
    grown list."""
    leads, extra, sched = list(start), list(extra), random.Random(seed)
    out = []
    for triple in pairs(leads):
        out.append(triple)
        while extra and sched.random() < 0.3:
            leads.append(extra.pop())
    return out, leads


def test_critical_pairs_matches_min_scan_reference_with_appends():
    rng = random.Random(16)
    weyl_orders = [WeylOrder(MonomialOrder(kx), MonomialOrder(kd))
                   for kx in ("deglex", "lex") for kd in ("deglex", "degrevlex")]
    for trial in range(200):
        if trial % 2:
            # the Weyl loop's leads: full keys d << S | x
            base = _Divisors([], [], 2)
            lcm, key = base.lcm, _full_key(rng.choice(weyl_orders), 2)
            fresh = lambda: (_layout(2).pack([rng.randint(0, 2) for _ in range(2)]) << base.shift
                             | _layout(2).pack([rng.randint(0, 2) for _ in range(2)]))
        else:
            k = rng.randint(1, 3)
            lcm, key = lcm_exp, rng.choice(ALL_ORDERS).key
            fresh = lambda: tuple(rng.randint(0, 3) for _ in range(k))
        start = [fresh() for _ in range(rng.randint(1, 5))]
        start += [rng.choice(start) for _ in range(rng.randint(0, 2))]  # repeats
        extra = [fresh() for _ in range(rng.randint(0, 6))]
        seed = rng.random()
        got, leads = _run_with_appends(lambda ls: critical_pairs(ls, lcm, key),
                                       start, extra, seed)
        want, _ = _run_with_appends(lambda ls: min_scan_pairs(ls, lcm, key),
                                    start, extra, seed)
        assert got == want
        # every pair i < j of the grown list exactly once, with its lcm
        assert sorted((i, j) for i, j, _ in got) == sorted(
            (i, j) for j in range(len(leads)) for i in range(j))
        assert all(l == lcm(leads[i], leads[j]) for i, j, l in got)
