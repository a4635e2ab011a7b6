"""One sha256 over the benchmark pools' outputs, for byte-identity checks.

A change that claims to leave every output alone runs this script in
both checkouts and compares the last line:

    python3 tests/identity_dump.py

It imports ``diffgb`` from the ``src`` directory and the pools from the
``perfbench`` directory of the checkout it sits in, and changes nothing
there.  Standard library only.  The hash covers:

- the reference-costed complete-pool inputs at their caps: each base's
  operators and ``stats``, at each stair point the cone's reduced base
  G, its expression matrix A and ``syzygies``, the flatness and
  finiteness flags, each input's ``reduce(tail=True)`` trace, and every
  S-operator (``lam`` and ``operator``) at every lcm target of the base;
  a cap hit is hashed as its message;
- the stair-cone generators of the converged bases of those inputs,
  under ``lex()``, ``degrevlex()`` and deglex with the variables in
  reverse: ``buchberger``, the ``PolyIdeal`` expression matrix,
  ``syzygies`` and the ``divide`` of each generator by the base.  The
  benchmark runs none of these orders, so this section is the one that
  covers the orders whose keys sort through a memo;
- the member-pool bases: their frozen queries through ``member`` and
  through ``reduce(tail=True)``, every cofactor, remainder and step count;
- a seeded sample of the reference-costed complete-pool inputs under the
  d-orders ``lex()``, ``degrevlex()`` and deglex with the derivations in
  reverse, which sort packed d-exponents through a memo: each base's
  operators and ``stats`` (or the cap message) and each input's
  ``reduce(tail=True)`` trace;
- the reference-costed weyl-pool inputs under the deglex and the lex
  x-order (deglex d-order, cap 20): each base, its ``stats`` and the
  ``divide_weyl`` quotients and remainder of every input;
- the same weyl-pool inputs under the lex d-order (deglex x-order, cap
  20): each base and its ``stats``;
- the cli-batch invocations: exit code, stdout and stderr, with the
  temporary problem directory replaced by a placeholder.

Per-section digests and counts go to stderr, the overall sha256 to stdout.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import diffgb as dg  # noqa: E402
from perfbench import corpus, workloads  # noqa: E402

WEYL_CAP = 20
ORDER_SAMPLE = 80  # complete-pool inputs completed under each other d-order


def _trace(tr) -> list:
    return [[str(c) for c in tr.cofactors], str(tr.remainder), tr.steps]


def complete_section(ref, rings):
    pool = {p["id"]: p for p in corpus.FIXED + corpus.complete_pool()}
    caps = 0
    for i, (_, cost) in sorted(ref["complete"].items()):
        if cost is None:
            continue
        prob = pool[i]
        ring, gens = rings.gens(prob)
        try:
            b = dg.complete(gens, cap=prob["cap"])
        except dg.CompletionCapExceeded as e:
            caps += 1
            yield [i, "cap", str(e)]
            continue
        cones = []
        for a in b.stair:
            cone = b.cones[a]
            basis = (cone.groebner, cone.expression_matrix)
            syz = dg.syzygies(cone.generators, ring.x_order(), _basis=basis)
            cones.append([list(a), [str(g) for g in basis[0]],
                          [[str(x) for x in row] for row in basis[1]],
                          [[str(x) for x in row] for row in syz]])
        flat, fin = dg.flatness_report(b), dg.finiteness_test(b)
        sops = [[list(a), [[str(x) for x in s.lam], str(s.operator)]]
                for a in dg.lcm_targets(b.genset)
                for s in dg.s_delta_operators(b.genset, a)]
        yield [i, [str(p) for p in b.ops], b.stats, cones,
               [flat.globally_flat, flat.maximal_set_known, fin.finite,
                [[w.coordinate, w.degree, w.unit] for w in fin.witnesses]],
               [_trace(dg.reduce(g, b.genset, tail=True)) for g in gens], sops]
    print(f"complete: {caps} cap hits", file=sys.stderr)


def commutative_section(ref, rings):
    pool = {p["id"]: p for p in corpus.FIXED + corpus.complete_pool()}
    for i, (_, cost) in sorted(ref["complete"].items()):
        if cost is None:
            continue
        prob = pool[i]
        ring, gens = rings.gens(prob)
        try:
            b = dg.complete(gens, cap=prob["cap"])
        except dg.CompletionCapExceeded:
            continue
        orders = (dg.lex(), dg.degrevlex(), dg.deglex(tuple(range(ring.nvars - 1, -1, -1))))
        for a in b.stair:
            cone = b.cones[a].generators
            for order in orders:
                G = dg.buchberger(cone, order)
                A = dg.PolyIdeal(cone, order).expression_matrix
                syz = dg.syzygies(cone, order)
                divs = [dg.divide(g, G, order) for g in cone]
                yield [i, list(a), str(order), [str(g) for g in G],
                       [[str(x) for x in row] for row in A],
                       [[str(x) for x in row] for row in syz],
                       [[[str(x) for x in q], str(r)] for q, r in divs]]


def d_order_section(ref, rings):
    pool = {p["id"]: p for p in corpus.FIXED + corpus.complete_pool()}
    ids = sorted(i for i, (_, cost) in ref["complete"].items() if cost is not None)
    sample = sorted(random.Random(24).sample(ids, min(ORDER_SAMPLE, len(ids))))
    caps = 0
    for i in sample:
        prob = pool[i]
        n, m = prob["n"], prob["m"]
        for order in (dg.lex(), dg.degrevlex(), dg.deglex(tuple(range(n - 1, -1, -1)))):
            ring = dg.RingSpec(n, m, order_delta=order)
            gens = [rings.op(ring, g) for g in prob["gens"]]
            try:
                b = dg.complete(gens, cap=prob["cap"])
            except dg.CompletionCapExceeded as e:
                caps += 1
                yield [i, str(order), "cap", str(e)]
                continue
            yield [i, str(order), [str(p) for p in b.ops], b.stats,
                   [_trace(dg.reduce(g, b.genset, tail=True)) for g in gens]]
    print(f"d-orders: {caps} cap hits", file=sys.stderr)


def member_section(ref, rings):
    pool = {p["id"]: p for p in corpus.complete_pool()}
    for i in sorted(ref["member"]):
        prob = pool[i]
        ring, gens = rings.gens(prob)
        b = dg.complete(gens, cap=prob["cap"])
        combos, randoms = workloads.member_queries(prob)
        queries = []
        for qs in combos:
            p = ring.embed(0)
            for q, g in zip(qs, gens):
                p = p + rings.op(ring, q) * g
            queries.append(p)
        queries += [rings.op(ring, q) for q in randoms]
        for p in queries:
            ok, tr = dg.member(p, b)
            yield [i, ok, tr and _trace(tr),
                   _trace(dg.reduce(p, b.genset, tail=True))]


def weyl_section(ref, rings):
    pool = {p["id"]: p for p in corpus.weyl_pool()}
    caps = 0
    for kind in ("deglex", "lex"):
        worder = dg.WeylOrder(dg.MonomialOrder(kind), dg.MonomialOrder("deglex"))
        for i, (_, cost) in sorted(ref["weyl"].items()):
            if cost is None:
                continue
            _, gens = rings.gens(pool[i])
            try:
                w = dg.buchberger_weyl(gens, worder, cap=WEYL_CAP)
            except dg.CompletionCapExceeded as e:
                caps += 1
                yield [kind, i, "cap", str(e)]
                continue
            divs = []
            for g in gens:
                q, r = dg.divide_weyl(g, list(w.ops), worder)
                divs.append([[str(x) for x in q], str(r)])
            yield [kind, i, [str(g) for g in w.ops], w.stats, divs]
    print(f"weyl: {caps} cap hits", file=sys.stderr)


def weyl_lex_d_section(ref, rings):
    pool = {p["id"]: p for p in corpus.weyl_pool()}
    worder = dg.WeylOrder(dg.MonomialOrder("deglex"), dg.MonomialOrder("lex"))
    for i, (_, cost) in sorted(ref["weyl"].items()):
        if cost is None:
            continue
        prob = pool[i]
        ring = rings.get(prob["n"], prob["m"], "lex")
        gens = [rings.op(ring, g) for g in prob["gens"]]
        try:
            w = dg.buchberger_weyl(gens, worder, cap=WEYL_CAP)
        except dg.CompletionCapExceeded as e:
            yield [i, "cap", str(e)]
            continue
        yield [i, [str(g) for g in w.ops], w.stats]


def cli_section(ref, rings):
    with tempfile.TemporaryDirectory() as tmp:
        batch = workloads.CliBatch(ref, Path(tmp))
        tasks = batch.tasks(sorted(ref["cli"]))
        here = str(next(Path(tmp).iterdir()))
        for t in tasks:
            code, out, err = t.fn()
            yield [t.tid, code, out.replace(here, "<dir>"), err.replace(here, "<dir>")]


def main() -> int:
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    total = hashlib.sha256()
    for name, section in (("complete", complete_section),
                          ("commutative", commutative_section), ("member", member_section),
                          ("weyl", weyl_section), ("cli", cli_section),
                          ("d-orders", d_order_section), ("weyl-lex-d", weyl_lex_d_section)):
        h = hashlib.sha256()
        count = 0
        for item in section(ref, workloads.Rings()):
            h.update(json.dumps(item, sort_keys=True).encode() + b"\n")
            count += 1
        print(f"{name}: {count} results, sha256 {h.hexdigest()}", file=sys.stderr)
        total.update(h.digest())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
