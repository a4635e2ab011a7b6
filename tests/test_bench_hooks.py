"""The benchmark's traced run reaches into the library by name.

``perfbench/spans.py`` wraps library functions found through
``vars(owner)[attr]``, the harness reads ``MonomialOrder._key_cache``,
``perfbench/workloads.py`` reads ``GeneratorSet.exps`` and
``GeneratorSet.cone_ideal``, the ``poly.mul.term_pairs`` hook and
``workloads._ops_bits`` read ``Poly.terms`` as a dict of ``Fraction``s
with one entry per term, and ``perfbench/tests`` rebuilds a
``DeltaBasis`` with ``replace(b, ..., _gens=None)``.  A refactor that
renames or moves one of them breaks the benchmark without failing any
library test; these tests make it fail here.
The benchmark files are only imported, never changed.
"""

import dataclasses
import gc
import importlib
import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import diffgb as dg
from helpers import example6_ops

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_workloads():
    root = str(SPANS.parent.parent)
    sys.path.insert(0, root)
    try:
        return importlib.import_module("perfbench.workloads")
    finally:
        sys.path.remove(root)


def test_every_span_target_resolves():
    targets = load_spans().targets(dg)
    assert targets
    for name, owner, attr, _, _ in targets:
        assert attr in vars(owner), name
        assert callable(vars(owner)[attr]), name


def test_tracer_installs_records_and_uninstalls():
    spans = load_spans()
    before = {(id(o), a): vars(o)[a] for _, o, a, _, _ in spans.targets(dg)}
    tracer = spans.Tracer()
    tracer.install(dg)
    try:
        _, p1, p2 = example6_ops(b="1")
        dg.complete([p1, p2])
    finally:
        tracer.uninstall()
    for name in ("deltabasis.complete", "deltabasis.s_delta_operators",
                 "deltabasis.reduce", "groebner.syzygies",
                 "groebner.tracked_groebner", "diffop.mul", "poly.mul"):
        assert tracer.agg[name][0] > 0, name
    assert {(id(o), a): vars(o)[a] for _, o, a, _, _ in spans.targets(dg)} == before


def test_monomial_orders_keep_the_key_cache():
    o = dg.MonomialOrder("deglex")
    o.key((1, 2))
    assert o._key_cache == {(1, 2): o.key((1, 2))}
    # the harness's key_cache_entries sums this over every live order
    orders = [x for x in gc.get_objects() if isinstance(x, dg.MonomialOrder)]
    assert sum(len(x._key_cache) for x in orders) >= 1


def test_delta_basis_and_generator_set_keep_what_the_workloads_read():
    assert "_gens" in {f.name for f in dataclasses.fields(dg.DeltaBasis)}
    _, p1, p2 = example6_ops(b="1")
    b = dg.complete([p1, p2])
    assert dataclasses.replace(b, ops=b.ops[:-1], _gens=None).genset.ops == b.ops[:-1]
    gs = dg.GeneratorSet(b.ops, b.ring)
    assert gs.exps == tuple(p.exp_delta() for p in b.ops)
    assert gs.cone_ideal(b.stair[0]).generators


def test_poly_terms_keep_what_the_benchmark_reads():
    x = dg.Poly(2, {(1, 0): Fraction(1000, 7), (0, 1): -4, (0, 0): Fraction(-3, 2048)})
    y = x * x - 1
    assert len(x.terms) == 3 and len(y.terms) == 6
    for p in (x, y):
        assert all(type(c) is Fraction for c in p.terms.values())
    counts = Counter()
    hook = load_spans()._term_pairs
    hook(counts, (x, y), None)
    hook(counts, (x, 5), None)
    assert counts["poly.mul.term_pairs"] == 3 * 6 + 3
    # 1000 has 10 bits, 2048 has 12
    op = dg.DiffOp(dg.RingSpec(2), {(1, 0): x, (0, 0): dg.Poly.one(2)})
    assert load_workloads()._ops_bits([op]) == 12
