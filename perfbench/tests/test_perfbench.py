"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

from the repository root.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import diffgb as dg  # noqa: E402
from diffgb import cli, deltabasis  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import CompleteCorpus, MemberQueries, WeylGB  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = harness.load_reference(ROOT)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(trace, section):
    out = run_bench("member-queries", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_metric_lists_match_the_spec():
    assert [n for n, _ in harness.END_TO_END] == [m["name"] for m in SPEC["end_to_end"]]
    assert [n for n, _ in harness.LAYER_METRICS] == [m["name"] for m in SPEC["per_layer"]]


def test_checker_rejects_corrupted_answers():
    wl = CompleteCorpus(REF)
    task, = wl.tasks(["readme"])
    b, flat, fin = task.fn()
    assert wl.check(task, (b, flat, fin)) is None
    assert wl.certify(task, (b, flat, fin))[0] is None

    flipped = replace(flat, globally_flat=not flat.globally_flat)
    assert wl.check(task, (b, flipped, fin)) is not None
    dropped = replace(b, ops=b.ops[:-1], _gens=None)
    assert wl.certify(task, (dropped, flat, fin))[0] is not None

    mq = MemberQueries(REF)
    queries = mq.tasks([next(iter(REF["member"]))])
    q = queries[0]
    ok, tr = q.fn()
    assert mq.check(q, (ok, tr)) is None and mq.certify(q, (ok, tr))[0] is None
    assert mq.check(q, (not ok, tr)) is not None

    wg = WeylGB(REF)
    wid = next(i for i, (ans, _) in REF["weyl"].items() if ans is not None)
    wt, = wg.tasks([wid])
    w = wt.fn()
    assert wg.check(wt, w) is None
    assert wg.check(wt, replace(w, ops=w.ops[1:])) is not None


def test_spans_nest_and_self_times_sum_to_wall():
    wl = CompleteCorpus(REF)
    tasks = wl.tasks(["readme", "example6", "finite", "not-finite"])
    tracer = Tracer()
    original = dg.complete
    tracer.install(dg)
    try:
        assert dg.complete is not original and cli.complete is dg.complete
        assert deltabasis.syzygies is dg.groebner.syzygies
        tracer.call("pass", lambda: harness.run_pass(tasks, tracer))
    finally:
        tracer.uninstall()
    assert dg.complete is original and cli.complete is original

    spans = tracer.spans
    assert spans[0][0] == "pass" and spans[0][3] is None
    for name, t0, t1, parent, task, own in spans[1:]:
        pname, p0, p1, _, ptask, _ = spans[parent]
        assert p0 <= t0 <= t1 <= p1
        assert -1e-9 <= own <= t1 - t0
        assert task is not None
        assert pname == "pass" if name == "task" else ptask == task
    assert tracer.agg["deltabasis.complete"][0] == len(tasks)
    assert tracer.agg["poly.mul"][0] > 0

    wall = spans[0][2] - spans[0][1]
    total_self = sum(own for _, _, own in tracer.agg.values())
    assert total_self == pytest.approx(wall, rel=1e-9, abs=1e-9)
