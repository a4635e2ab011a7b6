"""Closed-loop runner: set-up, timed passes, checks and the result line.

One client in one process runs the tasks of a workload back to back,
each after the previous one returned.  A pass is one sweep over the
run's corpus; passes repeat until their summed wall time reaches the
requested seconds, and every timing metric is the median over passes.
Tracing is off for the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half and
reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import diffgb as dg

from . import corpus
from .spans import Tracer
from .workloads import WORKLOADS, CliBatch

perf = time.perf_counter
SETUP_REPS = 3
COLD_LAUNCHES = 25
MAX_REPORTED_FAILURES = 5

# (metric, unit); calls/self_s/total_s are per traced pass
LAYER_METRICS = [
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.mul.term_pairs", "count"), ("poly.init.calls", "count"),
    ("poly.init.self_s", "s"), ("poly.add.calls", "count"),
    ("poly.add.self_s", "s"), ("poly.coeff_bits_max", "bits"),
    ("groebner.divide.calls", "count"), ("groebner.divide.self_s", "s"),
    ("groebner.tracked_groebner.calls", "count"),
    ("groebner.tracked_groebner.self_s", "s"),
    ("groebner.syzygies.calls", "count"), ("groebner.syzygies.self_s", "s"),
    ("groebner.member_with_cofactors.calls", "count"),
    ("groebner.member_with_cofactors.self_s", "s"),
    ("groebner.syzygies.rows", "count"),
    ("diffop.mul.calls", "count"), ("diffop.mul.self_s", "s"),
    ("diffop.mul.total_s", "s"), ("diffop.add.calls", "count"),
    ("diffop.add.self_s", "s"),
    ("deltabasis.complete.calls", "count"), ("deltabasis.complete.total_s", "s"),
    ("deltabasis.s_delta_operators.calls", "count"),
    ("deltabasis.s_delta_operators.total_s", "s"),
    ("deltabasis.reduce.calls", "count"), ("deltabasis.reduce.self_s", "s"),
    ("deltabasis.reduce.total_s", "s"),
    ("deltabasis.rounds", "count"), ("deltabasis.s_operators", "count"),
    ("deltabasis.reductions", "count"), ("deltabasis.reduction_steps", "count"),
    ("deltabasis.additions", "count"), ("deltabasis.s_operators_zero", "count"),
    ("deltabasis.genset_builds", "count"), ("deltabasis.rescan_ratio", "ratio"),
    ("weylbasis.buchberger_weyl.calls", "count"),
    ("weylbasis.buchberger_weyl.self_s", "s"),
    ("weylbasis.divide_weyl.calls", "count"), ("weylbasis.divide_weyl.self_s", "s"),
    ("weylbasis.s_operator_weyl.calls", "count"),
    ("weylbasis.s_operator_weyl.self_s", "s"),
    ("weylbasis.s_pairs", "count"), ("weylbasis.reductions", "count"),
    ("weylbasis.division_steps", "count"), ("weylbasis.additions", "count"),
    ("weylbasis.useful_reduction_ratio", "ratio"),
    ("dmodule.flatness_report.calls", "count"),
    ("dmodule.flatness_report.total_s", "s"),
    ("dmodule.finiteness_test.calls", "count"),
    ("dmodule.finiteness_test.total_s", "s"),
    ("problems.parse_problem.calls", "count"), ("problems.parse_problem.self_s", "s"),
    ("problems.parse_expression.calls", "count"),
    ("problems.parse_expression.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.total_s", "s"),
    ("cli.build_parser.calls", "count"), ("cli.build_parser.total_s", "s"),
    ("cli.run_command.self_s", "s"), ("cli.render.total_s", "s"),
    ("orders.key_cache_entries", "count"), ("trace.overhead_ratio", "ratio"),
]

END_TO_END = [("setup_s", "s"), ("task_p50_ms", "ms"), ("task_p95_ms", "ms"),
              ("tasks_per_s", "1/s"), ("peak_rss_mb", "MB"), ("cli_cold_ms", "ms")]


class TaskError:
    """A task that raised; kept as its result so the check counts it."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception(exc))


def load_reference(root: Path) -> dict:
    with open(root / "perfbench" / "reference.json") as fh:
        return json.load(fh)


def make_workload(name, ref, workdir):
    cls = WORKLOADS[name]
    return cls(ref, workdir) if cls is CliBatch else cls(ref)


def run_pass(tasks, tracer=None):
    """One sweep; returns (wall seconds, per-task seconds, results)."""
    times, results = [], []
    p0 = perf()
    for t in tasks:
        a = perf()
        try:
            r = t.fn() if tracer is None else tracer.call("task", t.fn, t.tid)
        except Exception as exc:  # a failing task is counted, the run goes on
            r = TaskError(exc)
        times.append(perf() - a)
        results.append(r)
    return perf() - p0, times, results


def timed_passes(tasks, seconds, after_pass, tracer=None):
    """Passes until their summed wall time reaches ``seconds``.  Outside
    the timing, each pass's results go to ``after_pass`` with the share
    of the time used so far, and are then dropped so that memory does
    not grow with the number of passes; the first pass's results are
    returned for certification."""
    passes, first = [], None
    total = 0.0
    while not passes or total < seconds:
        if tracer is None:
            wall, times, results = run_pass(tasks)
        else:
            wall, times, results = tracer.call("pass", lambda: run_pass(tasks, tracer))
        passes.append((wall, times))
        total += wall
        after_pass(results, min(1.0, total / seconds))
        if first is None:
            first = results
    return passes, first


class Failures:
    def __init__(self):
        self.count = 0

    def add(self, where, msg):
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"FAIL {where}: {msg}", file=sys.stderr)


def check_pass(wl, tasks, results, failures):
    bad = set()
    for t, r in zip(tasks, results):
        msg = r.text if isinstance(r, TaskError) else wl.check(t, r)
        if msg:
            failures.add(t.tid, msg)
            bad.add(t.tid)
    return bad


def certify_all(wl, tasks, results, failures, bad):
    infos = []
    for t, r in zip(tasks, results):
        if t.tid in bad:
            continue
        err, info = wl.certify(t, r)
        if err:
            failures.add(t.tid, err)
        infos.append(info)
    return infos


class ColdCli:
    """Fresh ``python -m diffgb run`` launches on the README running
    example, one child at a time.  They are spread over the run, a few
    after each pass, so one noisy moment on the host moves few of them."""

    def __init__(self, root: Path, workdir: Path, failures):
        self.path = workdir / "readme.dop"
        self.path.write_text(corpus.problem_text(corpus.FIXED[0], "delta-gb"))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.failures = failures
        self.samples = []

    def launch_until(self, count):
        while len(self.samples) < count:
            t0 = perf()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "diffgb", "run", str(self.path)],
                    env=self.env, capture_output=True, text=True, timeout=60)
            except subprocess.TimeoutExpired:
                self.failures.add("cli-cold", "launch timed out")
            else:
                if proc.returncode != 0 or "stair:" not in proc.stdout:
                    self.failures.add("cli-cold", f"exit {proc.returncode}: {proc.stderr[-200:]}")
            self.samples.append((perf() - t0) * 1e3)


def pass_metrics(passes):
    p50 = statistics.median(statistics.median(times) for _, times in passes)
    p95 = statistics.median(statistics.quantiles(times, n=20)[18] for _, times in passes)
    rate = statistics.median(len(times) / wall for wall, times in passes)
    return p50 * 1e3, p95 * 1e3, rate


def key_cache_entries():
    return sum(len(o._key_cache) for o in gc.get_objects()
               if isinstance(o, dg.MonomialOrder))


def layer_metrics(tracer, npass, infos, untraced, traced):
    out = {}
    for name, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "total_s") and base in tracer.agg:
            calls, total, own = tracer.agg[base]
            out[name] = {"calls": calls, "self_s": own, "total_s": total}[kind] / npass
        elif name in tracer.counts:
            out[name] = tracer.counts[name] / npass
    for layer in ("delta", "weyl"):
        for info in infos:
            for k, v in info.get(f"{layer}_stats", {}).items():
                name = f"{layer}basis.{k}"
                out[name] = out.get(name, 0) + v
    final_sops = sum(info.get("final_s_operators", 0) for info in infos)
    out["deltabasis.rescan_ratio"] = (
        out.get("deltabasis.s_operators", 0) / final_sops if final_sops else 0.0)
    red = out.get("weylbasis.reductions", 0)
    out["weylbasis.useful_reduction_ratio"] = (
        out.get("weylbasis.additions", 0) / red if red else 0.0)
    calls = tracer.agg.get("deltabasis.genset_init", [0])[0]
    out["deltabasis.genset_builds"] = calls / npass
    out["poly.coeff_bits_max"] = max((i.get("bits", 0) for i in infos), default=0)
    out["orders.key_cache_entries"] = key_cache_entries()
    out["trace.overhead_ratio"] = traced / untraced
    return {name: {"value": out.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}


def run(name, seed, seconds, trace, root: Path, t_start: float) -> int:
    ref = load_reference(root)
    pools = {"fixed": corpus.digest(corpus.FIXED),
             "complete": corpus.digest(corpus.complete_pool()),
             "weyl": corpus.digest(corpus.weyl_pool())}
    if pools != ref["pools"]:
        print("error: the generated pools differ from the ones the reference "
              "was built from; rebuild it with perfbench.make_reference", file=sys.stderr)
        return 1
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=root / ".perfbench"))
    try:
        return _run(name, seed, seconds, trace, root, t_start, ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, root, t_start, ref, workdir) -> int:
    wl = make_workload(name, ref, workdir)
    failures = Failures()
    bad = set()

    cold = ColdCli(root, workdir, failures)

    def after_pass(results, progress):
        bad.update(check_pass(wl, tasks, results, failures))
        if not trace:
            cold.launch_until(math.ceil(COLD_LAUNCHES * progress))

    # set-up: one-time imports, reference and pool generation, then the
    # repeatable part (corpus, files, dependent completions, warm-up pass)
    # several times, each from fresh objects
    once = perf() - t_start
    setups = []
    for _ in range(1 if trace else SETUP_REPS):
        t0 = perf()
        ids = wl.select(random.Random(seed))
        tasks = wl.tasks(ids)
        run_pass([t for t in tasks if not t.heavy])
        setups.append(perf() - t0)
    corpus_hash = corpus.digest([ref["pools"], ids])

    if not trace:
        passes, first = timed_passes(tasks, seconds, after_pass)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        certify_all(wl, tasks, first, failures, bad)
        p50, p95, rate = pass_metrics(passes)
        values = {"setup_s": once + statistics.median(setups), "task_p50_ms": p50,
                  "task_p95_ms": p95, "tasks_per_s": rate, "peak_rss_mb": rss_mb,
                  "cli_cold_ms": statistics.median(cold.samples)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        attempted = len(tasks) * len(passes) + len(cold.samples)
        detail = {"passes": len(passes), "p95_samples_per_pass": len(tasks),
                  "samples_beyond_p95_per_pass": len(tasks) // 20,
                  "cold_launches": len(cold.samples),
                  "setup_once_s": round(once, 4),
                  "setup_reps_s": [round(s, 4) for s in setups]}
    else:
        untraced, _ = timed_passes(tasks, seconds / 2, after_pass)
        tracer = Tracer()
        tracer.install(dg)
        try:
            traced, first = timed_passes(tasks, seconds / 2, after_pass, tracer)
        finally:
            tracer.uninstall()
        infos = certify_all(wl, tasks, first, failures, bad)
        metrics = layer_metrics(
            tracer, len(traced), infos,
            statistics.median(w for w, _ in untraced),
            statistics.median(w for w, _ in traced))
        spans_path = root / ".perfbench" / f"trace-{name}-{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        attempted = len(tasks) * (len(untraced) + len(traced))
        detail = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                  "spans": len(tracer.spans), "trace_file": str(spans_path.relative_to(root))}

    print(json.dumps(dict(workload=name, seed=seed, corpus_hash=corpus_hash,
                          tasks_per_pass=len(tasks), python=sys.version.split()[0],
                          **detail)))
    failed = min(failures.count, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
