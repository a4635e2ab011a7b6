"""In-process A/B timing of two checkouts on the benchmark's task lists.

    python3 tests/ab_duel.py BASE CHANGE [--workload W ...] [--seed N] [--reps R]

BASE and CHANGE are checkout roots.  ``src/diffgb`` of each is loaded as
its own package (``diffgb_base``, ``diffgb_change``), and each builds its
own tasks for the complete-corpus, member-queries, weyl-gb and cli-batch
workloads through a private copy of ``perfbench/workloads.py`` bound to
it, from the pools, the seeded selection and the reference of the
checkout this script sits in; ``perfbench`` itself is not changed.  The
cli-batch problem files of each side go to a temporary directory of its
own, removed at exit.  Both run in one process, so host-load drift
between two separate runs does not enter the ratio.

Every rep runs each task once per package, alternating task by task,
with the order of the two flipped on every rep; each task keeps its
minimum over the reps.  The first rep checks every answer against the
reference.  For each workload the script prints the two sums of
per-task minima and ``ratio = base / change`` (above 1: the change is
faster).  A checkout run against itself reads 1 within a few percent.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = {"complete-corpus": "CompleteCorpus", "member-queries": "MemberQueries",
             "weyl-gb": "WeylGB", "cli-batch": "CliBatch"}


def load_package(name: str, checkout: Path):
    """``checkout/src/diffgb`` imported as the top-level package ``name``."""
    pkg = Path(checkout).resolve() / "src" / "diffgb"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    importlib.import_module(f"{name}.cli")  # workloads imports it too
    return mod


def bind_workloads(tag: str, dg):
    """A private copy of ``perfbench.workloads`` whose ``diffgb`` is ``dg``."""
    import perfbench  # noqa: F401  (the parent of the copy)
    saved = {k: sys.modules.get(k) for k in ("diffgb", "diffgb.cli")}
    sys.modules["diffgb"], sys.modules["diffgb.cli"] = dg, dg.cli
    try:
        name = f"perfbench.workloads_{tag}"
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod
        spec.loader.exec_module(mod)
        return mod
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v


def duel(sides, workload: str, ref, seed: int, reps: int, workdirs):
    """Per side (a bound workloads module): the sum over tasks of each
    task's minimum time, and the number of answers that disagree with
    the reference.  ``workdirs`` holds each side's cli-batch directory."""
    lists, wls = [], []
    for wmod, workdir in zip(sides, workdirs):
        cls = getattr(wmod, WORKLOADS[workload])
        wl = cls(ref, workdir) if workload == "cli-batch" else cls(ref)
        wls.append(wl)
        lists.append(wl.tasks(wl.select(random.Random(seed))))
    if [t.tid for t in lists[0]] != [t.tid for t in lists[1]]:
        raise SystemExit("the two checkouts select different tasks")
    best = [[float("inf")] * len(lists[0]) for _ in sides]
    wrong = [0, 0]
    perf = time.perf_counter
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for k in range(len(lists[0])):
            for s in order:
                task = lists[s][k]
                t0 = perf()
                result = task.fn()
                dt = perf() - t0
                if dt < best[s][k]:
                    best[s][k] = dt
                if rep == 0 and wls[s].check(task, result) is not None:
                    wrong[s] += 1
    return [sum(b) for b in best], wrong, len(lists[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    sides = [bind_workloads(tag, load_package(f"diffgb_{tag}", path))
             for tag, path in (("base", args.base), ("change", args.change))]
    with ExitStack() as stack:
        workdirs = [Path(stack.enter_context(tempfile.TemporaryDirectory()))
                    for _ in sides]
        for workload in args.workload or list(WORKLOADS):
            (a, b), wrong, n = duel(sides, workload, ref, args.seed, args.reps, workdirs)
            print(f"{workload}: seed {args.seed}, {n} tasks, min of {args.reps} reps: "
                  f"base {a:.3f} s, change {b:.3f} s, ratio {a / b:.3f}"
                  + (f", wrong answers base {wrong[0]} change {wrong[1]}"
                     if any(wrong) else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
