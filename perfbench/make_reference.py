"""Rebuild ``perfbench/reference.json`` from the frozen pools.

    PYTHONPATH=src python3 -m perfbench.make_reference

Runs every pool input once with the code in ``src/``, and stores its
canonical answer and its cost in milliseconds.  The costs are used only
to stratify the seeded samples; they are not compared with anything.
An input that runs longer than ``SLOW_S`` seconds is stored without an
answer and is never sampled: a single such task would take most of a
pass.  Only rebuild the reference when the pools change, and then from
code whose answers are trusted.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

from . import corpus
from .workloads import (CAP, CliBatch, CompleteCorpus, MemberQueries, WeylGB,
                        certify_delta, cli_canon)

SLOW_S = 0.5
ABORT_S = 3
MEMBER_MAX_COMPLETE_MS = 20.0
CLI_CANDIDATES = 120
CLI_MAX_COMPLETE_MS = 5.0

perf = time.perf_counter


class Aborted(Exception):
    pass


def _alarm(signum, frame):
    raise Aborted()


def timed(fn):
    """(result, seconds), or (None, None) past the abort limit."""
    signal.alarm(ABORT_S)
    t0 = perf()
    try:
        result = fn()
    except Aborted:
        return None, None
    finally:
        signal.alarm(0)
    return result, perf() - t0


def build_complete():
    wl = CompleteCorpus({"complete": {}})
    out = {}
    for task in wl.tasks(list(wl.pool)):
        result, sec = timed(task.fn)
        if sec is None or (sec > SLOW_S and task.key not in corpus.DIVERGENT):
            out[task.key] = [None, None]
            continue
        if result is not CAP:
            err, _ = certify_delta(result[0].ops, result[0].ring, task.data["gens"])
            if err:
                raise SystemExit(f"{task.key}: {err}")
        out[task.key] = [wl.canon(result), round(sec * 1e3, 3)]
    return out


def build_weyl():
    wl = WeylGB({"weyl": {}})
    out = {}
    for task in wl.tasks(list(wl.pool)):
        result, sec = timed(task.fn)
        if sec is None or sec > SLOW_S:
            out[task.key] = [None, None]
            continue
        out[task.key] = [wl.canon(result), round(sec * 1e3, 3)]
    return out


def build_member(ref):
    cheap = [i for i, (ans, cost) in ref["complete"].items()
             if i[1:].isdigit() and ans not in (None, CAP) and cost < MEMBER_MAX_COMPLETE_MS]
    wl = MemberQueries({"member": {}})
    out = {}
    for i in cheap:
        tasks = wl.tasks([i])
        bits = "".join("1" if t.fn()[0] else "0" for t in tasks)
        if "0" in bits[:MemberQueries.per_base // 2]:
            raise SystemExit(f"{i}: a known member was rejected")
        t0 = perf()
        for t in tasks:
            t.fn()
        out[i] = [bits, round((perf() - t0) * 1e3, 3)]
    return out


def build_cli(ref, workdir):
    cheap = [i for i, (ans, cost) in ref["complete"].items()
             if i[1:].isdigit() and int(i[1:]) % 2 == 0 and ans not in (None, CAP)
             and cost < CLI_MAX_COMPLETE_MS]
    wl = CliBatch({"cli": {}}, workdir)
    out = {}
    for i in cheap:
        tasks = wl.tasks([i])
        t0 = perf()
        results = [t.fn() for t in tasks]
        cost = perf() - t0
        if any(r[0] not in (0, 1) for r in results):
            continue
        out[i] = {"cost": round(cost * 1e3, 3), "answers": {
            t.data["key"]: corpus.digest(cli_canon(t.data["cmd"], t.data["json"], r[0], r[1]))
            for t, r in zip(tasks, results)}}
        if len(out) == CLI_CANDIDATES:
            break
    return out


def main():
    root = Path(__file__).resolve().parent.parent
    signal.signal(signal.SIGALRM, _alarm)
    ref = {"python": sys.version.split()[0],
           "pools": {"fixed": corpus.digest(corpus.FIXED),
                     "complete": corpus.digest(corpus.complete_pool()),
                     "weyl": corpus.digest(corpus.weyl_pool())},
           "slow_limit_s": SLOW_S}
    ref["complete"] = build_complete()
    print("complete", len(ref["complete"]), file=sys.stderr)
    ref["weyl"] = build_weyl()
    print("weyl", len(ref["weyl"]), file=sys.stderr)
    ref["member"] = build_member(ref)
    print("member", len(ref["member"]), file=sys.stderr)
    ref["cli"] = build_cli(ref, root / ".perfbench" / "reference-problems")
    print("cli", len(ref["cli"]), file=sys.stderr)
    with open(root / "perfbench" / "reference.json", "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
