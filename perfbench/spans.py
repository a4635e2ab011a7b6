"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's files around the public
functions of each library module; the library itself is not changed.
Each wrapped function is rebound everywhere it is reachable: in its
defining module or class, in every ``diffgb`` module that imported the
name (``deltabasis.syzygies``, the ``cli`` imports, the package
re-exports).  A binding that is missed would let calls bypass the
span.

A span's self time is its duration minus the durations of its direct
child spans.  Spans of the hot arithmetic (``Poly`` and ``DiffOp``
operators, ``GeneratorSet`` construction) run millions of times, so
they are aggregated into calls, total and self time instead of being
stored one by one; every other span is kept in memory with its name,
start, end, parent and task id and written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter


def _term_pairs(counts, args, result):
    a, b = args[0], args[1]
    counts["poly.mul.term_pairs"] += len(a.terms) * len(getattr(b, "terms", (0,)))


def _syzygy_rows(counts, args, result):
    counts["groebner.syzygies.rows"] += len(result)


def _zero_sops(counts, args, result):
    counts["deltabasis.s_operators_zero"] += sum(s.operator.is_zero() for s in result)


def targets(dg):
    """(span name, owner, attribute, stored, count hook) for every layer."""
    from diffgb import cli, deltabasis, dmodule, groebner, problems, weylbasis
    return [
        ("poly.init", dg.Poly, "__init__", False, None),
        ("poly.mul", dg.Poly, "__mul__", False, _term_pairs),
        ("poly.add", dg.Poly, "__add__", False, None),
        ("diffop.mul", dg.DiffOp, "__mul__", False, None),
        ("diffop.add", dg.DiffOp, "__add__", False, None),
        ("deltabasis.genset_init", dg.GeneratorSet, "__init__", False, None),
        ("groebner.divide", groebner, "divide", True, None),
        ("groebner.tracked_groebner", groebner, "_tracked_groebner", True, None),
        ("groebner.syzygies", groebner, "syzygies", True, _syzygy_rows),
        ("groebner.member_with_cofactors", dg.PolyIdeal, "member_with_cofactors",
         True, None),
        ("deltabasis.complete", deltabasis, "complete", True, None),
        ("deltabasis.s_delta_operators", deltabasis, "s_delta_operators", True,
         _zero_sops),
        ("deltabasis.reduce", deltabasis, "reduce", True, None),
        ("weylbasis.buchberger_weyl", weylbasis, "buchberger_weyl", True, None),
        ("weylbasis.divide_weyl", weylbasis, "divide_weyl", True, None),
        ("weylbasis.s_operator_weyl", weylbasis, "s_operator_weyl", True, None),
        ("dmodule.flatness_report", dmodule, "flatness_report", True, None),
        ("dmodule.finiteness_test", dmodule, "finiteness_test", True, None),
        ("problems.parse_problem", problems, "parse_problem", True, None),
        ("problems.parse_expression", problems, "parse_expression", True, None),
        ("cli.main", cli, "main", True, None),
        ("cli.build_parser", cli, "build_parser", True, None),
        ("cli.run_command", cli, "run_command", True, None),
        ("cli.render", cli.ResultDocument, "render", True, None),
        ("cli.render", cli.ResultDocument, "to_json", True, None),
    ]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.child = []        # child-time accumulator per open span
        self.open_ids = []     # ids of the open stored spans
        self.spans = []        # (name, start, end, parent, task, self_s)
        self.agg = {}          # name -> [calls, total_s, self_s]
        self.counts = {"poly.mul.term_pairs": 0, "groebner.syzygies.rows": 0,
                       "deltabasis.s_operators_zero": 0}
        self.task = None
        self._undo = []

    def _stored(self, name, agg, fn, args, kwargs):
        """Call fn inside a span that is kept with its parent and task."""
        spans, child, open_ids = self.spans, self.child, self.open_ids
        sid = len(spans)
        spans.append(None)
        parent = open_ids[-1] if open_ids else None
        open_ids.append(sid)
        child.append(0.0)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            dur = t1 - t0
            own = dur - child.pop()
            open_ids.pop()
            spans[sid] = (name, t0, t1, parent, self.task, own)
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
            if child:
                child[-1] += dur

    def _wrap(self, name, fn, stored, hook):
        child, counts, run_stored = self.child, self.counts, self._stored
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        if stored:
            def wrapper(*args, **kwargs):
                result = run_stored(name, agg, fn, args, kwargs)
                if hook is not None:
                    hook(counts, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    own = dur - child.pop()
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
                    if child:
                        child[-1] += dur
                if hook is not None:
                    hook(counts, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, dg):
        """Wrap every target and rebind each reference to it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "diffgb" or k.startswith("diffgb."))]
        for name, owner, attr, stored, hook in targets(dg):
            fn = vars(owner)[attr]
            w = self._wrap(name, fn, stored, hook)
            for ns in [owner] + modules:
                for k, v in list(vars(ns).items()):
                    if v is fn:
                        self._undo.append((ns, k, v))
                        setattr(ns, k, w)

    def uninstall(self):
        for ns, k, v in reversed(self._undo):
            setattr(ns, k, v)
        self._undo.clear()

    def call(self, name, fn, task=None):
        """Run fn() in a stored span opened by the benchmark itself (a
        pass, or a task with its id)."""
        if task is not None:
            self.task = task
        try:
            return self._stored(name, self.agg.setdefault(name, [0, 0.0, 0.0]),
                                fn, (), {})
        finally:
            if task is not None:
                self.task = None

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, task, own) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "task": task,
                                     "self_s": own}) + "\n")
            for name, (calls, total, own) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")
