"""The four benchmark workloads: tasks, answer checks and certification.

Each workload turns the frozen pools of ``corpus`` into a list of tasks.
A task is one user-visible call (one completion with its reports, one
membership query, one classical base, one CLI invocation).  Every
answer is reduced to canonical invariants that do not depend on which
of the many valid bases an algorithm returns, and compared with the
stored reference; the more expensive independent certification runs
once per distinct task, outside the timed region.

Library functions are always looked up through their module at call
time (``dg.complete``, ``cli.main``), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import diffgb as dg
from diffgb import cli

from . import corpus

CAP = "cap"   # outcome of a completion that exceeded its addition cap
WORDER = dg.WeylOrder(dg.MonomialOrder("deglex"), dg.MonomialOrder("deglex"))


@dataclass
class Task:
    tid: str            # unique within a pass
    key: str            # reference entry the answer is compared with
    fn: Callable[[], Any]
    heavy: bool = False  # left out of the warm-up pass
    data: dict = field(default_factory=dict)


class Rings:
    """Operator rings of one set-up, each with its own order caches."""

    def __init__(self):
        self._rings = {}

    def get(self, n, m, order):
        k = (n, m, order)
        if k not in self._rings:
            self._rings[k] = dg.RingSpec(n, m, order_delta=dg.MonomialOrder(order))
        return self._rings[k]

    def op(self, ring, op):
        return dg.DiffOp(ring, {e: dg.Poly(ring.nvars, p) for e, p in op.items()})

    def gens(self, prob):
        ring = self.get(prob["n"], prob["m"], prob["order"])
        return ring, [self.op(ring, g) for g in prob["gens"]]


def heaviest(ids, ref, k) -> set:
    """The k selected ids with the largest recorded cost."""
    cost = {i: (ref.get(i) or (None, None))[1] or 0 for i in ids}
    return set(sorted(ids, key=lambda i: (cost[i], i))[len(ids) - k:])


def _ops_bits(ops) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in ops for q in p.terms.values() for c in q.terms.values()),
               default=0)


def certify_delta(ops, ring, inputs):
    """Independent base check: every input reduces to zero and every
    S-operator of the returned base reduces to zero.  Returns an error
    message or None, and the number of S-operators of this final pass."""
    gs = dg.GeneratorSet(ops, ring)
    for g in inputs:
        if not dg.reduce(g, gs).remainder.is_zero():
            return "an input does not reduce to zero", 0
    count = 0
    for alpha in dg.lcm_targets(gs):
        for sop in dg.s_delta_operators(gs, alpha):
            count += 1
            if sop.operator and not dg.reduce(sop.operator, gs).remainder.is_zero():
                return f"S-operator at {alpha} does not reduce to zero", count
    return None, count


def stair_and_cones(stair, cone):
    """The stair and the reduced base of the cone ideal at each stair
    point: the same for every valid base of one ideal."""
    return [[list(a) for a in stair], [[str(g) for g in cone(a).groebner] for a in stair]]


# -- complete-corpus ---------------------------------------------------------------

class CompleteCorpus:
    """complete, then flatness_report and finiteness_test, per input."""

    name = "complete-corpus"
    tail, stratum = 16, 5

    def __init__(self, ref):
        self.ref = ref["complete"]
        self.pool = {p["id"]: p for p in corpus.FIXED + corpus.complete_pool()}

    def select(self, rng):
        fixed = [p["id"] for p in corpus.FIXED]
        work = {i: cost for i, (_, cost) in self.ref.items()
                if cost is not None and i not in fixed}
        return fixed + corpus.stratified(list(work), work, rng, self.tail, self.stratum)

    def tasks(self, ids):
        rings = Rings()
        heavy = heaviest(ids, self.ref, self.tail)
        out = []
        for i in ids:
            prob = self.pool[i]
            ring, gens = rings.gens(prob)
            out.append(Task(i, i, _complete_fn(gens, prob["cap"]),
                            heavy=i in heavy or i in corpus.DIVERGENT,
                            data=dict(ring=ring, gens=gens)))
        return out

    @staticmethod
    def canon(result):
        if result is CAP:
            return CAP
        b, flat, fin = result
        return corpus.digest(stair_and_cones(b.stair, b.cones.get) + [
            flat.globally_flat, flat.maximal_set_known, fin.finite])

    def check(self, task, result):
        want = self.ref[task.key][0]
        got = self.canon(result)
        if got == want:
            return None
        if task.key in corpus.DIVERGENT and got != CAP:
            return None  # converging is allowed; certification checks the base
        return f"answer {got} differs from reference {want}"

    def certify(self, task, result):
        if result is CAP:
            return None, {}
        b = result[0]
        err, count = certify_delta(b.ops, b.ring, task.data["gens"])
        gs = dg.GeneratorSet(b.ops, b.ring)
        own = stair_and_cones(dg.minimal_stair(gs.exps, b.ring.order_delta), gs.cone_ideal)
        if err is None and own != stair_and_cones(b.stair, b.cones.get):
            err = "stair or cone ideals disagree with the returned operators"
        return err, {"final_s_operators": count, "delta_stats": dict(b.stats),
                     "bits": _ops_bits(b.ops)}


def _complete_fn(gens, cap):
    def run():
        try:
            b = dg.complete(gens, cap=cap)
        except dg.CompletionCapExceeded:
            return CAP
        return b, dg.flatness_report(b), dg.finiteness_test(b)
    return run


# -- member-queries ----------------------------------------------------------------

def member_queries(prob):
    """Frozen queries of one base: known members sum q_i*g_i over the
    input generators, then random operators, each drawn from its own
    stream so one half cannot move the other."""
    n, nv = prob["n"], prob["n"] + prob["m"]
    rc = random.Random(f"{corpus.POOL_SEED}:{prob['id']}:combo")
    rr = random.Random(f"{corpus.POOL_SEED}:{prob['id']}:random")
    combos = [[corpus.rand_op(rc, n, nv, zero_ok=True, **corpus.MEMBER_COFACTOR)
               for _ in prob["gens"]] for _ in range(MemberQueries.per_base // 2)]
    randoms = [corpus.rand_op(rr, n, nv, **corpus.MEMBER_RANDOM)
               for _ in range(MemberQueries.per_base // 2)]
    return combos, randoms


class MemberQueries:
    """member(p, b) against bases completed during set-up."""

    name = "member-queries"
    per_base = 32
    tail, stratum = 4, 4

    def __init__(self, ref):
        self.ref = ref["member"]
        self.pool = {p["id"]: p for p in corpus.complete_pool()}

    def select(self, rng):
        work = {i: cost for i, (_, cost) in self.ref.items()}
        return corpus.stratified(sorted(work), work, rng, self.tail, self.stratum)

    def tasks(self, ids):
        rings = Rings()
        out = []
        for i in ids:
            prob = self.pool[i]
            ring, gens = rings.gens(prob)
            b = dg.complete(gens, cap=prob["cap"])
            combos, randoms = member_queries(prob)
            queries = []
            for qs in combos:
                p = ring.embed(0)
                for q, g in zip(qs, gens):
                    p = p + rings.op(ring, q) * g
                queries.append(p)
            queries += [rings.op(ring, q) for q in randoms]
            for k, p in enumerate(queries):
                out.append(Task(f"{i}:{k}", i, _member_fn(p, b),
                                data=dict(k=k, p=p, b=b, gens=gens)))
        return out

    def check(self, task, result):
        ok, _ = result
        want = self.ref[task.key][0][task.data["k"]] == "1"
        if ok != want:
            return f"membership verdict {ok}, reference {want}"
        return None

    def certify(self, task, result):
        ok, tr = result
        b, p = task.data["b"], task.data["p"]
        info = {}
        if task.data["k"] == 0:
            err, count = certify_delta(b.ops, b.ring, task.data["gens"])
            if err:
                return err, info
        if ok:
            back = b.ring.embed(0)
            for q, g in zip(tr.cofactors, b.ops):
                back = back + q * g
            if back != p:
                return "membership certificate does not reconstruct the query", info
            info["bits"] = _ops_bits(tr.cofactors)
        return None, info


def _member_fn(p, b):
    return lambda: dg.member(p, b)


# -- weyl-gb ---------------------------------------------------------------------

class WeylGB:
    """One buchberger_weyl call per input (m = 0)."""

    name = "weyl-gb"
    tail, stratum = 16, 4

    def __init__(self, ref):
        self.ref = ref["weyl"]
        self.pool = {p["id"]: p for p in corpus.weyl_pool()}

    def select(self, rng):
        ids = [i for i, (_, cost) in self.ref.items() if cost is not None]
        work = {i: self.ref[i][1] for i in ids}
        return corpus.stratified(ids, work, rng, self.tail, self.stratum)

    def tasks(self, ids):
        rings = Rings()
        heavy = heaviest(ids, self.ref, self.tail)
        out = []
        for i in ids:
            _, gens = rings.gens(self.pool[i])
            out.append(Task(i, i, _weyl_fn(gens), heavy=i in heavy,
                            data=dict(gens=gens)))
        return out

    @staticmethod
    def canon(result):
        return corpus.digest([str(g) for g in result.ops])

    def check(self, task, result):
        got, want = self.canon(result), self.ref[task.key][0]
        return None if got == want else f"base {got} differs from reference {want}"

    def certify(self, task, result):
        for g in task.data["gens"]:
            if not dg.divide_weyl(g, list(result.ops), WORDER)[1].is_zero():
                return "an input does not divide to zero", {}
        return None, {"weyl_stats": dict(result.stats), "bits": _ops_bits(result.ops)}


def _weyl_fn(gens):
    return lambda: dg.buchberger_weyl(gens, WORDER)


# -- cli-batch --------------------------------------------------------------------

# subcommand -> extra arguments; every call also gets --cap
CLI_COMMANDS = {
    "run": [], "delta-gb": [], "gb": [], "reduce": ["d1*d2 + x1*d1 + 1"],
    "member": ["d1*P1 + x2*P1"], "stair": [], "cone": ["--alpha", None],
    "sdelta": ["--alpha", None], "verify-delta-gb": [], "flatness": [],
    "finiteness": [], "syzygy": [], "compare": [],
}


def cli_canon(command, as_json, code, out):
    """Exit code plus the parts of the document that every valid base
    shares.  Text output is checked through its verdict line."""
    if not as_json:
        return [code, [ln for ln in out.splitlines() if ln.startswith("verdict:")]]
    if code not in (0, 1):
        return [code]
    doc = json.loads(out)
    o = doc["outputs"]
    if command == "run":
        command = "delta-gb"
    keep = {
        "delta-gb": lambda: [o["stair"], o["cones"]],
        "stair": lambda: [o["stair"]],
        "gb": lambda: [o["basis"]],
        "cone": lambda: [o["generators"], o["unit"]],
        "flatness": lambda: [o["stair"], o["cones"], o["J"], o["zero_cone"],
                             o["maximal_set_known"]],
        "compare": lambda: [o["weyl"]["basis"], o["checks"]],
    }.get(command, lambda: [])
    return [code, doc["verdict"], keep()]


def lead_exp(op):
    """Leading d-exponent under deglex, read from the plain data."""
    return max(op, key=lambda e: (sum(e), e))


def syzygy_problem(prob):
    """Derivation-free problem made of every coefficient of the inputs."""
    polys = [c for g in prob["gens"] for c in g.values()]
    return dict(prob, gens=[{(0,) * prob["n"]: c} for c in polys])


class CliBatch:
    """In-process diffgb.cli.main over generated problem files."""

    name = "cli-batch"
    tail, stratum = 4, 9
    cap = "8"

    def __init__(self, ref, workdir: Path):
        self.ref = ref["cli"]
        self.pool = {p["id"]: p for p in corpus.complete_pool()}
        self.workdir = workdir

    def select(self, rng):
        work = {i: v["cost"] for i, v in self.ref.items()}
        return corpus.stratified(sorted(work), work, rng, self.tail, self.stratum)

    def tasks(self, ids):
        # fresh files each time: truncating a just-written file can stall
        # for a second on ext4 while it flushes the old data
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = Path(tempfile.mkdtemp(dir=self.workdir))
        out = []
        for i in ids:
            prob = self.pool[i]
            main_file = files / f"{i}.dop"
            main_file.write_text(corpus.problem_text(prob, "delta-gb"))
            syz_file = files / f"{i}-syz.dop"
            syz_file.write_text(corpus.problem_text(syzygy_problem(prob)))
            alpha = ",".join(map(str, lead_exp(prob["gens"][0])))
            for cmd, extra in CLI_COMMANDS.items():
                path = syz_file if cmd == "syzygy" else main_file
                args = [cmd, str(path)] + [alpha if a is None else a for a in extra]
                args += ["--cap", self.cap]
                for as_json in (False, True):
                    argv = args + (["--json"] if as_json else [])
                    key = f"{cmd}|{'json' if as_json else 'text'}"
                    out.append(Task(f"{i}:{key}", i, _cli_fn(argv),
                                    data=dict(key=key, cmd=cmd, json=as_json)))
        return out

    def check(self, task, result):
        code, text, _ = result
        got = corpus.digest(cli_canon(task.data["cmd"], task.data["json"], code, text))
        want = self.ref[task.key]["answers"][task.data["key"]]
        return None if got == want else f"cli answer {got} differs from reference {want}"

    def certify(self, task, result):
        return None, {}


def _cli_fn(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


WORKLOADS = {w.name: w for w in (CompleteCorpus, MemberQueries, WeylGB, CliBatch)}
