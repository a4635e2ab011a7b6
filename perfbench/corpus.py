"""Frozen, seeded problem corpus for the benchmark.

The samplers copy the distribution of the acceptance-suite samplers but
live here, so that an edit to the test helpers cannot move the corpus.
They draw plain data (exponent tuples and integer coefficients), never
library objects, so the corpus and its hash do not depend on the code
under test.

An operator is a dict ``{d-exponent: {x-exponent: int}}``.  A problem is
a dict with the keys ``id``, ``n``, ``m``, ``order``, ``cap`` and
``gens`` (a list of operators).

Every workload draws its corpus for one run from a fixed pool that is
generated from ``POOL_SEED``.  The stored reference answers in
``reference.json`` are keyed by pool index, so each answer of a run can
be compared with a stored one whatever the run seed is.
"""

from __future__ import annotations

import hashlib
import json
import random

POOL_SEED = 20010
COMPLETE_POOL = 1200
WEYL_POOL = 1200

# criterion-08 distribution: completion inputs
COMPLETE_CAP = 8
COMPLETE_ORDER = dict(max_order=2, max_terms=2, max_deg=1)
# criterion-08 cofactors for known members
MEMBER_COFACTOR = dict(max_order=1, max_terms=2, max_deg=1)
# random membership queries
MEMBER_RANDOM = dict(max_order=2, max_terms=3, max_deg=1)
# criterion-05 distribution: classical Weyl-algebra inputs
WEYL_ORDER = dict(max_order=2, max_terms=2, max_deg=2)


# -- samplers (same draws as rand_poly / rand_op of the test helpers) -------

def _add_poly(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def rand_poly(rng, nvars, max_deg=2, max_terms=3, zero_ok=False) -> dict:
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    p = {e: c for e, c in terms.items() if c}
    if not p and not zero_ok:
        return {(0,) * nvars: rng.choice([-2, -1, 1, 2])}
    return p


def rand_op(rng, n, nvars, max_order=2, max_terms=3, max_deg=2,
            zero_ok=False) -> dict:
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * n
        for _ in range(rng.randint(0, max_order)):
            e[rng.randrange(n)] += 1
        c = rand_poly(rng, nvars, max_deg, 2, zero_ok=True)
        e = tuple(e)
        terms[e] = _add_poly(terms[e], c) if e in terms else c
    op = {e: c for e, c in terms.items() if c}
    if not op and not zero_ok:
        return {(0,) * n: {(0,) * nvars: 1}}
    return op


# -- pools --------------------------------------------------------------------

def complete_pool() -> list[dict]:
    """Completion inputs: n = 2, m alternating 0/1, 1-2 generators."""
    rng = random.Random(POOL_SEED)
    out = []
    for k in range(COMPLETE_POOL):
        m = k % 2
        gens = [rand_op(rng, 2, 2 + m, **COMPLETE_ORDER)
                for _ in range(rng.randint(1, 2))]
        out.append(dict(id=f"c{k}", n=2, m=m, order="deglex",
                        cap=COMPLETE_CAP, gens=gens))
    return out


def weyl_pool() -> list[dict]:
    """Classical-base inputs: n = 2, m = 0, 1-3 generators."""
    rng = random.Random(POOL_SEED + 1)
    out = []
    for k in range(WEYL_POOL):
        gens = [rand_op(rng, 2, 2, **WEYL_ORDER)
                for _ in range(rng.randint(1, 3))]
        out.append(dict(id=f"w{k}", n=2, m=0, order="deglex", cap=None,
                        gens=gens))
    return out


def _op(text_terms):
    """Operator from ``[(d-exponent, x-exponent, coefficient), ...]``."""
    op: dict = {}
    for de, xe, c in text_terms:
        op.setdefault(de, {})[xe] = c
    return op


# Fixed examples from the README and the test suite.  The lex cone pair
# is a recorded divergent input: completion exceeds cap 7 (and ran for a
# minute at cap 8), so its reference outcome is the cap being exceeded.
FIXED = [
    dict(id="readme", n=2, m=0, order="deglex", cap=COMPLETE_CAP, gens=[
        _op([((1, 0), (1, 0), 1), ((0, 1), (1, 0), 1), ((0, 0), (0, 0), 1)]),
        _op([((0, 1), (0, 1), 1), ((0, 1), (1, 0), -1), ((0, 0), (0, 0), -1)]),
    ]),
    dict(id="example6", n=2, m=0, order="deglex", cap=COMPLETE_CAP, gens=[
        _op([((1, 0), (1, 0), 1), ((0, 1), (1, 0), 1), ((0, 0), (1, 0), 1)]),
        _op([((0, 1), (0, 1), 1), ((0, 1), (1, 0), -1), ((0, 0), (0, 0), -1)]),
    ]),
    dict(id="finite", n=2, m=0, order="deglex", cap=COMPLETE_CAP, gens=[
        _op([((1, 0), (0, 0), 1)]), _op([((0, 1), (0, 0), 1)]),
    ]),
    dict(id="not-finite", n=2, m=0, order="deglex", cap=COMPLETE_CAP, gens=[
        _op([((1, 0), (1, 0), 1)]), _op([((0, 1), (0, 0), 1)]),
    ]),
    dict(id="lex-cone-pair", n=2, m=0, order="lex", cap=7, gens=[
        _op([((2, 0), (1, 0), 1), ((1, 0), (0, 1), 1)]),
        _op([((0, 2), (0, 1), 1), ((0, 1), (1, 0), 1)]),
    ]),
]
DIVERGENT = ("lex-cone-pair",)


# -- selection ------------------------------------------------------------------

def stratified(pool_ids, work: dict, rng, tail: int, stratum: int) -> list:
    """Seeded sample of a pool, stratified by recorded work.

    The ``tail`` heaviest items are always taken: a handful of heavy
    tasks dominates the pass time and sets the 95th percentile, so a
    seed that missed them would measure a different workload.  The
    rest is cut into consecutive strata of ``stratum`` items in order
    of work, and the seed picks one item from each.
    """
    ranked = sorted(pool_ids, key=lambda i: (work[i], i))
    body, heavy = ranked[:len(ranked) - tail], ranked[len(ranked) - tail:]
    picked = [rng.choice(body[s:s + stratum])
              for s in range(0, len(body) - stratum + 1, stratum)]
    out = picked + heavy
    rng.shuffle(out)
    return out


# -- rendering and hashing -------------------------------------------------------

def _mono(names, exps) -> list[str]:
    return [v + (f"^{k}" if k > 1 else "") for v, k in zip(names, exps) if k]


def op_text(op: dict, n: int, m: int) -> str:
    """Problem-file expression with x-factors left of d-factors, so the
    parser reads it in normal form without any Leibniz rewriting."""
    xs = [f"x{i + 1}" for i in range(n + m)]
    ds = [f"d{i + 1}" for i in range(n)]
    parts = []
    for de in sorted(op, reverse=True):
        for xe in sorted(op[de], reverse=True):
            c = op[de][xe]
            factors = _mono(xs, xe) + _mono(ds, de)
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
    return " + ".join(parts) if parts else "0"


def problem_text(prob: dict, command: str | None = None) -> str:
    n, m = prob["n"], prob["m"]
    lines = ["ring " + " ".join(f"x{i + 1}" for i in range(n + m)),
             "dvars " + " ".join(f"d{i + 1}" for i in range(n)),
             f"order {prob['order']}"]
    lines += [f"P{k + 1} = {op_text(g, n, m)}" for k, g in enumerate(prob["gens"])]
    if command:
        lines.append(command)
    return "\n".join(lines) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return sorted([_plain(k), _plain(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def digest(obj) -> str:
    """Stable short hash of plain data (dicts with tuple keys allowed)."""
    blob = json.dumps(_plain(obj), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
