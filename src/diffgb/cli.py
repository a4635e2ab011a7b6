"""Command line front end.

Every subcommand reads a problem file, runs one computation and prints
a result document, either human readable or as JSON with --json.

Exit codes: 0 success, 1 negative decision (not a member, not flat,
not finite, not a base, inconsistent), 2 usage or parse error, 3 the
completion cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .deltabasis import (CompletionCapExceeded, GeneratorSet, _first_failure, complete,
                         cone_ideal, member, reduce, s_delta_operators)
from .dmodule import finiteness_test, flatness_report
from .groebner import PolyIdeal, syzygies
from .orders import ORDER_KINDS, MonomialOrder
from .poly import display_order
from .problems import (COMMANDS, ParseError, ProblemFile, parse_alpha, parse_expression,
                       parse_problem, rebind_order)
from .weylbasis import WeylOrder, buchberger_weyl, divide_weyl, gb_implies_delta_check

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(Exception):
    """Bad invocation that is not a syntax error in the problem file."""


@dataclass
class ResultDocument:
    """Uniform output record for every subcommand."""

    command: str
    ring: dict
    inputs: list[str]
    outputs: dict
    verdict: bool | None = None
    certificate: dict | None = None

    def to_json(self) -> str:
        # the fields as they stand: a deep copy of them would change nothing
        return json.dumps(vars(self), indent=2)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        r = self.ring
        lines.append(
            "ring: " + " ".join(r["variables"])
            + " | " + " ".join(r["derivations"])
            + " | order " + r["order"]
        )
        for s in self.inputs:
            lines.append(f"input: {s}")
        lines.extend(_render_block(self.outputs, 0))
        if self.verdict is not None:
            lines.append("verdict: " + ("yes" if self.verdict else "no"))
        if self.certificate is not None:
            lines.append("certificate:")
            lines.extend(_render_block(self.certificate, 1))
        return "\n".join(lines)


def _is_exp(v) -> bool:
    return isinstance(v, list) and v and all(type(t) is int for t in v)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if _is_exp(v):
        return "(" + ", ".join(str(t) for t in v) + ")"
    return str(v)


def _simple(v) -> bool:
    return v is None or isinstance(v, (str, int, bool)) or _is_exp(v)


def _render_block(value, depth: int) -> list[str]:
    pad = "  " * depth
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if _simple(v):
                lines.append(f"{pad}{k}: {_fmt(v)}")
            else:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_block(v, depth + 1))
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict):
                # one level deeper, the first line marked as a list item
                block = _render_block(item, depth + 1)
                if block:
                    block[0] = f"{pad}- {block[0][len(pad) + 2:]}"
                lines.extend(block)
            elif isinstance(item, list) and all(_simple(t) for t in item):
                lines.append(pad + "(" + ", ".join(_fmt(t) for t in item) + ")")
            elif _simple(item):
                lines.append(f"{pad}{_fmt(item)}")
            else:
                lines.extend(_render_block(item, depth))
    else:
        lines.append(f"{pad}{_fmt(value)}")
    return lines


# -- result construction ---------------------------------------------------

# the subcommands whose output reads the completed base of the inputs
_COMPLETING = ("delta-gb", "member", "stair", "flatness", "finiteness", "compare")


def _ideal_strs(ideal: PolyIdeal, names) -> list[str]:
    gens = ideal.groebner
    if not gens:
        return ["0"]
    disp = display_order(len(names))
    return [g.primitive(disp).to_str(names) for g in gens]


def _named(problem: ProblemFile, ops) -> list[tuple[str, str]]:
    """(name, text) per operator: the input names, then G<k> for additions."""
    names = list(problem.operators)
    names += [f"G{k + 1}" for k in range(len(names), len(ops))]
    return [(n, p.to_str()) for n, p in zip(names, ops)]


def _sections(problem: ProblemFile, b, keys: str) -> dict:
    """The sections of a completed base named in keys, in that order."""
    build = {
        "basis": lambda: [f"{n} = {s}" for n, s in _named(problem, b.ops)],
        "stair": lambda: [list(a) for a in b.stair],
        "cones": lambda: {_fmt(list(a)): _ideal_strs(b.cones[a], problem.ring.names)
                          for a in b.stair},
        "stats": lambda: dict(b.stats),
    }
    return {k: build[k]() for k in keys.split()}


def run_command(problem: ProblemFile, command: str, *, expr=None, alpha=None,
                order_x: str = "deglex", cap: int = 10000,
                tail: bool = False) -> ResultDocument:
    """Execute one subcommand against a parsed problem."""
    ring = problem.ring
    ops = list(problem.operators.values())
    if not ops:
        raise UsageError("the problem defines no operators")
    if command == "run":
        payload = problem.command
        if payload is None:
            raise UsageError("the problem file carries no command statement")
        command, expr, alpha = payload.name, payload.expr, payload.alpha
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    inputs = [f"{k} = {v.to_str()}" for k, v in problem.operators.items()]
    info = {"variables": list(ring.names), "derivations": list(ring.dnames),
            "order": ring.order_delta.kind}
    doc = ResultDocument(command, info, inputs, {})
    # the shared work, in the order errors are reported: the argument,
    # the completed base, then the classical base
    if COMMANDS[command] == "expr":
        if expr is None:
            raise UsageError("this command needs an operator expression")
        if isinstance(expr, str):
            expr = parse_expression(expr, problem)
        doc.inputs.append(f"operand = {expr.to_str()}")
    elif COMMANDS[command] == "alpha":
        # a tuple from a command statement is read back the same way
        text = alpha if isinstance(alpha, str) else ",".join(map(str, alpha or ()))
        try:
            alpha = parse_alpha(text, problem)
        except ParseError as e:
            raise UsageError(f"cannot read exponent tuple {text!r}: {e.message}") from None
    b = complete(ops, cap) if command in _COMPLETING else None
    if command in ("gb", "compare"):
        worder = WeylOrder(MonomialOrder(order_x), ring.order_delta)
        w = buchberger_weyl(ops, worder, cap)
        weyl = {"order_x": order_x, "basis": [p.to_str() for p in w.ops],
                "stats": dict(w.stats)}

    if command == "delta-gb":
        doc.outputs = _sections(problem, b, "basis stair cones stats")
    elif command == "gb":
        doc.outputs = weyl
    elif command == "reduce":
        tr = reduce(expr, GeneratorSet(ops, ring), tail=tail)
        doc.outputs = {
            "remainder": tr.remainder.to_str(),
            "cofactors": dict(_named(problem, tr.cofactors)),
            "steps": tr.steps,
        }
    elif command == "member":
        tr = reduce(expr, b.genset)
        doc.outputs = _sections(problem, b, "basis stats")
        doc.verdict = tr.remainder.is_zero()
        if doc.verdict:
            doc.certificate = {"cofactors": dict(_named(problem, tr.cofactors))}
        else:
            doc.certificate = {"remainder": tr.remainder.to_str()}
    elif command == "stair":
        doc.outputs = _sections(problem, b, "basis stair")
    elif command == "cone":
        ideal = cone_ideal(alpha, GeneratorSet(ops, ring))
        doc.outputs = {
            "alpha": list(alpha),
            "generators": _ideal_strs(ideal, ring.names),
            "unit": ideal.is_unit(),
        }
    elif command == "sdelta":
        sops = s_delta_operators(GeneratorSet(ops, ring), alpha)
        doc.outputs = {
            "alpha": list(alpha),
            "operators": [
                {
                    "lambda": {n: lam.to_str(ring.names)
                               for n, lam in zip(problem.operators, sop.lam)},
                    "operator": sop.operator.to_str(),
                }
                for sop in sops
            ],
        }
    elif command == "verify-delta-gb":
        hit = _first_failure(GeneratorSet(ops, ring), Counter())
        doc.verdict = hit is None
        if hit is not None:
            sop, tr = hit
            doc.certificate = {
                "alpha": list(sop.alpha),
                "s_operator": sop.operator.to_str(),
                "remainder": tr.remainder.to_str(),
            }
    elif command == "flatness":
        rep = flatness_report(b)
        doc.outputs = {
            **_sections(problem, b, "stair cones"),
            "J": _ideal_strs(rep.J, ring.names),
            "zero_cone": _ideal_strs(rep.zero_cone, ring.names),
            "maximal_set_known": rep.maximal_set_known,
        }
        doc.verdict = rep.globally_flat
    elif command == "finiteness":
        rep = finiteness_test(b)
        witnesses = [
            {
                "direction": ring.dnames[w.coordinate],
                "degree": w.degree,
                "certificate": _ideal_strs(w.certificate, ring.names),
                "unit": w.unit,
            }
            for w in rep.witnesses
        ]
        doc.outputs = {"witnesses": witnesses}
        doc.verdict = rep.finite
        if not rep.finite:
            bad = next(w for w in witnesses if not w["unit"])
            doc.certificate = {k: bad[k] for k in ("direction", "certificate")}
    elif command == "syzygy":
        polys = []
        for n, op in problem.operators.items():
            # the packed key of the zero d-exponent is 0
            if list(op._terms) != [0]:
                raise UsageError(
                    f"syzygy needs derivation-free nonzero operators, {n} is not")
            polys.append(op._terms[0])
        rows = syzygies(polys, ring.x_order())
        doc.outputs = {
            "rows": [[p.to_str(ring.names) for p in row] for row in rows],
        }
    else:  # compare
        checks = {
            "delta_basis_divides_to_zero": all(
                divide_weyl(p, list(w.ops), worder)[1].is_zero() for p in b.ops),
            "weyl_basis_reduces_to_zero": all(
                member(p, b)[0] for p in w.ops),
            "weyl_basis_passes_delta_criterion": gb_implies_delta_check(
                list(w.ops), worder),
        }
        doc.outputs = {
            "delta": {"basis": [p.to_str() for p in b.ops], "stats": dict(b.stats)},
            "weyl": weyl,
            "checks": checks,
        }
        doc.verdict = all(checks.values())
    return doc


# -- argument handling -------------------------------------------------------

# subcommand -> help line: "run", then the problem-file commands in order
_HELP = {
    "run": "execute the command statement embedded in the problem file",
    "delta-gb": "complete the generators to a certified base",
    "gb": "classical basis under the elimination order",
    "reduce": "divide an operator by the generators as given",
    "member": "decide left ideal membership of an operator",
    "stair": "minimal exponent stair of the ideal",
    "cone": "cone ideal of the generators at one exponent",
    "sdelta": "S-operators of the generators at one lcm target",
    "verify-delta-gb": "check the base criterion for the generators as given",
    "flatness": "cone ideals over the stair and the product ideal J",
    "finiteness": "decide finiteness of the quotient over the coefficient ring",
    "syzygy": "syzygies of derivation-free operators",
    "compare": "run both basis algorithms and cross-check them",
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The argument parser; if argv names a subcommand first, only that
    subparser is built, and usage lines still list every name.

    Each parser is built once per process and shared by every later call
    for the same subcommand, so callers must not modify it.  Parsing
    leaves it unchanged: each parse fills a new namespace, and help and
    usage errors read the terminal width and ``sys.stderr`` when they
    print."""
    return _build_parser(argv[0] if argv and argv[0] in _HELP else None)


@functools.cache
def _build_parser(name: str | None) -> argparse.ArgumentParser:
    """The parser with only the subparser name, or with all of them."""
    parser = argparse.ArgumentParser(
        prog="diffgb",
        description="bases for left ideals of linear differential operators",
    )
    if name is not None:
        names = [name]
        # the metavar only on this path: argparse also names the argument
        # by it in the missing and invalid command errors of the full one
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_HELP) + "}")
    else:
        names = _HELP
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("file", help="problem file")
        p.add_argument("--order", choices=sorted(ORDER_KINDS),
                       help="override the d-order declared in the file")
        p.add_argument("--order-x", default="deglex", choices=sorted(ORDER_KINDS),
                       help="x-part order for the elimination order")
        p.add_argument("--json", action="store_true",
                       help="print the result document as JSON")
        p.add_argument("--cap", type=int, default=10000,
                       help="bound on basis additions (default 10000)")
        p.add_argument("--tail-reduce", action="store_true",
                       help="keep reducing below an irreducible head")
        kind = COMMANDS.get(name)
        if kind == "expr":
            p.add_argument("expr", help="operator expression")
        elif kind == "alpha":
            p.add_argument("--alpha", required=True,
                           help="exponent tuple, e.g. '1,1' or '(1,1)'")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        problem = parse_problem(Path(args.file).read_text())
        if args.order is not None:
            problem = rebind_order(problem, args.order)
        doc = run_command(problem, args.command, expr=getattr(args, "expr", None),
                          alpha=getattr(args, "alpha", None), order_x=args.order_x,
                          cap=args.cap, tail=args.tail_reduce)
    except (OSError, ParseError, UsageError, ValueError, CompletionCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP if isinstance(e, CompletionCapExceeded) else EXIT_USAGE
    print(doc.to_json() if args.json else doc.render())
    return EXIT_NEGATIVE if doc.verdict is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
