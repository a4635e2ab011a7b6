"""Command line interface: subcommands, documents, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffgb import cli, deltabasis
from diffgb.cli import _HELP, build_parser, main, run_command
from diffgb.problems import COMMANDS, parse_problem

EX6 = """\
ring x1 x2
dvars d1 d2
order deglex
P1 = x1*d1 + x1*d2 + x1
P2 = (x2 - x1)*d2 - 1
"""

EULER = """\
ring x1 x2
dvars d1 d2
E = x1*d1 + d2
X = x1
"""


SYZ = """\
ring x1 x2
dvars d1 d2
A = x1
B = x2 - x1
C = x1*x2 - x1^2
"""

# subcommand -> (problem text, arguments after the file) for the golden
# documents: the running example, and derivation-free operators for syzygy
GOLDEN_CASES = {
    "run": (EX6 + "sdelta (1,1)\n", []),
    "delta-gb": (EX6, []),
    "gb": (EX6, []),
    "reduce": (EX6, ["x1*d1*d2 + d2^2", "--tail-reduce"]),
    "member": (EX6, ["d2*P1 - d1*P2"]),
    "stair": (EX6, []),
    "cone": (EX6, ["--alpha", "1,0"]),
    "sdelta": (EX6, ["--alpha", "(1,1)"]),
    "verify-delta-gb": (EX6, []),
    "flatness": (EX6, []),
    "finiteness": (EX6, []),
    "syzygy": (SYZ, []),
    "compare": (EX6, []),
}
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def write(tmp_path, text, name="prob.dop"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(tmp_path, text, argv, capsys):
    path = write(tmp_path, text)
    rc = main([a if a == "-" or not a.startswith("FILE") else path
               for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out + captured.err


def test_delta_gb_reports_addition(tmp_path, capsys):
    rc, out = run(tmp_path, EULER, ["delta-gb", "FILE"], capsys)
    assert rc == 0
    assert "G3 = (1)*d2 + (-1)" in out
    assert "additions: 1" in out
    assert "(0, 0)" in out


def test_delta_gb_certified_input_unchanged(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["delta-gb", "FILE"], capsys)
    assert rc == 0
    assert "G3" not in out
    assert "additions: 0" in out


def test_json_document_shape(tmp_path, capsys):
    rc, out = run(tmp_path, EULER, ["delta-gb", "FILE", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc) == ["certificate", "command", "inputs",
                           "outputs", "ring", "verdict"]
    assert doc["command"] == "delta-gb"
    assert doc["verdict"] is None
    assert "G3 = (1)*d2 + (-1)" in doc["outputs"]["basis"]
    assert doc["outputs"]["stair"] == [[0, 0]]


def test_run_dispatches_stored_command(tmp_path, capsys):
    rc, out = run(tmp_path, EX6 + "member d2*P1 - d1*P2\n",
                  ["run", "FILE"], capsys)
    assert rc == 0
    assert "command: member" in out
    assert "verdict: yes" in out


def test_run_without_stored_command(tmp_path, capsys):
    rc, _ = run(tmp_path, EX6, ["run", "FILE"], capsys)
    assert rc == 2


def test_member_yes_prints_cofactors(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["member", "FILE", "d2*P1 - d1*P2"], capsys)
    assert rc == 0
    assert "verdict: yes" in out
    assert "P1: (1)*d2" in out
    assert "P2: (-1)*d1" in out


def test_member_no_prints_remainder(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["member", "FILE", "1"], capsys)
    assert rc == 1
    assert "verdict: no" in out
    assert "remainder: (1)" in out


def test_reduce_top_versus_tail(tmp_path, capsys):
    text = "ring x1 x2\ndvars d1 d2\nP = x1*d1\n"
    expr = "d1*d2 + x1^2*d1 + x2"
    rc, out = run(tmp_path, text, ["reduce", "FILE", expr], capsys)
    assert rc == 0
    assert "remainder: (1)*d1*d2 + (x1^2)*d1 + (x2)" in out
    rc, out = run(tmp_path, text, ["reduce", "FILE", expr, "--tail-reduce"],
                  capsys)
    assert rc == 0
    assert "remainder: (1)*d1*d2 + (x2)" in out
    assert "P: (x1)" in out


def test_gb_coprime_pair_collapses(tmp_path, capsys):
    rc, out = run(tmp_path, "ring x1\ndvars d1\nA = x1\nB = d1\n",
                  ["gb", "FILE"], capsys)
    assert rc == 0
    assert "(1)" in out


def test_stair_respects_order_flag(tmp_path, capsys):
    text = "ring x1 x2\ndvars d1 d2\nP = x1*d1^2 + x2*d2^3\n"
    rc, out = run(tmp_path, text, ["stair", "FILE"], capsys)
    assert rc == 0 and "(0, 3)" in out
    rc, out = run(tmp_path, text, ["stair", "FILE", "--order", "lex"], capsys)
    assert rc == 0 and "(2, 0)" in out
    assert "order lex" in out


def test_cone_output(tmp_path, capsys):
    # the parentheses around --alpha are optional
    for alpha in ("(1,0)", "1,0", " ( 1 , 0 ) "):
        rc, out = run(tmp_path, EX6, ["cone", "FILE", "--alpha", alpha], capsys)
        assert rc == 0
        assert "alpha: (1, 0)" in out
        assert "x1" in out and "unit: no" in out


def test_sdelta_output(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["sdelta", "FILE", "--alpha", "(1,1)"],
                  capsys)
    assert rc == 0
    assert "P1: x2 - x1" in out
    assert "P2: -x1" in out
    assert ("operator: (x1*x2 - x1^2)*d2^2 + (x1)*d1"
            " + (x1*x2 - x1^2 + x1)*d2") in out


def test_sdelta_rejects_non_target(tmp_path, capsys):
    rc, _ = run(tmp_path, EX6, ["sdelta", "FILE", "--alpha", "(2,2)"], capsys)
    assert rc == 2


def test_verify_positive(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["verify-delta-gb", "FILE"], capsys)
    assert rc == 0
    assert "verdict: yes" in out


def test_verify_negative_shows_witness(tmp_path, capsys):
    bad = EX6.replace("P1 = x1*d1", "P1 = x2*d1")
    rc, out = run(tmp_path, bad, ["verify-delta-gb", "FILE"], capsys)
    assert rc == 1
    assert "verdict: no" in out
    assert "alpha: (1, 1)" in out
    assert "s_operator:" in out and "remainder:" in out


def test_flatness_running_example(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["flatness", "FILE"], capsys)
    assert rc == 1
    assert "x1*x2 - x1^2" in out
    assert "x2 - x1" in out
    assert "maximal_set_known: no" in out
    assert "verdict: no" in out


def test_flatness_constant_coefficients(tmp_path, capsys):
    rc, out = run(tmp_path, "ring x1 x2\ndvars d1 d2\nA = d1\nB = d2\n",
                  ["flatness", "FILE"], capsys)
    assert rc == 0
    assert "verdict: yes" in out
    # nothing pins the open set when no generator lies in the base ring
    assert "maximal_set_known: no" in out


def test_finiteness_negative(tmp_path, capsys):
    rc, out = run(tmp_path, EULER.replace("E = x1*d1 + d2\nX = x1",
                                          "E = x1*d1\nX = d2"),
                  ["finiteness", "FILE"], capsys)
    assert rc == 1
    assert "- direction: d1" in out
    assert "degree: 1" in out
    assert "unit: no" in out
    assert "verdict: no" in out


def test_finiteness_positive(tmp_path, capsys):
    rc, out = run(tmp_path, "ring x1 x2\ndvars d1 d2\nA = d1\nB = d2\n",
                  ["finiteness", "FILE"], capsys)
    assert rc == 0
    assert "verdict: yes" in out


def test_syzygy_rows(tmp_path, capsys):
    rc, out = run(tmp_path, "ring x1 x2\ndvars d1 d2\nA = x1\nB = x2 - x1\n",
                  ["syzygy", "FILE"], capsys)
    assert rc == 0
    assert "(x2 - x1, -x1)" in out


def test_syzygy_rejects_derivations(tmp_path, capsys):
    rc, _ = run(tmp_path, EX6, ["syzygy", "FILE"], capsys)
    assert rc == 2


def test_compare_consistency(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["compare", "FILE"], capsys)
    assert rc == 0
    assert "delta_basis_divides_to_zero: yes" in out
    assert "weyl_basis_reduces_to_zero: yes" in out
    assert "weyl_basis_passes_delta_criterion: yes" in out
    assert "verdict: yes" in out


def test_compare_rejects_parameters(tmp_path, capsys):
    text = "ring x1 x2 x3\ndvars d1 d2\nP = x3*d1\n"
    rc, _ = run(tmp_path, text, ["compare", "FILE"], capsys)
    assert rc == 2


def test_cap_exceeded_exit_code(tmp_path, capsys):
    rc, out = run(tmp_path, EULER, ["delta-gb", "FILE", "--cap", "0"], capsys)
    assert rc == 3
    assert "cap" in out.lower()


def test_parse_error_exit_code(tmp_path, capsys):
    rc, out = run(tmp_path, "ring x1\ndvars d1\nP = (x1 + \n",
                  ["delta-gb", "FILE"], capsys)
    assert rc == 2
    assert "line 3" in out


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["delta-gb", str(tmp_path / "nope.dop")])
    capsys.readouterr()
    assert rc == 2


def test_bad_alpha_exit_code(tmp_path, capsys):
    bad = ["(1,2,3)", "pears",
           # --alpha takes the problem file's tuple grammar: 1_0 is no
           # integer literal, and stray commas, parentheses, signs and
           # statement breaks are errors
           "1_0,0", "1,,0", "((1,0))", "1,0)", "+1,0", "1;0", ""]
    for alpha in bad:
        rc, out = run(tmp_path, EX6, ["cone", "FILE", "--alpha", alpha], capsys)
        assert rc == 2, alpha
        assert "cannot read exponent tuple" in out


@pytest.mark.parametrize("text", [EULER, EX6])
def test_negative_cap_is_a_usage_error(tmp_path, capsys, text):
    # EULER needs an addition, EX6 none: either way the cap is refused
    for cmd in ("delta-gb", "gb"):
        rc, out = run(tmp_path, text, [cmd, "FILE", "--cap", "-1"], capsys)
        assert rc == 2
        assert "cap must be nonnegative" in out


def test_unknown_subcommand_exit_code(tmp_path, capsys):
    rc = main(["frobnicate", write(tmp_path, EX6)])
    capsys.readouterr()
    assert rc == 2


def test_run_command_api_returns_document(tmp_path):
    problem = parse_problem(EX6 + "delta-gb\n")
    doc = run_command(problem, problem.command.name)
    assert doc.command == "delta-gb"
    assert doc.verdict is None
    blob = json.loads(doc.to_json())
    assert blob["outputs"]["stats"]["additions"] == 0


def test_header_lists_ring_and_inputs(tmp_path, capsys):
    rc, out = run(tmp_path, EX6, ["stair", "FILE"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "command: stair"
    assert lines[1] == "ring: x1 x2 | d1 d2 | order deglex"
    assert lines[2] == "input: P1 = (x1)*d1 + (x1)*d2 + (x1)"
    assert lines[3] == "input: P2 = (x2 - x1)*d2 + (-1)"


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommands_follow_the_command_table():
    names = tuple(_subparsers())
    assert names == ("run",) + tuple(COMMANDS)
    assert tuple(_HELP) == names


def test_every_subcommand_takes_all_flags():
    for name, sub in _subparsers().items():
        kind = COMMANDS.get(name)
        argv = ["FILE", "--order", "lex", "--order-x", "degrevlex", "--json",
                "--cap", "8", "--tail-reduce"]
        argv += {"expr": ["d1"], "alpha": ["--alpha", "1,0"]}.get(kind, [])
        args = sub.parse_args(argv)
        assert (args.file, args.order, args.order_x, args.json, args.cap,
                args.tail_reduce) == ("FILE", "lex", "degrevlex", True, 8, True)
        assert getattr(args, "expr", None) == ("d1" if kind == "expr" else None)
        assert getattr(args, "alpha", None) == ("1,0" if kind == "alpha" else None)


def test_member_no_verdict_reduces_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = deltabasis.reduce

    def counting(p, *args, **kwargs):
        calls.append(p.to_str())
        return original(p, *args, **kwargs)

    # completion reduces its S-operators too; count only the query "1"
    monkeypatch.setattr(cli, "reduce", counting)
    monkeypatch.setattr(deltabasis, "reduce", counting)
    rc, out = run(tmp_path, EX6, ["member", "FILE", "1"], capsys)
    assert rc == 1 and "remainder: (1)" in out
    assert calls.count("(1)") == 1


@pytest.mark.parametrize("command", GOLDEN_CASES)
def test_golden_documents(tmp_path, capsys, command):
    # full text and JSON output with the exit code: a change of wording,
    # key order or exit code fails here
    want = json.loads(GOLDEN.read_text())[command]
    text, extra = GOLDEN_CASES[command]
    for fmt, flags in (("text", []), ("json", ["--json"])):
        rc, out = run(tmp_path, text, [command, "FILE", *extra, *flags], capsys)
        assert rc == want["code"], fmt
        assert out == want[fmt], fmt


def test_golden_documents_cover_every_subcommand():
    assert tuple(GOLDEN_CASES) == ("run",) + tuple(COMMANDS)
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(GOLDEN_CASES)


def test_readme_subcommand_table_follows_the_parser():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("### Subcommands", 1)[1].split("\n#", 1)[0]
    names = [line.split("`")[1].split()[0] for line in section.splitlines()
             if line.startswith("| `")]
    assert sorted(names) == sorted(_subparsers())
    assert len(names) == len(set(names))


# -- help and usage errors ---------------------------------------------------

# case -> argument list; FILE is a valid problem file in the working
# directory, so no temporary path reaches the output
USAGE_CASES = {
    "no arguments": [],
    "help": ["-h"],
    "unknown command": ["frobnicate", "FILE"],
    **{f"{name} -h": [name, "-h"] for name in _HELP},
    "missing file argument": ["delta-gb"],
    "nonexistent file": ["delta-gb", "missing.dop"],
    "missing expr": ["member", "FILE"],
    "missing alpha": ["cone", "FILE"],
    "bad order": ["stair", "FILE", "--order", "nope"],
    "extra argument": ["gb", "FILE", "extra"],
    "extra flag": ["member", "FILE", "d1", "--nope"],
}
USAGE_GOLDEN = Path(__file__).resolve().parent / "cli_usage_golden.json"


def run_usage(tmp_path, monkeypatch, capsys, argv):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prob.dop").write_text(EX6)
    rc = main(["prob.dop" if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    return {"code": rc, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("case", USAGE_CASES)
def test_usage_golden(tmp_path, monkeypatch, capsys, case):
    # help texts, usage errors and exit codes, byte for byte
    want = json.loads(USAGE_GOLDEN.read_text())[case]
    assert run_usage(tmp_path, monkeypatch, capsys, USAGE_CASES[case]) == want


def test_usage_golden_covers_every_case():
    assert sorted(json.loads(USAGE_GOLDEN.read_text())) == sorted(USAGE_CASES)


def test_usage_of_the_module_entry_point(tmp_path, monkeypatch, capsys):
    # python -m diffgb calls main() with no argument list: it parses sys.argv
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=path)
    for argv in (["member", "-h"], ["gb", "FILE", "extra"]):
        want = run_usage(tmp_path, monkeypatch, capsys, argv)
        args = ["prob.dop" if a == "FILE" else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "diffgb", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr} == want


def test_narrowed_parser_agrees_with_the_full_one():
    flags = ["--order", "lex", "--order-x", "degrevlex", "--json", "--cap", "8",
             "--tail-reduce"]
    for name in _HELP:
        operand = {"expr": ["d1"], "alpha": ["--alpha", "1,0"]}.get(COMMANDS.get(name), [])
        for argv in ([name, "FILE", *operand], [name, "FILE", *flags, *operand]):
            assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)


def test_a_call_builds_only_the_subparser_it_names(tmp_path, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    rc, out = run(tmp_path, EX6, ["stair", "FILE"], capsys)
    assert rc == 0 and "stair:" in out
    assert built == ["stair"]
    # with no argument list main reads sys.argv, and narrows on it too
    built.clear()
    monkeypatch.setattr(sys, "argv", ["diffgb", "stair", write(tmp_path, EX6)])
    assert main() == 0
    capsys.readouterr()
    assert built == ["stair"]
    # no subcommand first: the full parser, for help and usage errors
    built.clear()
    assert main(["--json"]) == 2
    capsys.readouterr()
    assert built == list(_HELP)
