"""Problem files and expression parsing."""

import random
import re
import time
from pathlib import Path

import pytest

from diffgb import ParseError, parse_expression, parse_problem, rebind_order
from diffgb.problems import COMMANDS, MAX_EXPONENT, MAX_TERMS, _tokenize, parse_alpha
from helpers import example6_ops, rand_op, ring2
from test_bench_hooks import load_workloads

EX6 = """\
# running example
ring x1 x2
dvars d1 d2
order deglex

P1 = x1*d1 + x1*d2 + x1
P2 = (x2 - x1)*d2 - 1
delta-gb
"""


def test_parse_running_example():
    pf = parse_problem(EX6)
    assert pf.ring.n == 2 and pf.ring.m == 0
    assert pf.ring.names == ("x1", "x2")
    assert pf.ring.dnames == ("d1", "d2")
    assert pf.ring.order_delta.kind == "deglex"
    _, p1, p2 = example6_ops(pf.ring)
    assert pf.operators == {"P1": p1, "P2": p2}
    assert pf.command.name == "delta-gb"
    assert pf.command.expr is None and pf.command.alpha is None


def test_parameter_ring_layout():
    pf = parse_problem("ring x1 x2 x3\ndvars d1 d2\nP = x3*d1")
    assert pf.ring.n == 2 and pf.ring.m == 1
    assert pf.operators["P"].c_delta().to_str(pf.ring.names) == "x3"


def test_statements_split_on_semicolons():
    pf = parse_problem("ring x1 x2 ; dvars d1 d2 ; order lex ; P = d1 ; gb")
    assert pf.ring.order_delta.kind == "lex"
    assert list(pf.operators) == ["P"]
    assert pf.command.name == "gb"


def test_product_normalizes_while_parsing():
    pf = parse_problem("ring x1\ndvars d1\nP = d1*x1")
    assert pf.operators["P"].to_str() == "(x1)*d1 + (1)"


def test_zero_definition_is_allowed():
    pf = parse_problem("ring x1\ndvars d1\nZ = x1 - x1")
    assert pf.operators["Z"].is_zero()


def test_rational_literals_and_powers():
    pf = parse_problem("ring x1\ndvars d1\nP = 3/2*x1^2*d1^3 - 1/2")
    p = pf.operators["P"]
    assert p.exp_delta() == (3,)
    assert p.to_str() == "(3/2*x1^2)*d1^3 + (-1/2)"


def test_unary_minus_and_nesting():
    pf = parse_problem("ring x1\ndvars d1\nP = -(x1 - 2)*d1 - -3")
    assert pf.operators["P"].to_str() == "(-x1 + 2)*d1 + (3)"


def test_named_reuse_in_later_definitions():
    pf = parse_problem(
        "ring x1 x2\ndvars d1 d2\nA = x1*d1\nB = A*A + d2\n")
    a = pf.operators["A"]
    assert pf.operators["B"] == a * a + pf.ring.d(1)


def test_member_command_payload():
    pf = parse_problem(EX6.replace("delta-gb", "member d2*P1 - d1*P2"))
    assert pf.command.name == "member"
    r = pf.ring
    p1, p2 = pf.operators["P1"], pf.operators["P2"]
    assert pf.command.expr == r.d(1) * p1 - r.d(0) * p2


def test_alpha_command_payload():
    pf = parse_problem(EX6.replace("delta-gb", "sdelta (1, 1)"))
    assert pf.command.name == "sdelta"
    assert pf.command.alpha == (1, 1)
    pf = parse_problem(EX6.replace("delta-gb", "cone (2,0)"))
    assert pf.command.alpha == (2, 0)


def test_verify_command_name_joins_tokens():
    pf = parse_problem(EX6.replace("delta-gb", "verify-delta-gb"))
    assert pf.command.name == "verify-delta-gb"


def test_problem_without_command():
    pf = parse_problem("ring x1\ndvars d1\nP = d1")
    assert pf.command is None


def positions(err):
    return err.value.line, err.value.col


def test_error_undeclared_name():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1\ndvars d1\nP = x1 + y\n")
    assert "y" in str(err.value)
    assert positions(err) == (3, 10)


def test_error_declarations_must_come_first():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1\ndvars d1\nP = x1\nring x2\n")
    assert positions(err)[0] == 4


def test_error_missing_dvars():
    with pytest.raises(ParseError):
        parse_problem("ring x1\nP = x1\n")


def test_error_too_many_dvars():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1 d2\nP = x1\n")


def test_error_redefinition():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1\ndvars d1\nP = x1\nP = d1\n")
    assert "already defined" in str(err.value)


def test_error_shadowing_ring_variable():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nx1 = d1\n")


def test_error_bad_order_kind():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\norder fancy\nP = x1\n")


def test_error_bad_exponent():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1\ndvars d1\nP = x1^x1\n")
    assert "exponent" in str(err.value)


def test_exponent_limit():
    pf = parse_problem(f"ring x1\ndvars d1\nP = x1^{MAX_EXPONENT}\n")
    assert pf.operators["P"].c_delta().degree() == MAX_EXPONENT
    for exp in (str(MAX_EXPONENT + 1), "1000000", "9" * 5000):
        with pytest.raises(ParseError) as err:
            parse_problem(f"ring x1\ndvars d1\nP = x1^{exp}\n")
        assert (err.value.line, err.value.col) == (3, 8)
        assert "limit" in err.value.message


def test_integer_literal_limit():
    big = "7" * 5000
    for stmt, col in [(f"P = {big}", 5), (f"P = 1/{big}", 5), (f"P = {big}/7", 5),
                      (f"cone ({big},0)", 7)]:
        with pytest.raises(ParseError) as err:
            parse_problem(f"ring x1 x2\ndvars d1 d2\n{stmt}\n")
        assert err.value.message == "integer literal exceeds the limit of 4300 digits"
        assert (err.value.line, err.value.col) == (3, col)
    with pytest.raises(ParseError) as err:
        parse_alpha(f"{big},0", parse_problem(EX6))
    assert "4300 digits" in err.value.message and err.value.col == 1
    # at the limit both halves still parse
    pf = parse_problem(f"ring x1\ndvars d1\nP = {'7' * 4300}/{'7' * 4300}\n")
    assert pf.operators["P"] == pf.ring.embed(1)


def test_power_size_limit():
    # (x1+x2+d1+d2+1)^40 has C(44, 4) = 135751 terms: refused before
    # expanding, which takes seconds
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1 x2\ndvars d1 d2\nP = (x1 + x2 + d1 + d2 + 1)^40\n")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.col) == (3, 29)
    assert err.value.message == f"power may exceed the limit of {MAX_TERMS} terms"
    # the bound C(k*D + v, v) at its edge: C(141, 2) = 9870, C(142, 2) = 10011
    assert MAX_TERMS == 10000
    pf = parse_problem("ring x1 x2\ndvars d1\nP = (x1 + x2)^139\n")
    assert pf.operators["P"].c_delta().degree() == 139
    with pytest.raises(ParseError):
        parse_problem("ring x1 x2\ndvars d1\nP = (x1 + x2)^140\n")
    with pytest.raises(ParseError):
        parse_problem("ring x1 x2\ndvars d1\nP = (x1 + d1)^140\n")


def test_product_size_limit():
    # P1 has 1820 terms, its square is bounded by C(28, 4) = 20475 terms
    # and costs 1820^2 term pairs: refused at the '*' before multiplying
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1 x2\ndvars d1 d2\n"
                      "P1 = (x1 + x2 + d1 + d2 + 1)^12; P2 = P1*P1\n")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.col) == (3, 41)
    assert err.value.message == f"product may exceed the limit of {MAX_TERMS} terms"
    # 100^2 term pairs, each spilling up to 100^2 Leibniz terms: refused
    # before multiplying, which takes seconds
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1 x2\ndvars d1 d2\nP = (d1 + d2)^99*(x1 + x2)^99\n")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.col) == (3, 17)
    # one term pair: a large degree bound alone refuses nothing
    pf = parse_problem("ring x1\ndvars d1\nP = x1^1000*d1^1000\n")
    assert pf.operators["P"].exp_delta() == (1000,)
    # 231^2 term pairs, but at most C(42, 2) = 861 terms
    pf = parse_problem("ring x1 x2\ndvars d1\nP = (x1 + x2 + 1)^20; Q = P*P\n")
    assert pf.operators["Q"].c_delta().degree() == 40


@pytest.mark.parametrize("var", ["x1", "d1"])
def test_a_product_reaching_the_degree_limit_is_a_parse_error_at_the_star(var):
    # 21 squarings of var^1000 stay below 2^31; the 22nd reaches it, a
    # monomial product that neither size bound refuses
    lines = ["ring x1", "dvars d1", f"A0 = {var}^1000"]
    lines += [f"A{k} = A{k - 1}*A{k - 1}" for k in range(1, 22)]
    pf = parse_problem("\n".join(lines) + "\n")
    assert str(pf.operators["A21"]) == (
        f"({var}^{1000 * 2 ** 21})" if var == "x1" else f"(1)*{var}^{1000 * 2 ** 21}")
    lines.append("A22 = A21*A21")
    with pytest.raises(ParseError) as err:
        parse_problem("\n".join(lines) + "\n")
    assert (err.value.line, err.value.col) == (len(lines), 10)
    assert err.value.message == "a total degree in 1 variables reaches the limit 2147483648"


def test_size_limits_refuse_no_known_text():
    # the README examples, both benchmark pools with the fixed examples,
    # and the files the cli-batch workload writes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```text\n(.*?)```", readme, re.S)
    declared = [b for b in blocks if re.search(r"^ring ", b, re.M)]
    # the grammar section's definitions use the ring declared just before
    defined = [b for b in blocks if re.search(r"^\w+ = ", b, re.M) and b not in declared]
    texts = declared + [declared[-1] + b for b in defined]
    texts.append(re.search(r'source = """(.*?)"""', readme, re.S).group(1))
    assert len(texts) == 4
    workloads = load_workloads()
    corpus = workloads.corpus
    pool = corpus.complete_pool()
    texts += [corpus.problem_text(p, "delta-gb")
              for p in pool + corpus.weyl_pool() + corpus.FIXED]
    texts += [corpus.problem_text(workloads.syzygy_problem(p)) for p in pool]
    for text in texts:
        parse_problem(text)


def test_error_division_by_zero_literal():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1\ndvars d1\nP = 1/0\n")
    assert "zero" in str(err.value)


def test_error_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nP = (x1 + 1\n")


def test_error_trailing_tokens():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nP = x1 x1\n")


def test_error_unknown_character():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x1\ndvars d1\nP = x1 @ 2\n")
    assert positions(err) == (3, 8)


def test_error_unknown_command():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nP = d1\nsolve\n")


def test_error_two_commands():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nP = d1\nstair\nstair\n")


def test_error_command_argument_arity():
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nP = d1\nmember\n")
    with pytest.raises(ParseError):
        parse_problem("ring x1\ndvars d1\nP = d1\nstair d1\n")
    with pytest.raises(ParseError):
        parse_problem("ring x1 x2\ndvars d1 d2\nP = d1\ncone (1)\n")


def test_parse_expression_in_context():
    pf = parse_problem(EX6)
    p = parse_expression("P1 + 2*P2", pf)
    assert p == pf.operators["P1"] + 2 * pf.operators["P2"]
    with pytest.raises(ParseError):
        parse_expression("P1 ; P2", pf)
    with pytest.raises(ParseError):
        parse_expression("Q9", pf)


def test_rebind_order_changes_leading_data():
    pf = parse_problem("ring x1 x2\ndvars d1 d2\nP = x1*d1^2 + x2*d2^3\n")
    assert pf.operators["P"].exp_delta() == (0, 3)  # deglex
    lexed = rebind_order(pf, "lex")
    assert lexed.operators["P"].exp_delta() == (2, 0)
    assert lexed.ring.order_delta.kind == "lex"


def test_tokenizer_tracks_positions():
    stmts = _tokenize("ring x1\n  P = x1 # note\n")
    assert stmts[0][0].line == 1 and stmts[0][0].col == 1
    assert stmts[1][0].line == 2 and stmts[1][0].col == 3
    assert [t.value for t in stmts[1]] == ["P", "=", "x1"]
    # the position of a bad character counts a comment's line, the ';'
    # and the tab as plain characters
    with pytest.raises(ParseError) as err:
        _tokenize("ring x1 # note ; here\ndvars d1\nP = x1;\tQ = $ 1")
    assert positions(err) == (3, 13)
    assert err.value.message == "unexpected character '$'"


def test_round_trip_display_form():
    rng = random.Random(81)
    r = ring2()
    pf = parse_problem("ring x1 x2\ndvars d1 d2\n")
    for _ in range(200):
        op = rand_op(rng, r, max_order=3, max_terms=4, max_deg=3, zero_ok=True)
        back = parse_expression(op.to_str(), pf)
        assert back == op


def test_every_command_parses_with_its_argument():
    args = {"expr": " d2*P1 - d1*P2", "alpha": " (1,0)", None: ""}
    for name, kind in COMMANDS.items():
        pf = parse_problem(EX6.replace("delta-gb", name + args[kind]))
        assert pf.command.name == name
        assert (pf.command.expr is not None) == (kind == "expr")
        assert pf.command.alpha == ((1, 0) if kind == "alpha" else None)
        # the argument is required exactly where the command takes one
        wrong = "" if kind else " (1,0)"
        with pytest.raises(ParseError):
            parse_problem(EX6.replace("delta-gb", name + wrong))


def test_parse_alpha_parentheses_optional():
    pf = parse_problem(EX6)
    for text in ("1,0", "(1,0)", " ( 1 , 0 ) ", "1 ,0"):
        assert parse_alpha(text, pf) == (1, 0)
    for text, message in [("1,0,0", "expected 2 exponent entries"),
                          ("(1,0,)", "expected 2 exponent entries"),
                          ("1,x1", "expected a nonnegative integer"),
                          ("1 0", "expected ','"),
                          ("((1,0))", "expected a nonnegative integer"),
                          ("1;0", "expected an exponent tuple like (1,1)")]:
        with pytest.raises(ParseError) as err:
            parse_alpha(text, pf)
        assert err.value.message == message, text


def test_parse_alpha_columns_are_those_of_the_text():
    pf = parse_problem(EX6)
    for text, col in [("1,x1", 3), ("1,,0", 3), (" 1,$", 4), ("(1,x1)", 4), ("(1,,0)", 4)]:
        with pytest.raises(ParseError) as err:
            parse_alpha(text, pf)
        assert (err.value.line, err.value.col) == (1, col), text


def test_alpha_readers_agree():
    # parse_alpha reads a tuple exactly as the statement 'cone (t)' does;
    # a text that already opens with '(' is read as it stands
    pf = parse_problem(EX6)
    rng = random.Random(94)
    pieces = ["0", "1", "2", "10", ",", ",", " ", "(", ")", "_", "+", ";"]

    def noise(k):
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, k)))

    read = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            text = noise(7)
        else:
            # a well-formed tuple, perhaps broken inside, between noise
            t = rng.choice(["1,0", "(0,2)", " ( 10 , 1 ) ", "2 , 2"])
            k = rng.randint(0, len(t))
            text = noise(2) + t[:k] + noise(1) + t[k:] + noise(2)
        statement = "cone " + (text if text.lstrip().startswith("(") else f"({text})")
        try:
            want = parse_problem(EX6.replace("delta-gb", statement)).command.alpha
        except ParseError:
            want = None
        try:
            got = parse_alpha(text, pf)
        except ParseError:
            got = None
        assert got == want, repr(text)
        read += want is not None
    assert read >= 150
