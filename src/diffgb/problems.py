"""Problem files: a tiny declaration language for operator computations.

A problem is a sequence of statements separated by newlines or ';'.

    ring x1 x2          # all polynomial variables, in order
    dvars d1 d2         # derivation symbols; d_i acts on the i-th ring
                        # variable, surplus ring variables are parameters
    order deglex        # d-order kind: lex | deglex | degrevlex
    P1 = x1*d1 + x1*d2 + x1
    P2 = (x2 - x1)*d2 - 1
    delta-gb            # optional command payload

Expressions use + - * ^ ( ), integer and p/q literals of at most 4300
digits each; '*' is required between factors and '^' takes a
nonnegative integer of at most MAX_EXPONENT and may expand to at most
MAX_TERMS terms.  A product ``a*b`` is refused at the '*' when it both
may cost more than MAX_TERMS monomial products (term pairs, with the
Leibniz terms each pair spills) and may expand to more than MAX_TERMS
terms, so a product of many small terms and a product of two large
monomials still parse.  Everything is normalized through the
operator product while parsing, so definitions like ``d1*x1`` come out
in normal form immediately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .diffop import DiffOp, RingSpec
from .orders import MonomialOrder, ORDER_KINDS
from .poly import _FIELD, _layout

# command name -> argument kind: an operator expression, an exponent
# tuple, or nothing
COMMANDS = {
    "delta-gb": None, "gb": None, "reduce": "expr", "member": "expr",
    "stair": None, "cone": "alpha", "sdelta": "alpha",
    "verify-delta-gb": None, "flatness": None, "finiteness": None,
    "syzygy": None, "compare": None,
}

# largest exponent '^' accepts: a power is expanded by repeated
# multiplication, so an unbounded one could stall the parser
MAX_EXPONENT = 1000
# largest size '^' and '*' may expand to, checked before expanding: b^k
# has at most C(k*D + v, v) terms if b has total degree D (x and d
# together) in v distinct variables, as Leibniz terms only lower the
# degree; a*b has at most C(Da + Db + v, v) terms, and its cost is
# bounded by _product_cost
MAX_TERMS = 10000

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<sep>[\n;])
      | (?P<rat>\d+/\d+)
      | (?P<nat>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<sym>[-+*^()=,])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _monomials(op: DiffOp) -> list[tuple]:
    """The exponents of op's terms, x and d together."""
    ux, ud = _layout(op.ring.nvars).unpack, _layout(op.ring.n).unpack
    return [ux(x) + ud(d) for d, p in op._terms.items() for x in p._nums]


def _product_cost(a: DiffOp, b: DiffOp) -> int:
    """A bound on the monomial products a*b takes: |a|*|b| term pairs,
    each spilling at most min(k, j) + 1 Leibniz terms per slot i, where
    k is the highest power of d_i in a and j that of x_i in b."""
    cost = (sum(len(p._nums) for p in a._terms.values())
            * sum(len(p._nums) for p in b._terms.values()))
    xs, ds = _layout(b.ring.nvars).shifts, _layout(a.ring.n).shifts
    for i, s in enumerate(ds):
        if not cost:
            break
        k = max((d >> s) & _FIELD for d in a._terms)
        if k:
            j = max((x >> xs[i]) & _FIELD for p in b._terms.values() for x in p._nums)
            cost *= min(k, j) + 1
    return cost


def _size_bound(exps: list[tuple], degree: int) -> int:
    """C(degree + v, v): the number of monomials of total degree at most
    degree in the v variables that occur in exps."""
    v = sum(map(any, zip(*exps)))
    return comb(degree + v, v)


class ParseError(Exception):
    """Syntax or semantic error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str   # 'nat' | 'rat' | 'ident' | 'sym'
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[list[Token]]:
    """Token lists, one per statement (split on ';' and newlines)."""
    statements: list[list[Token]] = [[]]
    line, start = 1, 0  # start: the offset where the current line begins
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, m.start() - start + 1)
        if kind == "sep":
            statements.append([])
            if value == "\n":
                line, start = line + 1, m.end()
        elif kind not in ("ws", "comment"):
            col = m.start() - start + 1
            # Python's int() refuses longer strings, and reading one is slow
            if kind in ("nat", "rat") and max(map(len, value.split("/"))) > 4300:
                raise ParseError("integer literal exceeds the limit of 4300 digits",
                                 line, col)
            statements[-1].append(Token(kind, value, line, col))
    return [s for s in statements if s]


@dataclass
class Command:
    """Parsed command payload: name plus its single argument, if any."""

    name: str
    expr: DiffOp | None = None
    alpha: tuple | None = None


@dataclass
class ProblemFile:
    ring: RingSpec
    operators: dict[str, DiffOp]
    command: Command | None


class _Parser:
    """The one reader of problem text: statements, expressions (by
    recursive descent, every value an operator) and exponent tuples.
    Seeded with a parsed problem, it reads in that problem's ring and
    operators."""

    def __init__(self, problem: ProblemFile | None = None):
        self.ring: RingSpec | None = problem.ring if problem else None
        self.xnames = self.ring.names if problem else None
        self.dnames = self.ring.dnames if problem else None
        self.order_kind = "deglex"
        self.operators: dict[str, DiffOp] = problem.operators if problem else {}
        self.command: Command | None = None
        # the expression cursor, and the anchor for end-of-input errors
        self.toks: list[Token] = []
        self.pos = 0
        self.at: Token | None = None

    # -- statement level -------------------------------------------------

    def feed(self, toks: list[Token]) -> None:
        head = toks[0]
        if head.kind != "ident":
            raise ParseError(f"statement cannot start with {head.value!r}",
                             head.line, head.col)
        if head.value in ("ring", "dvars", "order"):
            self._declaration(toks)
            return
        if len(toks) > 1 and toks[1].kind == "sym" and toks[1].value == "=":
            self._definition(toks)
            return
        self._command(toks)

    def _declaration(self, toks: list[Token]) -> None:
        head, rest = toks[0], toks[1:]
        if self.ring is not None:
            raise ParseError(f"'{head.value}' must come before any definition",
                             head.line, head.col)
        names = []
        for t in rest:
            if t.kind != "ident":
                raise ParseError(f"expected a name, found {t.value!r}", t.line, t.col)
            names.append(t.value)
        if not names:
            raise ParseError(f"'{head.value}' needs at least one argument",
                             head.line, head.col)
        if head.value == "ring":
            if self.xnames is not None:
                raise ParseError("duplicate ring declaration", head.line, head.col)
            self.xnames = tuple(names)
        elif head.value == "dvars":
            if self.dnames is not None:
                raise ParseError("duplicate dvars declaration", head.line, head.col)
            self.dnames = tuple(names)
        else:
            if len(names) != 1 or names[0] not in ORDER_KINDS:
                raise ParseError("order must be one of lex, deglex, degrevlex",
                                 head.line, head.col)
            self.order_kind = names[0]

    def _ensure_ring(self, at: Token) -> RingSpec:
        if self.ring is None:
            if self.xnames is None or self.dnames is None:
                raise ParseError("ring and dvars must be declared first",
                                 at.line, at.col)
            n = len(self.dnames)
            m = len(self.xnames) - n
            if m < 0:
                raise ParseError("more derivation symbols than ring variables",
                                 at.line, at.col)
            try:
                self.ring = RingSpec(n, m, self.xnames, self.dnames,
                                     MonomialOrder(self.order_kind))
            except ValueError as e:
                raise ParseError(str(e), at.line, at.col) from None
        return self.ring

    def _definition(self, toks: list[Token]) -> None:
        name_tok = toks[0]
        ring = self._ensure_ring(name_tok)
        name = name_tok.value
        if name in ring.names or name in ring.dnames:
            raise ParseError(f"{name!r} is a ring variable", name_tok.line, name_tok.col)
        if name in self.operators:
            raise ParseError(f"{name!r} is already defined", name_tok.line, name_tok.col)
        self.operators[name] = self.expression(toks[2:], toks[1])

    def _command(self, toks: list[Token]) -> None:
        # command names may contain '-': join ident ('-' ident)* greedily
        if self.command is not None:
            raise ParseError("only one command statement is allowed",
                             toks[0].line, toks[0].col)
        name = toks[0].value
        i = 1
        while (i + 1 < len(toks) and toks[i].kind == "sym" and toks[i].value == "-"
               and toks[i + 1].kind == "ident"
               and any(c.startswith(f"{name}-{toks[i + 1].value}") for c in COMMANDS)):
            name = f"{name}-{toks[i + 1].value}"
            i += 2
        if name not in COMMANDS:
            raise ParseError(f"unknown command or statement {name!r}",
                             toks[0].line, toks[0].col)
        self._ensure_ring(toks[0])
        rest = toks[i:]
        cmd = Command(name)
        kind = COMMANDS[name]
        if kind == "expr":
            if not rest:
                raise ParseError(f"'{name}' needs an operator expression",
                                 toks[0].line, toks[0].col)
            cmd.expr = self.expression(rest, toks[0])
        elif kind == "alpha":
            cmd.alpha = self._alpha(rest, toks[0])
        elif rest:
            t = rest[0]
            raise ParseError(f"'{name}' takes no arguments", t.line, t.col)
        self.command = cmd

    def _alpha(self, toks: list[Token], at: Token) -> tuple:
        # the ring is in place: a command statement ensures it, a seeded
        # parser starts with it
        if (not toks or toks[0].kind != "sym" or toks[0].value != "("
                or toks[-1].kind != "sym" or toks[-1].value != ")"):
            raise ParseError("expected an exponent tuple like (1,1)", at.line, at.col)
        # the body alternates integer, ',', integer, ...
        entries = []
        for k, t in enumerate(toks[1:-1]):
            if k % 2:
                if t.kind != "sym" or t.value != ",":
                    raise ParseError("expected ','", t.line, t.col)
            elif t.kind != "nat":
                raise ParseError("expected a nonnegative integer", t.line, t.col)
            else:
                entries.append(int(t.value))
        if len(toks) % 2 == 0 or len(entries) != self.ring.n:
            raise ParseError(f"expected {self.ring.n} exponent entries", at.line, at.col)
        return tuple(entries)

    # -- expressions: the ring is in place before any is read ---------------

    def expression(self, toks: list[Token], at: Token) -> DiffOp:
        """The operator that the whole of toks denotes; at anchors errors
        at the end of the input."""
        self.toks, self.pos, self.at = toks, 0, at
        value = self._sum()
        t = self._peek()
        if t is not None:
            raise ParseError(f"unexpected {t.value!r}", t.line, t.col)
        return value

    def _peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self, expect: str | None = None) -> Token:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.at.line, self.at.col)
        if expect is not None and (t.kind != "sym" or t.value != expect):
            raise ParseError(f"expected {expect!r}, found {t.value!r}", t.line, t.col)
        self.pos += 1
        return t

    def _sum(self) -> DiffOp:
        value = self._product()
        while True:
            t = self._peek()
            if t is not None and t.kind == "sym" and t.value in "+-":
                self.pos += 1
                rhs = self._product()
                value = value + rhs if t.value == "+" else value - rhs
            else:
                return value

    def _product(self) -> DiffOp:
        value = self._unary()
        while True:
            t = self._peek()
            if t is not None and t.kind == "sym" and t.value == "*":
                self.pos += 1
                rhs = self._unary()
                # the cost is cheap to count; the degree bound is read only
                # for a costly product
                if _product_cost(value, rhs) > MAX_TERMS:
                    a, b = _monomials(value), _monomials(rhs)
                    degree = max(map(sum, a)) + max(map(sum, b))
                    if _size_bound(a + b, degree) > MAX_TERMS:
                        raise ParseError(
                            f"product may exceed the limit of {MAX_TERMS} terms",
                            t.line, t.col)
                try:
                    value = value * rhs
                except ValueError as e:  # a degree reaches the limit
                    raise ParseError(str(e), t.line, t.col) from None
            else:
                return value

    def _unary(self) -> DiffOp:
        t = self._peek()
        if t is not None and t.kind == "sym" and t.value in "+-":
            self.pos += 1
            value = self._unary()
            return value if t.value == "+" else -value
        return self._power()

    def _power(self) -> DiffOp:
        value = self._atom()
        while True:
            t = self._peek()
            if t is None or t.kind != "sym" or t.value != "^":
                return value
            self.pos += 1
            e = self._peek()
            if e is None or e.kind != "nat":
                bad = e if e is not None else t
                raise ParseError("'^' needs a nonnegative integer exponent",
                                 bad.line, bad.col)
            k = int(e.value)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}",
                                 e.line, e.col)
            exps = _monomials(value)
            if _size_bound(exps, k * max(map(sum, exps), default=0)) > MAX_TERMS:
                raise ParseError(f"power may exceed the limit of {MAX_TERMS} terms",
                                 e.line, e.col)
            self.pos += 1
            value = value ** k

    def _atom(self) -> DiffOp:
        t = self._next()
        ring = self.ring
        if t.kind == "nat":
            return ring.embed(int(t.value))
        if t.kind == "rat":
            num, den = t.value.split("/")
            if int(den) == 0:
                raise ParseError("division by zero in a rational literal",
                                 t.line, t.col)
            return ring.embed(Fraction(int(num), int(den)))
        if t.kind == "ident":
            name = t.value
            if name in ring.names:
                return ring.embed(ring.x(ring.names.index(name)))
            if name in ring.dnames:
                return ring.d(ring.dnames.index(name))
            if name in self.operators:
                return self.operators[name]
            raise ParseError(f"undeclared name {name!r}", t.line, t.col)
        if t.kind == "sym" and t.value == "(":
            value = self._sum()
            self._next(")")
            return value
        raise ParseError(f"unexpected {t.value!r}", t.line, t.col)


def parse_problem(text: str) -> ProblemFile:
    """Parse a full problem file; raises ParseError with positions."""
    parser = _Parser()
    for stmt in _tokenize(text):
        parser.feed(stmt)
    if parser.ring is None:
        if parser.xnames is None:
            raise ParseError("problem declares no ring", 1, 1)
        parser._ensure_ring(Token("ident", "ring", 1, 1))
    return ProblemFile(parser.ring, parser.operators, parser.command)


def parse_expression(text: str, problem: ProblemFile) -> DiffOp:
    """Parse one operator expression in the context of a parsed problem."""
    statements = _tokenize(text)
    if len(statements) != 1:
        raise ParseError("expected a single expression", 1, 1)
    toks = statements[0]
    return _Parser(problem).expression(toks, toks[0])


def parse_alpha(text: str, problem: ProblemFile) -> tuple:
    """Parse an exponent tuple in the grammar of ``cone (1,0)`` for the
    ring of a parsed problem; the parentheses are optional."""
    statements = _tokenize(text)
    toks = statements[0] if len(statements) == 1 else []
    if not text.lstrip().startswith("("):
        # read as '(text)' at the text's own positions; a separator or a
        # comment would split off the '(' or swallow the ')': no tuple then
        toks = [] if re.search("[\n;#]", text) else [
            Token("sym", "(", 1, 1), *toks, Token("sym", ")", 1, 1)]
    return _Parser(problem)._alpha(toks, Token("sym", text, 1, 1))


def rebind_order(problem: ProblemFile, kind: str) -> ProblemFile:
    """Same problem under a different d-order kind."""
    old = problem.ring
    ring = RingSpec(old.n, old.m, old.names, old.dnames, MonomialOrder(kind))
    # the packed d-keys do not depend on the order
    ops = {k: DiffOp._make(ring, dict(v._terms)) for k, v in problem.operators.items()}
    cmd = problem.command
    if cmd is not None:
        expr = (DiffOp._make(ring, dict(cmd.expr._terms))
                if cmd.expr is not None else None)
        cmd = Command(cmd.name, expr, cmd.alpha)
    return ProblemFile(ring, ops, cmd)
