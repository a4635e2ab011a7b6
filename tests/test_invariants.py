"""Internal invariant checks stay in force under ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import diffgb

PACKAGE = Path(diffgb.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "bare assert statements: " + ", ".join(found)


def test_problem_text_is_read_through_public_names():
    # problems.py is the one reader of problem text: other modules call
    # parse_problem, parse_expression and parse_alpha, never its internals
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "problems.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module, node.level) in (("problems", 1), ("diffgb.problems", 0))
                  for alias in node.names if alias.name.startswith("_")]
    assert not found, "private names imported from problems: " + ", ".join(found)


def test_every_imported_name_is_read():
    # an import that nothing reads is dead code; names that __init__
    # re-exports through __all__ count as read
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read]
    assert not found, "imported names never read: " + ", ".join(found)


# cone division that claims a zero remainder but cancels nothing: reduce
# then makes no progress, and only its strict-descent check stops the loop
STALLED_REDUCE = """
import sys
from diffgb import Poly, RingSpec, reduce
from diffgb.groebner import PolyIdeal

PolyIdeal.divide = lambda self, f: (
    [Poly.zero(f.nvars) for _ in self.groebner], Poly.zero(f.nvars))
ring = RingSpec(1)
try:
    reduce(ring.d(0), [ring.d(0)])
except AssertionError as e:
    print(sys.flags.optimize, e)
"""


def test_reduce_descent_check_survives_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", STALLED_REDUCE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 reduction did not descend strictly")


# division whose base claims a wrong leading exponent for x1*d1 + x1^2*d1
# (x1*d1 instead of x1^2*d1): the step then cancels x1*d1 and leaves the
# larger x1^2*d1, and only the strict-descent check stops the loop
WRONG_HEAD_DIVISION = """
import sys
from diffgb import RingSpec, WeylOrder
from diffgb.poly import _layout
from diffgb.weylbasis import _Divisors, _divide_weyl, _flat

ring = RingSpec(1)
x, d = ring.embed(ring.x(0)), ring.d(0)
g = x * d + x * x * d
# the full key d << S | x of x1*d1
k = _layout(1).pack((1,))
base = _Divisors([g], [k << _Divisors([], [], ring).shift | k], ring)
try:
    _divide_weyl(*_flat(x * d, base.shift), WeylOrder(), base, [0])
except AssertionError as e:
    print(sys.flags.optimize, e)
"""


def test_weyl_division_descent_check_survives_optimize():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_HEAD_DIVISION],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 division did not descend strictly")
