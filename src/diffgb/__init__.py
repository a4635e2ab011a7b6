"""Exact bases for left ideals of linear differential operators.

The ring is H[d1, ..., dn] with H a rational polynomial ring whose
first n variables are differentiated and whose remaining variables are
parameters.  Computations are exact over the rationals throughout.
"""

from .deltabasis import (
    CompletionCapExceeded,
    DeltaBasis,
    GeneratorSet,
    ReductionTrace,
    SDeltaOp,
    complete,
    cone_coefficients,
    cone_ideal,
    cone_ideal_of_ideal,
    delta_stair,
    is_delta_groebner,
    is_reduced,
    lcm_targets,
    member,
    minimal_stair,
    reduce,
    s_delta_operators,
)
from .diffop import DiffOp, InitialTerm, RingSpec
from .dmodule import (
    CoordinateWitness,
    FinitenessReport,
    FlatnessReport,
    finiteness_test,
    flatness_report,
    product_ideal,
    unit_after_inverting,
)
from .groebner import PolyIdeal, buchberger, divide, syzygies
from .orders import MonomialOrder, deglex, degrevlex, lex
from .poly import Poly
from .problems import (
    Command,
    ParseError,
    ProblemFile,
    parse_expression,
    parse_problem,
    rebind_order,
)
from .weylbasis import (
    WeylExp,
    WeylGB,
    WeylOrder,
    buchberger_weyl,
    divide_weyl,
    exp_full,
    gb_implies_delta_check,
    is_gb,
    s_operator_weyl,
)

__version__ = "0.1.0"

__all__ = [
    "CompletionCapExceeded",
    "Command",
    "CoordinateWitness",
    "DeltaBasis",
    "DiffOp",
    "FinitenessReport",
    "FlatnessReport",
    "GeneratorSet",
    "InitialTerm",
    "MonomialOrder",
    "ParseError",
    "Poly",
    "PolyIdeal",
    "ProblemFile",
    "ReductionTrace",
    "RingSpec",
    "SDeltaOp",
    "WeylExp",
    "WeylGB",
    "WeylOrder",
    "buchberger",
    "buchberger_weyl",
    "complete",
    "cone_coefficients",
    "cone_ideal",
    "cone_ideal_of_ideal",
    "deglex",
    "degrevlex",
    "delta_stair",
    "divide",
    "divide_weyl",
    "exp_full",
    "finiteness_test",
    "flatness_report",
    "gb_implies_delta_check",
    "is_delta_groebner",
    "is_gb",
    "is_reduced",
    "lcm_targets",
    "lex",
    "member",
    "minimal_stair",
    "parse_expression",
    "parse_problem",
    "product_ideal",
    "rebind_order",
    "reduce",
    "s_delta_operators",
    "s_operator_weyl",
    "syzygies",
    "unit_after_inverting",
    "__version__",
]
