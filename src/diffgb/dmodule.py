"""Flatness and finiteness analysis of the quotient module D/I over H.

Both procedures read a certified base: the stair and its cone ideals
decide where localization keeps the expected free structure (flatness)
and whether the quotient is finitely generated over H (pure d-powers
with unit cone ideals in every derivation direction).
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltabasis import DeltaBasis
from .groebner import PolyIdeal
from .orders import ExpVec, MonomialOrder
from .poly import Poly


@dataclass
class FlatnessReport:
    """Cone data over the stair plus the product ideal J.

    Outside the zero set of J every cone ideal becomes the unit ideal
    after localization, so the initial structure of the base survives.
    The maximal such open set is only pinned down when the zero cone
    (the H-elements of the ideal) is nonzero.
    """

    stair: tuple[ExpVec, ...]
    cone_ideals: dict[ExpVec, PolyIdeal]
    J: PolyIdeal
    zero_cone: PolyIdeal
    globally_flat: bool
    maximal_set_known: bool


@dataclass
class CoordinateWitness:
    """Outcome of the pure-power test in one derivation direction."""

    coordinate: int
    degree: int | None          # max pure d-power degree seen, None if absent
    certificate: PolyIdeal      # ideal of the participating leading coefficients
    unit: bool


@dataclass
class FinitenessReport:
    finite: bool
    witnesses: list[CoordinateWitness]


def product_ideal(ideals, order: MonomialOrder, nvars: int) -> PolyIdeal:
    """Product of ideals, generated by products of one generator from
    each factor."""
    gens = [Poly.one(nvars)]
    for ideal in ideals:
        gens = [g * h for g in gens for h in ideal.generators]
    return PolyIdeal(tuple(gens), order)


def flatness_report(b: DeltaBasis) -> FlatnessReport:
    ring = b.ring
    xo = ring.x_order()
    cone_ideals = dict(b.cones)
    j = product_ideal((cone_ideals[a] for a in b.stair), xo, ring.nvars)
    # the packed key of the zero d-exponent is 0
    zero_gens = tuple(p.c_delta() for p in b.ops if not p._exp())
    zero_cone = PolyIdeal(zero_gens, xo)
    return FlatnessReport(
        stair=b.stair,
        cone_ideals=cone_ideals,
        J=j,
        zero_cone=zero_cone,
        globally_flat=all(cone_ideals[a].is_unit() for a in b.stair),
        maximal_set_known=not zero_cone.is_zero(),
    )


def finiteness_test(b: DeltaBasis) -> FinitenessReport:
    """D/I is finite over H iff every derivation direction has a pure
    d-power in the exponent set whose cone ideal is all of H.

    The chain of cone ideals along a coordinate axis stabilizes at the
    largest pure-power degree D present in the base, so testing the
    cone ideal at D*e_i, whose participants are all the pure powers of
    d_i, decides the existential.  That cone is the base's own, which
    ``complete`` keeps with its reduced base."""
    ring = b.ring
    gs = b.genset
    witnesses = []
    for i in range(ring.n):
        pure = [e for e in gs.exps if not any(e[:i] + e[i + 1:])]
        if not pure:
            witnesses.append(CoordinateWitness(i, None, PolyIdeal((), ring.x_order()), False))
            continue
        top = max(pure)  # pure powers of d_i differ only at i
        cert = gs.cone_ideal(top)
        witnesses.append(CoordinateWitness(i, top[i], cert, cert.is_unit()))
    return FinitenessReport(all(w.unit for w in witnesses), witnesses)


def _lift(p: Poly) -> Poly:
    return Poly(p.nvars + 1, {e + (0,): c for e, c in p.terms.items()})


def unit_after_inverting(ideal: PolyIdeal, s: Poly) -> bool:
    """True when the ideal extends to the unit ideal once s is inverted.

    Checked by adjoining a fresh variable t with the relation t*s = 1
    and testing the extended ideal for 1."""
    if s.is_zero():
        raise ValueError("cannot invert zero")
    k = s.nvars
    t = Poly.variable(k + 1, k)
    rel = t * _lift(s) - Poly.one(k + 1)
    gens = tuple(_lift(g) for g in ideal.generators) + (rel,)
    return PolyIdeal(gens, MonomialOrder("deglex")).is_unit()
