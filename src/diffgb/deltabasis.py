"""Reduction and completion for left ideals of differential operators.

Everything here works with the d-part invariants of operators: an
exponent alpha is covered by a generator P when exp_delta(P) divides
alpha componentwise, and the cone ideal at alpha collects the leading
coefficients of the covering generators.  An operator is reduced when
its leading coefficient escapes the cone ideal at its leading exponent.
Completion adds reduced nonzero remainders of the S-operators until
every one of them reduces to zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import sub

from .diffop import DiffOp, RingSpec
from .groebner import PolyIdeal, syzygies
from .orders import ExpVec, divides, lcm_exp, minimal_indices
from .poly import Poly


class CompletionCapExceeded(RuntimeError):
    """Raised when completion would add more elements than the cap allows."""


class GeneratorSet:
    """Nonzero generators over one ring, with cached cone ideals.

    The set only grows: a generator is appended at the end and never
    removed or moved.  So a participant index tuple always names the
    same leading coefficients in the same order, and a cone ideal
    cached under it stays valid however many generators follow.  Three
    memos are kept under the exponent: the participants, the cone rows
    and the S-operators (of an lcm target).  An append forgets their
    entries for every exponent the new generator's exponent divides:
    those are the exponents whose participants it changes.  At any
    other exponent the S-operators stay what they were, except that
    their ``lam`` is one zero entry short per generator appended since.
    """

    def __init__(self, ops, ring: RingSpec | None = None):
        ops = tuple(ops)
        if not ops:
            raise ValueError("need at least one generator")
        self.ring = ops[0].ring if ring is None else ring
        self.ops: tuple[DiffOp, ...] = ()
        self.exps: tuple[ExpVec, ...] = ()
        self._cones: dict[tuple[int, ...], PolyIdeal] = {}
        self._idxs: dict[ExpVec, tuple[int, ...]] = {}
        self._rows: dict[ExpVec, list] = {}
        self._sops: dict[ExpVec, tuple] = {}
        for p in ops:
            self._append(p)

    def _append(self, p: DiffOp) -> None:
        if not isinstance(p, DiffOp) or p.ring != self.ring:
            raise ValueError("generators must be operators over one ring")
        if p.is_zero():
            raise ValueError("zero operators cannot generate")
        e = p.exp_delta()
        self.ops += (p,)
        self.exps += (e,)
        self._idxs = {a: v for a, v in self._idxs.items() if not divides(e, a)}
        self._rows = {a: v for a, v in self._rows.items() if not divides(e, a)}
        self._sops = {a: v for a, v in self._sops.items() if not divides(e, a)}

    @classmethod
    def wrap(cls, f) -> "GeneratorSet":
        return f if isinstance(f, GeneratorSet) else cls(f)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __getitem__(self, i):
        return self.ops[i]

    def participants(self, alpha: ExpVec) -> tuple[int, ...]:
        """Indices whose leading d-exponent divides alpha."""
        idxs = self._idxs.get(alpha)
        if idxs is None:
            idxs = tuple(i for i, e in enumerate(self.exps) if divides(e, alpha))
            self._idxs[alpha] = idxs
        return idxs

    def cone_ideal(self, alpha: ExpVec) -> PolyIdeal:
        idxs = self.participants(alpha)
        if idxs not in self._cones:
            gens = tuple(self.ops[i].c_delta() for i in idxs)
            self._cones[idxs] = PolyIdeal(gens, self.ring.x_order())
        return self._cones[idxs]

    def cone_row(self, alpha: ExpVec, j: int) -> DiffOp:
        """H_j = sum_k A[j][k] d^(alpha - exp_k) F_k over the participants
        k, with A the cone's expression matrix: leading exponent alpha
        with leading coefficient the j-th element of the cone's reduced
        base.  Built when first asked for."""
        idxs = self.participants(alpha)
        cone = self.cone_ideal(alpha)
        rows = self._rows.get(alpha)
        if rows is None:
            rows = self._rows[alpha] = [None] * len(cone.groebner)
        if rows[j] is None:
            h = DiffOp.zero(self.ring)
            for a, i in zip(cone.expression_matrix[j], idxs):
                if a:
                    shift = DiffOp._make(self.ring, {tuple(map(sub, alpha, self.exps[i])): a})
                    h = h + shift * self.ops[i]
            rows[j] = h
        return rows[j]


def cone_coefficients(alpha: ExpVec, f) -> list[Poly]:
    """Leading coefficients of the generators covering alpha."""
    f = GeneratorSet.wrap(f)
    return [f[i].c_delta() for i in f.participants(tuple(alpha))]


def cone_ideal(alpha: ExpVec, f) -> PolyIdeal:
    """Ideal of H generated by the covering leading coefficients
    (the zero ideal when nothing covers alpha)."""
    f = GeneratorSet.wrap(f)
    return f.cone_ideal(tuple(alpha))


def is_reduced(p: DiffOp, f) -> bool:
    """True when p is zero, its leading exponent escapes every cone, or
    its leading coefficient is outside the cone ideal there."""
    if p.is_zero():
        return True
    f = GeneratorSet.wrap(f)
    alpha = p.exp_delta()
    if not f.participants(alpha):
        return True
    return not f.cone_ideal(alpha).contains(p.c_delta())


@dataclass
class ReductionTrace:
    """Certificate P = sum cofactors[i] * F[i] + remainder; cofactors is
    None for a reduction that was asked not to lift them."""

    cofactors: tuple[DiffOp, ...] | None
    remainder: DiffOp
    steps: int = 0


def reduce(p: DiffOp, f, tail: bool = False, _lift: bool = True) -> ReductionTrace:
    """Deterministic division of p by the generator set f.

    Postconditions: the trace identity holds exactly, the remainder is
    reduced, and max over the order of exp_delta(cofactor*generator)
    and exp_delta(remainder) equals exp_delta(p).  Cofactors for each
    cancellation come from the commutative membership certificate of
    the leading coefficient over the covering generators, in input
    order.  With ``tail`` the irreducible head is peeled off and the
    rest keeps reducing instead of stopping at the first stuck head.

    A step divides the leading coefficient by the cone's reduced base
    G, with quotients u_j, and subtracts sum_j u_j * H_j over the cone
    rows of ``GeneratorSet.cone_row``.  Polynomials commute, so that is
    exactly sum_k q_k d^(alpha - exp_k) F_k for the cofactors q = u*A
    the trace records, but the u_j are small (often monomials) and a
    polynomial times an operator needs no Leibniz rule.

    With ``_lift`` false the cofactors are not lifted and the trace's
    ``cofactors`` is None; remainder and steps are the same.  The base
    check reads only the remainder, so it reduces that way.
    """
    f = GeneratorSet.wrap(f)
    ring = f.ring
    if p.ring != ring:
        raise ValueError("operator ring mismatch")
    order = ring.order_delta
    # cofactor terms per generator; alpha descends strictly, so a step
    # never writes a d-exponent that an earlier step wrote
    cof = [{} for _ in f.ops] if _lift else None
    rem = DiffOp.zero(ring)
    cur = p
    steps = 0
    prev = None
    while not cur.is_zero():
        alpha = cur.exp_delta()
        if prev is not None and order.compare(alpha, prev) >= 0:
            raise AssertionError(f"reduction did not descend strictly at {alpha}")
        prev = alpha
        idxs = f.participants(alpha)
        if idxs:
            cone = f.cone_ideal(alpha)
            us, r = cone.divide(cur.c_delta())
            if not r:
                steps += 1
                if _lift:
                    for q, i in zip(cone.lift(us), idxs):
                        if q:
                            cof[i][tuple(map(sub, alpha, f.exps[i]))] = q
                terms = dict(cur.terms)
                for j, u in enumerate(us):
                    if not u:
                        continue
                    for e, c in f.cone_row(alpha, j).terms.items():
                        s = Poly._minus_product(terms.pop(e, None), u, c)
                        if s:
                            terms[e] = s
                cur = DiffOp._make(ring, terms)
                continue
        if not tail:
            rem = cur
            break
        head = DiffOp._make(ring, {alpha: cur.c_delta()})
        rem = rem + head
        cur = cur - head
        steps += 1
    if _lift:
        cof = tuple(DiffOp._make(ring, c) for c in cof)
    return ReductionTrace(cof, rem, steps)


def lcm_targets(f) -> list[ExpVec]:
    """Closure of the leading exponents under componentwise lcm,
    sorted ascending in the active order."""
    f = GeneratorSet.wrap(f)
    targets: set[ExpVec] = set()
    for e in f.exps:
        targets |= {e} | {lcm_exp(t, e) for t in targets}
    return sorted(targets, key=f.ring.order_delta.key)


@dataclass(frozen=True)
class SDeltaOp:
    """S-operator at alpha: the syzygy vector over the full generator
    list and the resulting combination sum lam[k] d^(alpha-exp_k) F[k].
    Frozen, because a generator set shares it between calls."""

    alpha: ExpVec
    lam: tuple[Poly, ...]
    operator: DiffOp


def s_delta_operators(f, alpha: ExpVec) -> list[SDeltaOp]:
    """All S-operators at the lcm target alpha, one per syzygy generator
    of the covering leading coefficients.  Nonzero results drop strictly
    below alpha in the order.

    The generator set keeps them under alpha until an append changes
    alpha's participants; a later call gets a new list of the same
    operators, each ``lam`` padded with a zero per generator appended
    since (those do not cover alpha)."""
    f = GeneratorSet.wrap(f)
    ring = f.ring
    sops = f._sops.get(alpha)
    if sops is not None:
        pad = len(f.ops) - len(sops[0].lam) if sops else 0
        if pad:
            zeros = (Poly.zero(ring.nvars),) * pad
            sops = f._sops[alpha] = tuple(
                SDeltaOp(alpha, s.lam + zeros, s.operator) for s in sops)
        return list(sops)
    # alpha is an lcm target iff the exponents dividing it have lcm alpha
    idxs = f.participants(alpha) if len(alpha) == ring.n else ()
    if not idxs or tuple(map(max, zip(*(f.exps[i] for i in idxs)))) != alpha:
        raise ValueError(f"{alpha} is not an lcm target of the generator exponents")
    # the cone ideal holds these same coefficients in this same order,
    # so its cached base is the one syzygies would compute
    cone = f.cone_ideal(alpha)
    basis = (cone.groebner, cone.expression_matrix)
    out = []
    for part in syzygies(cone.generators, ring.x_order(), _basis=basis):
        lam = [Poly.zero(ring.nvars) for _ in f.ops]
        op = DiffOp.zero(ring)
        for pos, i in enumerate(idxs):
            lam[i] = part[pos]
            if part[pos].is_zero():
                continue
            shift = DiffOp._make(ring, {tuple(map(sub, alpha, f.exps[i])): part[pos]})
            op = op + shift * f.ops[i]
        if not op.is_zero() and ring.order_delta.compare(op.exp_delta(), alpha) >= 0:
            raise AssertionError(f"S-operator at {alpha} does not drop below it")
        out.append(SDeltaOp(alpha, tuple(lam), op))
    f._sops[alpha] = tuple(out)
    return out


def _first_failure(f: GeneratorSet, stats: dict):
    """First S-operator with a nonzero deterministic remainder, or None."""
    for alpha in lcm_targets(f):
        for sop in s_delta_operators(f, alpha):
            stats["s_operators"] += 1
            if sop.operator.is_zero():
                continue
            tr = reduce(sop.operator, f, _lift=False)
            stats["reductions"] += 1
            stats["reduction_steps"] += tr.steps
            if not tr.remainder.is_zero():
                return sop, tr
    return None


def is_delta_groebner(f) -> bool:
    """Base criterion: every S-operator reduces to zero."""
    return _first_failure(GeneratorSet.wrap(f), Counter()) is None


def minimal_stair(exps, order) -> tuple[ExpVec, ...]:
    """Minimal antichain of the exponent set under componentwise order."""
    exps = list(exps)
    return tuple(exps[t] for t in minimal_indices(exps, order.key))


@dataclass
class DeltaBasis:
    """A certified base: completion output with stair and cone ideals."""

    ops: tuple[DiffOp, ...]
    ring: RingSpec
    stair: tuple[ExpVec, ...]
    cones: dict[ExpVec, PolyIdeal]
    stats: dict = field(default_factory=dict)
    _gens: GeneratorSet | None = field(default=None, repr=False, compare=False)

    @property
    def genset(self) -> GeneratorSet:
        if self._gens is None:
            self._gens = GeneratorSet(self.ops, self.ring)
        return self._gens


def complete(f, cap: int = 10000) -> DeltaBasis:
    """Run completion: repeatedly append the normalized remainder of the
    first failing S-operator until everything reduces to zero.

    The input is copied once into a generator set that every addition
    extends in place, so the cone ideals computed so far, with their
    Groebner bases, serve every later round, and so do the S-operators
    of every target that no addition reaches.  At the end only two
    kinds of cones are kept: those at the stair, which the base reports,
    and those at the largest pure power of each direction, which
    ``finiteness_test`` reads.  The memos of participants, cone rows and
    S-operators are emptied, so a finished base does not hold the data
    of every exponent the completion visited; ``member`` fills the first
    two again for the exponents its queries reach.

    Raises CompletionCapExceeded after ``cap`` additions, and ValueError
    for a negative cap before any work.
    """
    if cap < 0:
        raise ValueError(f"the cap must be nonnegative, got {cap}")
    gs = GeneratorSet(f)
    ring = gs.ring
    stats = {"rounds": 0, "s_operators": 0, "reductions": 0,
             "reduction_steps": 0, "additions": 0}
    while True:
        stats["rounds"] += 1
        hit = _first_failure(gs, stats)
        if hit is None:
            break
        _, tr = hit
        if stats["additions"] >= cap:
            raise CompletionCapExceeded(
                f"completion exceeded the cap of {cap} additions")
        gs._append(tr.remainder.primitive())
        stats["additions"] += 1
    stair = minimal_stair(gs.exps, ring.order_delta)
    live = {gs.participants(a) for a in stair}
    for i in range(ring.n):
        # pure powers of d_i differ only at i, so the tuple max is the largest
        pure = [e for e in gs.exps if not any(e[:i] + e[i + 1:])]
        if pure:
            live.add(gs.participants(max(pure)))
    gs._cones = {k: v for k, v in gs._cones.items() if k in live}
    cones = {a: gs.cone_ideal(a) for a in stair}
    gs._idxs, gs._rows, gs._sops = {}, {}, {}
    return DeltaBasis(gs.ops, ring, stair, cones, stats, gs)


def delta_stair(b: DeltaBasis) -> tuple[ExpVec, ...]:
    """Minimal generators of the exponent set of the ideal."""
    return b.stair


def cone_ideal_of_ideal(alpha: ExpVec, b: DeltaBasis) -> PolyIdeal:
    """Cone ideal of the full ideal at alpha; for a certified base this
    equals the cone ideal of the base itself."""
    return b.genset.cone_ideal(alpha)


def member(p: DiffOp, b: DeltaBasis):
    """Ideal membership through reduction by a certified base.

    Returns (True, trace) with the trace as certificate, or (False, None).
    """
    tr = reduce(p, b.genset)
    if tr.remainder.is_zero():
        return True, tr
    return False, None
