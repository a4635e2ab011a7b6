"""Classical Groebner bases in the Weyl algebra A_n = Q<x, d> (m = 0).

Exponents are pairs (x-part, d-part) compared by an elimination order:
the d-parts first, then the x-parts.  Leading exponents multiply under
operator composition because every Leibniz correction is smaller in
both parts, so the usual division/Buchberger loop goes through.

``buchberger_weyl`` keeps its pairs by the Gebauer-Moeller update
(Gebauer & Moeller, JSC 6, 1988), applied to each input and to each
appended remainder h.  h pairs only with the live elements, and of
those pairs only one per divisibility-minimal lcm is queued (criteria
M and F); a queued pair whose lcm lead(h) divides, and equals neither
of its lcms with h, is dropped (criterion B); and every element whose
lead lead(h) divides leaves the live set.  All three rest on the chain
criterion, which needs no more than leading exponents that multiply,
so it holds in solvable algebras such as this one (Kandri-Rody &
Weispfenning, JSC 9, 1990).  The coprime-lead (product) criterion
needs commuting factors and is unsound here: x and d have coprime
leads, yet d*x - x*d = 1.  The pair loop divides by the live elements
only: every other element's lead is a multiple of a live lead, so a
remainder reduced by the live set is reduced by the whole base.

Every product the loop forms is a monomial x^a d^b times a base element
g: one per division step, two per S-operator.  Coefficients sit to the
left of the d's, so x^a * (d^b * g) is d^b * g with each x-exponent
shifted by a, and only d^b * g needs the Leibniz rule.  Each
``buchberger_weyl`` or ``is_gb`` call therefore keeps one memo
(``_Divisors``) of d^b * g per (base index, b), in the fraction-free
form its kernels subtract, and drops it when it returns.  Few d-shifts
recur with many x-shifts, so most products are found there.  The delta
reduction of ``deltabasis`` multiplies d^b * F by a polynomial q, which
costs as much as the product itself, so a memo of d^b * F alone does
not pay there.  It caches whole cone rows instead
(``GeneratorSet.cone_row``), which a step multiplies by the small
quotients over the cone's reduced base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop
from math import gcd, lcm
from operator import add, le, sub
from typing import NamedTuple

from .deltabasis import CompletionCapExceeded, GeneratorSet, is_delta_groebner
from .diffop import DiffOp, RingSpec
from .orders import MonomialOrder, minimal_indices
from .poly import Poly, _degree_error, _layout, _lowest, _sort_key, primitive_scale


class WeylExp(NamedTuple):
    """Full exponent of a monomial x^a d^b.  ``exp_full`` returns x as
    a tuple; the kernels of this module hold it as ``Poly``'s packed
    key."""

    x: tuple
    d: tuple


@dataclass(frozen=True)
class WeylOrder:
    """Elimination order on WeylExp: compare d-parts, then x-parts."""

    order_x: MonomialOrder = MonomialOrder("deglex")
    order_d: MonomialOrder = MonomialOrder("deglex")

    def key(self, w: WeylExp):
        return (self.order_d.key(w.d), self.order_x.key(w.x))

    def compare(self, a: WeylExp, b: WeylExp) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0


def _require_weyl(*ops: DiffOp) -> None:
    if any(p.ring.m for p in ops):
        raise ValueError("classical bases need a pure operator ring (m = 0)")


def exp_full(p: DiffOp, worder: WeylOrder) -> WeylExp:
    """Largest monomial exponent of p under the elimination order:
    the x-exponent of the leading monomial of the leading d-coefficient,
    paired with the leading d-exponent."""
    _require_weyl(p)
    if p.is_zero():
        raise ValueError("the zero operator has no leading exponent")
    x, d = _lead_full(p, worder)[0]
    return WeylExp(_layout(p.ring.nvars).unpack(x), d)


def _lead_full(p: DiffOp, worder: WeylOrder) -> tuple[WeylExp, Fraction]:
    """Leading exponent, its x-part packed, and leading coefficient."""
    beta = worder.order_d.max(p.terms)
    coeff = p.terms[beta]
    e = coeff._lm(worder.order_x)
    return WeylExp(e, beta), Fraction(coeff._nums[e], coeff._den)


def _packed_key(worder: WeylOrder, nvars: int):
    """``worder.key`` on leads whose x-part is packed."""
    kd, kx = worder.order_d.key, _sort_key(worder.order_x, nvars)
    if kx is None:
        return lambda w: (kd(w.d), w.x)
    return lambda w: (kd(w.d), kx(w.x))


class _Divisors:
    """Divisors and leading exponents of one computation, the steps its
    divisions took, and a memo of d-shifted products: (k, b) -> d^b * ops[k].

    ``ops`` and ``leads`` are the caller's lists (``buchberger_weyl``'s
    base, which only grows), and k indexes them; a division by a
    sublist names each divisor's k through ``_ids``, never by its
    position there.  Each lead is a ``WeylExp`` with its x-part packed
    in the layout ``lay`` of ``Poly``'s keys.  An entry is (den, lc,
    terms, top): den * d^b * ops[k] = sum over terms e -> (nums, scale)
    of scale * nums[x] * x^x d^e, with the x-exponents x packed, lc the
    integer at the product's leading monomial, and top its largest
    x-key.  The elimination order does not bound the x-degrees of the
    terms below a lead, so each x-shift xs of an entry checks the
    degree limit on ``xs + top`` before it is applied.
    """

    __slots__ = ("ops", "leads", "lay", "done", "steps")

    def __init__(self, ops, leads, nvars: int):
        self.ops = ops
        self.leads = leads
        self.lay = _layout(nvars)
        self.done = {}
        self.steps = 0

    def shifted(self, k: int, b: tuple):
        entry = self.done.get((k, b))
        if entry is None:
            g, lead = self.ops[k], self.leads[k]
            if any(b):
                g = DiffOp._make(g.ring, {b: Poly.one(g.ring.nvars)}) * g
            den = lcm(*(pl._den for pl in g.terms.values()))
            terms = {e: (pl._nums, den // pl._den) for e, pl in g.terms.items()}
            nums, scale = terms[tuple(map(add, b, lead.d))]
            top = max(max(pl._nums) for pl in g.terms.values())
            entry = den, nums[lead.x] * scale, terms, top
            self.done[(k, b)] = entry
        return entry

    def divides(self, a: WeylExp, b: WeylExp) -> bool:
        g = self.lay.guard
        return ((b.x | g) - a.x) & g == g and all(map(le, a.d, b.d))

    def lcm(self, a: WeylExp, b: WeylExp) -> WeylExp:
        return WeylExp(self.lay.lcm(a.x, b.x), tuple(map(max, a.d, b.d)))


def _subtract(work: dict, m: int, terms: dict, xshift: int) -> None:
    """work -= m * x^xshift * terms, both in the form of ``_Divisors``
    entries (d-exponent -> packed x-exponent -> integer), cancelled
    entries and emptied rows dropped."""
    for b, (nums, scale) in terms.items():
        row = work.setdefault(b, {})
        f = m * scale
        for x, n in nums.items():
            if xshift:
                x += xshift
            nc = row.get(x, 0) - f * n
            if nc:
                row[x] = nc
            else:
                del row[x]
        if not row:
            del work[b]


def divide_weyl(p: DiffOp, gens, worder: WeylOrder,
                _base: _Divisors | None = None, _ids=None):
    """Full division in the Weyl algebra.

    Returns (cofactors, remainder) with p = sum q_i*gens_i + r, no
    monomial of r divisible by any leading exponent of gens, and
    exp_full of every q_i*gens_i bounded by exp_full(p).

    ``_base`` is a caller's ``_Divisors`` holding ``gens``, at the
    indices ``_ids`` (their positions when not given).  Its callers
    discard the quotients, so none are built and the cofactors come
    back as None.
    """
    gens = list(gens)
    _require_weyl(p)
    if any(g.is_zero() for g in gens):
        raise ValueError("division by a zero operator")
    quotients = _base is None
    nv = p.ring.nvars
    if quotients:
        _require_weyl(*gens)
        _base = _Divisors(gens, [_lead_full(g, worder)[0] for g in gens], nv)
    shifted, leads = _base.shifted, _base.leads
    guard, limit = _base.lay.guard, _base.lay.top
    divisors = [(leads[k].x, leads[k].d, k)
                for k in (range(len(gens)) if _ids is None else _ids)]
    kd, kx = worder.order_d.key, _sort_key(worder.order_x, nv)

    # fraction-free working copy: d-exponent -> x-exponent -> integer
    # numerator over the running denominator den, zero entries dropped
    # eagerly so max() only sees live monomials
    den = lcm(*(pl._den for pl in p.terms.values()))
    work = {beta: {xe: c * (den // pl._den) for xe, c in pl._nums.items()}
            for beta, pl in p.terms.items()}
    cofd = [{} for _ in gens]
    remd = {}  # d-exponent -> x-exponent -> (numerator, den when it left work)

    prev = None
    while work:
        beta = max(work, key=kd)
        slot = work[beta]
        xe = max(slot) if kx is None else max(slot, key=kx)
        c = slot[xe]
        # worder.key of the step's monomial
        key = (kd(beta), xe if kx is None else kx(xe))
        if prev is not None and key >= prev:
            raise AssertionError(
                f"division did not descend strictly at "
                f"{WeylExp(_base.lay.unpack(xe), beta)}")
        prev = key
        _base.steps += 1
        xg = xe | guard
        for i, (hx, hd, k) in enumerate(divisors):
            if (xg - hx) & guard == guard and all(map(le, hd, beta)):
                # the head divides, so both differences stay in N^k
                dshift = tuple(map(sub, beta, hd))
                xshift = xe - hx
                # x^xshift d^dshift * g leads at the step's monomial
                pd, gc, terms, top = shifted(k, dshift)
                if xshift + top >= limit:
                    raise _degree_error(nv)
                if quotients:
                    # the quotient term is c * pd / (den * gc); every term
                    # of one d-shift reads the same memo entry, so one gc
                    cofd[i].setdefault(dshift, (gc, {}))[1][xshift] = (c * pd, den)
                h = gcd(c, gc)
                s, t = gc // h, c // h
                if s < 0:
                    s, t = -s, -t
                if s != 1:
                    for row in work.values():
                        for x in row:
                            row[x] *= s
                    den *= s
                _subtract(work, t, terms, xshift)
                break
        else:
            remd.setdefault(beta, {})[xe] = (c, den)
            del slot[xe]
            if not slot:
                del work[beta]

    rem = DiffOp._make(p.ring, {
        b: _lowest(nv, {x: c * (den // d) for x, (c, d) in xs.items()}, den)
        for b, xs in remd.items()})
    if not quotients:
        return None, rem
    # strict descent writes each (d, x) slot once, with a nonzero entry;
    # den only gains factors, so each term's den divides the last one's
    cof = []
    for blocks in cofd:
        terms = {}
        for b, (gc, xs) in blocks.items():
            top = next(reversed(xs.values()))[1]
            if gc < 0:
                top = -top
            terms[b] = _lowest(nv, {x: n * (top // d) for x, (n, d) in xs.items()}, top * gc)
        cof.append(DiffOp._make(p.ring, terms))
    return cof, rem


def _primitive_weyl(p: DiffOp, worder: WeylOrder) -> DiffOp:
    """Integer-primitive scaling with positive lead under ``worder``."""
    c = primitive_scale(p.terms.values(), _lead_full(p, worder)[1])
    return DiffOp._make(p.ring, {e: pl._scaled(c) for e, pl in p.terms.items()})


def s_operator_weyl(f: DiffOp, g: DiffOp, worder: WeylOrder,
                    _base: _Divisors | None = None, _ids=(0, 1)) -> DiffOp:
    """S-operator cancelling the two leading monomials.

    ``_base`` is a caller's ``_Divisors`` holding f and g at ``_ids``."""
    if _base is None:
        _require_weyl(f, g)
        if f.is_zero() or g.is_zero():
            raise ValueError("the zero operator has no leading exponent, so no S-operator")
        _base = _Divisors([f, g], [_lead_full(f, worder)[0], _lead_full(g, worder)[0]],
                          f.ring.nvars)
    i, j = _ids
    wf, wg = _base.leads[i], _base.leads[j]
    l = _base.lcm(wf, wg)
    # mf * f = Af / af with Af the memo's integer form of x^a d^b * f
    # and af its lead, so S = Af / af - Ag / ag = (u*Af - v*Ag) / (u*af)
    _, af, tf, topf = _base.shifted(i, tuple(map(sub, l.d, wf.d)))
    _, ag, tg, topg = _base.shifted(j, tuple(map(sub, l.d, wg.d)))
    xf, xg = l.x - wf.x, l.x - wg.x
    nv = f.ring.nvars
    if max(xf + topf, xg + topg) >= _base.lay.top:
        raise _degree_error(nv)
    h = gcd(af, ag)
    u, v = ag // h, af // h
    if u * af < 0:
        u, v = -u, -v
    work: dict = {}
    _subtract(work, -u, tf, xf)
    _subtract(work, v, tg, xg)
    return DiffOp._make(f.ring, {b: _lowest(nv, row, u * af) for b, row in work.items()})


@dataclass
class WeylGB:
    """Deterministic Buchberger output plus operation counters."""

    ops: tuple[DiffOp, ...]
    worder: WeylOrder
    stats: dict = field(default_factory=dict)


def buchberger_weyl(gens, worder: WeylOrder, cap: int = 10000) -> WeylGB:
    """Buchberger's algorithm under the elimination order.

    Output elements are integer-primitive with positive leading sign,
    inter-reduced and sorted ascending by leading exponent.  Raises
    CompletionCapExceeded after ``cap`` additions, and ValueError for a
    negative cap before any work.
    """
    if cap < 0:
        raise ValueError(f"the cap must be nonnegative, got {cap}")
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    _require_weyl(*gens)
    stats = {"s_pairs": 0, "reductions": 0, "division_steps": 0, "additions": 0}

    basis: list[DiffOp] = []
    leads: list[WeylExp] = []
    base = _Divisors(basis, leads, gens[0].ring.nvars)
    divides, w_lcm = base.divides, base.lcm
    wkey = _packed_key(worder, gens[0].ring.nvars)
    # live: the elements whose lead no later lead divides, the only
    # divisors and the only partners of a new element.  queue: a heap
    # of the open pairs as (worder.key(lcm), i, j, lcm), i < j.
    live: list[int] = []
    queue: list = []

    def append(g: DiffOp) -> None:
        # integer-primitive keeps the rationals small through the long
        # division chains; the output pass renormalizes anyway
        g = _primitive_weyl(g, worder)
        h, lh = len(basis), _lead_full(g, worder)[0]
        basis.append(g)
        leads.append(lh)
        if not lh.x and not any(lh.d):
            # a constant (0 is the least exponent): the whole ring, so
            # every pair reduces to zero and no other element stays live
            queue.clear()
            live.clear()
        elif live:
            # B: lh divides the pair's lcm, which differs from both new
            # lcms, so the chain through h covers the pair
            queue[:] = [q for q in queue if not divides(lh, q[3])
                        or w_lcm(leads[q[1]], lh) == q[3] or w_lcm(leads[q[2]], lh) == q[3]]
            # M and F: one new pair per divisibility-minimal lcm
            lcms = [w_lcm(leads[i], lh) for i in live]
            for t in minimal_indices(lcms, wkey, divides):
                queue.append((wkey(lcms[t]), live[t], h, lcms[t]))
            heapify(queue)
            live[:] = [i for i in live if not divides(lh, leads[i])]
        live.append(h)

    for g in gens:
        if not g.is_zero():
            append(g)
    if not basis:
        raise ValueError("all generators are zero")

    while queue:
        _, i, j, _ = heappop(queue)
        stats["s_pairs"] += 1
        s = s_operator_weyl(basis[i], basis[j], worder, _base=base, _ids=(i, j))
        if s.is_zero():
            continue
        _, r = divide_weyl(s, [basis[k] for k in live], worder, _base=base, _ids=live)
        stats["reductions"] += 1
        if r.is_zero():
            continue
        if stats["additions"] >= cap:
            raise CompletionCapExceeded(
                f"basis construction exceeded the cap of {cap} additions")
        append(r)
        stats["additions"] += 1
    stats["division_steps"] = base.steps  # the tail pass is not counted

    # minimal: drop elements whose lead another lead divides
    keep = minimal_indices(leads, wkey, divides)
    final = []
    for t in keep:
        others = [u for u in keep if u != t]
        _, r = divide_weyl(basis[t], [basis[u] for u in others], worder,
                           _base=base, _ids=others)
        final.append(_primitive_weyl(r, worder))
    # the kept leads ascend and tail division keeps each one: no re-sort
    return WeylGB(tuple(final), worder, stats)


def is_gb(gens, worder: WeylOrder) -> bool:
    """Buchberger criterion: every S-operator divides to remainder zero."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero operator")
    _require_weyl(*gens)
    base = _Divisors(gens, [_lead_full(g, worder)[0] for g in gens], gens[0].ring.nvars)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_operator_weyl(gens[i], gens[j], worder, _base=base, _ids=(i, j))
            if not divide_weyl(s, gens, worder, _base=base)[1].is_zero():
                return False
    return True


def gb_implies_delta_check(gens, worder: WeylOrder) -> bool:
    """One-way consistency between the two base notions: a classical
    base under the elimination order must also pass the d-part base
    criterion for the d-order alone.  Vacuously true for non-bases."""
    gens = [g for g in gens if not g.is_zero()]
    if not is_gb(gens, worder):
        return True
    ring = gens[0].ring
    if ring.order_delta != worder.order_d:
        ring = RingSpec(ring.n, ring.m, ring.names, ring.dnames, worder.order_d)
        gens = [DiffOp(ring, g.terms) for g in gens]
    return is_delta_groebner(GeneratorSet(gens, ring))
