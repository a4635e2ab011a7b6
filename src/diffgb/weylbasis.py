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
layer of ``deltabasis`` multiplies d^b * F by a polynomial q, which
costs as much as the product itself, so a memo of d^b * F alone does
not pay there.  Its reduction caches whole cone rows instead
(``GeneratorSet.cone_row``), which a step multiplies by the small
quotients over the cone's reduced base, and its S-operators sum the
Leibniz terms of d^b * F times q as integer numerators in one pass,
forming no product.

The kernels hold a monomial x^a d^b as one int, its full key
``d << S | x``: d and x are ``Poly``'s packed keys of b and a in the
layout of n variables (``poly._layout(n)``, as m = 0), and S = 32*(n+1)
is the width of such a key.  Under deglex/deglex in declaration order
(the default) comparing full keys is the elimination order, so a lead
is ``max`` of the keys; any other order sorts through a memo of
``(kd(d), kx(x))`` (``_full_key``).  Shifts add and subtract full keys,
and "a divides b" is one guard test, ``((b | G) - a) & G == G`` with
``G = guard << S | guard``: the only borrow that crosses a field is the
x-half's degree field borrowing from the d-half, which happens only
when a's x-degree exceeds b's, and then a guard bit of the x-half is
already clear.  The pair loop and ``is_gb`` stay in a flat form, full
key -> integer numerator over one denominator: the S kernel ``_s_pair``
builds it, ``_divide_weyl`` consumes it and returns the remainder's,
and only an appended element becomes a ``DiffOp`` again, integer-
primitive straight from those numerators.  ``_flat`` brings a ``DiffOp``
in (the dividend of ``divide_weyl``, a tail-pass element, a memo
product); the public ``divide_weyl`` and ``s_operator_weyl`` wrap the
kernels, each with its own ``_Divisors``.
``WeylExp`` and ``exp_full`` are the tuple views of the public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop
from math import gcd, lcm
from typing import NamedTuple

from .deltabasis import CompletionCapExceeded, GeneratorSet, is_delta_groebner
from .diffop import DiffOp, RingSpec
from .orders import MonomialOrder, _KeyMemo, minimal_indices
from .poly import _W, Poly, _degree_error, _layout, _lowest, _sort_key, primitive_scale


class WeylExp(NamedTuple):
    """Full exponent of a monomial x^a d^b, as ``exp_full`` returns it;
    the kernels of this module hold it as one int, its full key."""

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
    if any(p.ring != ops[0].ring for p in ops):
        raise ValueError("operator ring mismatch")


@cache
def _full_key(worder: WeylOrder, nvars: int):
    """Sort key of ``worder`` on the full keys of ``nvars`` variables:
    None when the keys are their own (deglex/deglex in declaration
    order), else a memo of (d-key, x-key) through each order's sort key
    of packed exponents."""
    kd, kx = _sort_key(worder.order_d, nvars), _sort_key(worder.order_x, nvars)
    if kd is None and kx is None:
        return None
    s = _W * (nvars + 1)
    mask = (1 << s) - 1

    def key(w):
        d, x = w >> s, w & mask
        return (d if kd is None else kd(d), x if kx is None else kx(x))
    return _KeyMemo(key).__getitem__


def exp_full(p: DiffOp, worder: WeylOrder) -> WeylExp:
    """Largest monomial exponent of p under the elimination order:
    the x-exponent of the leading monomial of the leading d-coefficient,
    paired with the leading d-exponent."""
    _require_weyl(p)
    if p.is_zero():
        raise ValueError("the zero operator has no leading exponent")
    w, n = _lead_full(p, worder)[0], p.ring.n
    s, unpack = _W * (n + 1), _layout(n).unpack
    return WeylExp(unpack(w & ((1 << s) - 1)), unpack(w >> s))


def _lead_full(p: DiffOp, worder: WeylOrder) -> tuple[int, Fraction]:
    """Full key of the leading monomial, and its coefficient."""
    n = p.ring.n
    kd = _sort_key(worder.order_d, n)
    beta = max(p._terms) if kd is None else max(p._terms, key=kd)
    coeff = p._terms[beta]
    e = coeff._lm(worder.order_x)
    return beta << _W * (n + 1) | e, Fraction(coeff._nums[e], coeff._den)


def _flat(p: DiffOp, s: int) -> tuple[dict, int]:
    """p as flat numerators over their denominator: (full key -> integer
    numerator, den), with ``s`` the shift S of p's full keys."""
    den = lcm(*(pl._den for pl in p._terms.values()))
    return {b << s | x: c * (den // pl._den)
            for b, pl in p._terms.items() for x, c in pl._nums.items()}, den


class _Divisors:
    """Divisors and leading exponents of one computation over ``nvars``
    variables, the steps its divisions took, and a memo of d-shifted
    products: (k, b) -> d^b * ops[k].

    ``ops`` and ``leads`` are the caller's lists (``buchberger_weyl``'s
    base, which only grows), and k indexes them; a division by a
    sublist names each divisor's k through its ids, never by its
    position there.  Each lead is a full key, and so is every monomial
    below; ``shift`` is S, ``mask`` selects the x-half and ``guard``
    holds the guard bits of both halves.  A memo entry, with b a packed
    d-key, is (den, lc, terms, top): den * d^b * ops[k] = sum over terms
    e -> integer of integer * monomial e, lc the integer at the
    product's lead, and top its largest x-key.  The elimination order
    does not bound the x-degrees of the terms below a lead, so each
    shift of an entry checks the degree limit on its x-half plus top
    before it is applied.
    """

    __slots__ = ("ops", "leads", "nvars", "lay", "shift", "mask", "guard", "done", "steps")

    def __init__(self, ops, leads, nvars: int):
        self.ops = ops
        self.leads = leads
        self.nvars = nvars
        lay = self.lay = _layout(nvars)
        self.shift = s = _W * (nvars + 1)
        self.mask = (1 << s) - 1
        self.guard = lay.guard << s | lay.guard
        self.done = {}
        self.steps = 0

    def shifted(self, k: int, b: int):
        entry = self.done.get((k, b))
        if entry is None:
            g = self.ops[k]
            if b:
                g = DiffOp._make(g.ring, {b: Poly.one(g.ring.nvars)}) * g
            terms, den = _flat(g, self.shift)
            top = max(max(pl._nums) for pl in g._terms.values())
            entry = den, terms[(b << self.shift) + self.leads[k]], terms, top
            self.done[(k, b)] = entry
        return entry

    def divides(self, a: int, b: int) -> bool:
        """Does the monomial a divide b?  One guard test, as in ``poly``:
        no variable field borrows from its neighbour, and its guard bit
        stays set iff b's field is at least a's.  The x-half's degree
        field, which has no guard bit, borrows into the d-half only when
        a's x-degree exceeds b's; then some field of a exceeds b's, its
        guard bit is already clear, and the answer is no either way."""
        g = self.guard
        return ((b | g) - a) & g == g

    def lcm(self, a: int, b: int) -> int:
        """Full key of the lcm, half by half.  Each degree stays below
        2^32, so the x-half's degree field does not carry into the d-half."""
        s, mask, lcm = self.shift, self.mask, self.lay.lcm
        return lcm(a >> s, b >> s) << s | lcm(a & mask, b & mask)


def _divide_weyl(work: dict, den: int, worder: WeylOrder, base: _Divisors, ids,
                 cofd=None):
    """The fraction-free division kernel of ``divide_weyl`` by the
    elements of ``base`` at the indices ``ids``.

    The dividend is sum work[e] / den * e over full keys e, nonzero
    numerators only; the kernel consumes ``work``, dropping zeros
    eagerly so max() only sees live monomials.  Returns (nums, den):
    the remainder sum nums[e] / den * e, nonzero numerators only, in the
    order the steps met them, so descending and led by its lead.  With
    ``cofd`` (a dict per divisor) each quotient term is recorded there
    as d-key -> (gc, x-key -> (numerator, den at the step)).
    """
    shifted, leads, s, mask = base.shifted, base.leads, base.shift, base.mask
    guard, limit = base.guard, base.lay.top
    divisors = [(leads[k], k) for k in ids]
    wkey = _full_key(worder, base.nvars)
    rem = {}  # full key -> (numerator, den when it left work)

    prev = None
    while work:
        m = max(work) if wkey is None else max(work, key=wkey)
        c = work[m]
        key = m if wkey is None else wkey(m)
        if prev is not None and key >= prev:
            unpack = base.lay.unpack
            raise AssertionError(f"division did not descend strictly at "
                                 f"{WeylExp(unpack(m & mask), unpack(m >> s))}")
        prev = key
        base.steps += 1
        mg = m | guard
        for i, (lead, k) in enumerate(divisors):
            if (mg - lead) & guard == guard:
                # the head divides: x^xs d^ds * g leads at the step's
                # monomial, and the memo holds d^ds * g
                shift = m - lead
                ds, xs = shift >> s, shift & mask
                pd, gc, terms, top = shifted(k, ds)
                if xs + top >= limit:
                    raise _degree_error(base.nvars)
                if cofd is not None:
                    # the quotient term is c * pd / (den * gc); every term
                    # of one d-shift reads the same memo entry, so one gc
                    cofd[i].setdefault(ds, (gc, {}))[1][xs] = (c * pd, den)
                h = gcd(c, gc)
                u, t = gc // h, c // h
                if u < 0:
                    u, t = -u, -t
                if u != 1:
                    work = {e: v * u for e, v in work.items()}
                    den *= u
                get = work.get
                for e, n in terms.items():
                    e += xs
                    n = get(e, 0) - t * n
                    if n:
                        work[e] = n
                    else:
                        del work[e]
                break
        else:
            rem[m] = (c, den)
            del work[m]
    return {e: c * (den // d) for e, (c, d) in rem.items()}, den


def _unflatten(ring: RingSpec, nums: dict, den: int, base: _Divisors) -> DiffOp:
    """The operator sum nums[e] / den * e over full keys e."""
    slots: dict = {}
    s, mask = base.shift, base.mask
    for e, c in nums.items():
        slots.setdefault(e >> s, {})[e & mask] = c
    nv = ring.nvars
    return DiffOp._make(ring, {b: _lowest(nv, xs, den) for b, xs in slots.items()})


def _primitive_rem(ring: RingSpec, nums: dict, base: _Divisors) -> DiffOp:
    """The integer-primitive operator with positive lead of a nonzero
    remainder from ``_divide_weyl``: its numerators over their gcd,
    signed by the first, which is the lead."""
    g = gcd(*nums.values())
    if next(iter(nums.values())) < 0:
        g = -g
    return _unflatten(ring, {e: c // g for e, c in nums.items()}, 1, base)


def divide_weyl(p: DiffOp, gens, worder: WeylOrder):
    """Full division in the Weyl algebra.

    Returns (cofactors, remainder) with p = sum q_i*gens_i + r, no
    monomial of r divisible by any leading exponent of gens, and
    exp_full of every q_i*gens_i bounded by exp_full(p).
    """
    gens = list(gens)
    _require_weyl(p, *gens)
    if any(g.is_zero() for g in gens):
        raise ValueError("division by a zero operator")
    nv = p.ring.nvars
    base = _Divisors(gens, [_lead_full(g, worder)[0] for g in gens], nv)
    cofd = [{} for _ in gens]
    nums, den = _divide_weyl(*_flat(p, base.shift), worder, base, range(len(gens)), cofd)
    rem = _unflatten(p.ring, nums, den, base)
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
    c = primitive_scale(p._terms.values(), _lead_full(p, worder)[1])
    return DiffOp._make(p.ring, {e: pl._scaled(c) for e, pl in p._terms.items()})


def _s_pair(base: _Divisors, i: int, j: int) -> tuple[dict, int]:
    """The S-operator of ``base``'s elements i and j as flat numerators
    over their denominator, not in lowest terms."""
    wf, wg = base.leads[i], base.leads[j]
    l = base.lcm(wf, wg)
    # mf * f = Af / af with Af the memo's integer form of x^a d^b * f
    # and af its lead, so S = Af / af - Ag / ag = (u*Af - v*Ag) / (u*af)
    sf, sg, s, mask = l - wf, l - wg, base.shift, base.mask
    _, af, tf, topf = base.shifted(i, sf >> s)
    _, ag, tg, topg = base.shifted(j, sg >> s)
    xf, xg = sf & mask, sg & mask
    if max(xf + topf, xg + topg) >= base.lay.top:
        raise _degree_error(base.nvars)
    h = gcd(af, ag)
    u, v = ag // h, af // h
    if u * af < 0:
        u, v = -u, -v
    work = {e + xf: u * c for e, c in tf.items()}
    for e, c in tg.items():
        e += xg
        c = work.get(e, 0) - v * c
        if c:
            work[e] = c
        else:
            del work[e]
    return work, u * af


def s_operator_weyl(f: DiffOp, g: DiffOp, worder: WeylOrder) -> DiffOp:
    """S-operator cancelling the two leading monomials."""
    _require_weyl(f, g)
    if f.is_zero() or g.is_zero():
        raise ValueError("the zero operator has no leading exponent, so no S-operator")
    base = _Divisors([f, g], [_lead_full(f, worder)[0], _lead_full(g, worder)[0]],
                     f.ring.nvars)
    return _unflatten(f.ring, *_s_pair(base, 0, 1), base)


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

    ring = gens[0].ring
    basis: list[DiffOp] = []
    leads: list[int] = []
    base = _Divisors(basis, leads, ring.nvars)
    divides, w_lcm = base.divides, base.lcm
    wkey = _full_key(worder, ring.nvars)
    # live: the elements whose lead no later lead divides, the only
    # divisors and the only partners of a new element.  queue: a heap
    # of the open pairs as (sort key of lcm, i, j, lcm), i < j; the key
    # is the lcm itself under deglex/deglex.
    live: list[int] = []
    queue: list = []

    def append(g: DiffOp, lh: int) -> None:
        # g is integer-primitive with lead lh: that keeps the rationals
        # small through the long division chains
        h = len(basis)
        basis.append(g)
        leads.append(lh)
        if not lh:
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
                l = lcms[t]
                queue.append((l if wkey is None else wkey(l), live[t], h, l))
            heapify(queue)
            live[:] = [i for i in live if not divides(lh, leads[i])]
        live.append(h)

    for g in gens:
        if not g.is_zero():
            g = _primitive_weyl(g, worder)
            append(g, _lead_full(g, worder)[0])
    if not basis:
        raise ValueError("all generators are zero")

    while queue:
        _, i, j, _ = heappop(queue)
        stats["s_pairs"] += 1
        work, den = _s_pair(base, i, j)
        if not work:
            continue
        nums, _ = _divide_weyl(work, den, worder, base, live)
        stats["reductions"] += 1
        if not nums:
            continue
        if stats["additions"] >= cap:
            raise CompletionCapExceeded(
                f"basis construction exceeded the cap of {cap} additions")
        append(_primitive_rem(ring, nums, base), next(iter(nums)))
        stats["additions"] += 1
    stats["division_steps"] = base.steps  # the tail pass is not counted

    # minimal: drop elements whose lead another lead divides
    keep = minimal_indices(leads, wkey, divides)
    final = []
    for t in keep:
        others = [u for u in keep if u != t]
        nums, _ = _divide_weyl(*_flat(basis[t], base.shift), worder, base, others)
        final.append(_primitive_rem(ring, nums, base))
    # the kept leads ascend and tail division keeps each one: no re-sort
    return WeylGB(tuple(final), worder, stats)


def is_gb(gens, worder: WeylOrder) -> bool:
    """Buchberger criterion: every S-operator divides to remainder zero."""
    gens = list(gens)
    _require_weyl(*gens)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero operator")
    base = _Divisors(gens, [_lead_full(g, worder)[0] for g in gens], gens[0].ring.nvars)
    ids = range(len(gens))
    return not any(_divide_weyl(*_s_pair(base, i, j), worder, base, ids)[0]
                   for i in ids for j in range(i + 1, len(gens)))


def gb_implies_delta_check(gens, worder: WeylOrder) -> bool:
    """One-way consistency between the two base notions: a classical
    base under the elimination order must also pass the d-part base
    criterion for the d-order alone.  Vacuously true for non-bases.
    The ring checks of ``is_gb`` run on every operator, zero ones too."""
    gens = list(gens)
    _require_weyl(*gens)
    gens = [g for g in gens if not g.is_zero()]
    if not is_gb(gens, worder):
        return True
    ring = gens[0].ring
    if ring.order_delta != worder.order_d:
        ring = RingSpec(ring.n, ring.m, ring.names, ring.dnames, worder.order_d)
        # the packed d-keys do not depend on the order
        gens = [DiffOp._make(ring, dict(g._terms)) for g in gens]
    return is_delta_groebner(GeneratorSet(gens, ring))
