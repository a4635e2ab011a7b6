"""Exponent vectors in N^k and the monomial orderings used everywhere else.

An exponent vector is a plain tuple of nonnegative ints.  Orderings are
total, compatible with addition and have 0 as least element, so every
strictly decreasing chain of exponents is finite.  The Buchberger
bookkeeping that needs only leads, an lcm and an order lives here too:
minimalization, shared by the commutative and the Weyl-algebra loops,
and the all-pairs queue ``critical_pairs``, which serves only the
commutative loop: its expression matrix depends on which pairs it
reduces and in what order, and every delta base is built on that
matrix, so its pair strategy stays fixed.  The Weyl loop keeps its own
Gebauer-Moeller queue (``weylbasis``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

ExpVec = tuple  # tuple[int, ...]

LT, EQ, GT = -1, 0, 1

ORDER_KINDS = ("lex", "deglex", "degrevlex")

# key() memo size at which it starts over: orders are shared (the
# default d-order by every ring that names none), so it must not grow
# for as long as the process lives
_KEY_CACHE_LIMIT = 1 << 16


def _same_length(a: ExpVec, b: ExpVec) -> None:
    if len(a) != len(b):
        raise ValueError(f"exponent length mismatch: {len(a)} vs {len(b)}")


def divides(a: ExpVec, b: ExpVec) -> bool:
    """True iff b lies in the translated cone a + N^k."""
    _same_length(a, b)
    return all(x <= y for x, y in zip(a, b))


def minimal_indices(leads, key, divides=divides) -> list[int]:
    """Indices of the leads that no earlier-kept lead divides, visited
    in ascending (key, index) order; of equal leads the first is kept.
    A ``key`` of None sorts the leads themselves."""
    keep: list[int] = []
    # sorted is stable: equal keys keep ascending indices
    at = leads.__getitem__ if key is None else lambda t: key(leads[t])
    for t in sorted(range(len(leads)), key=at):
        if not any(divides(leads[u], leads[t]) for u in keep):
            keep.append(t)
    return keep


def critical_pairs(leads, lcm, key):
    """Yield (i, j, lcm(leads[i], leads[j])) once for every i < j,
    smallest (key(lcm), i, j) first; a ``key`` of None orders the lcms
    themselves.  The caller may append to ``leads`` while iterating:
    the pairs of every lead appended since the last step are queued
    before the next pop."""
    heap: list = []
    queued = 0
    while True:
        for j in range(queued, len(leads)):
            for i in range(j):
                l = lcm(leads[i], leads[j])
                heapq.heappush(heap, (l if key is None else key(l), i, j, l))
        queued = len(leads)
        if not heap:
            return
        _, i, j, l = heapq.heappop(heap)
        yield i, j, l


class _KeyMemo(dict):
    """Exponent -> sort key memo of one order; a miss computes the key
    and stores it, starting over at ``_KEY_CACHE_LIMIT`` entries."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, e):
        if len(self) >= _KEY_CACHE_LIMIT:
            self.clear()
        k = self[e] = self.compute(e)
        return k


@dataclass(frozen=True)
class MonomialOrder:
    """A term order on N^k: lex, deglex or degrevlex.

    ``prec`` lists variable indices from most to least significant.
    ``None`` means declaration order (index 0 most significant).

    ``key(e)`` is the sort key of an exponent; a larger key means a
    larger exponent.  It is the ``__getitem__`` of the order's memo
    ``_key_cache``, bound per instance, so a memo hit, the common case
    of ``max(..., key=order.key)``, runs no Python frame; a miss
    computes the key with ``_compute_key``.  ``_packed_keys`` holds the
    order's sort keys of ``Poly``'s packed exponents, one per number of
    variables (``poly._sort_key``).  Neither memo is a field, so eq and
    hash stay structural, and a copy or an unpickled order is rebuilt
    from ``(kind, prec)`` with memos of its own.
    """

    kind: str = "deglex"
    prec: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.prec is not None:
            p = tuple(self.prec)
            if sorted(p) != list(range(len(p))):
                raise ValueError(f"precedence {p} is not a permutation")
            object.__setattr__(self, "prec", p)
        memo = _KeyMemo(self._compute_key)
        object.__setattr__(self, "_key_cache", memo)
        object.__setattr__(self, "key", memo.__getitem__)
        object.__setattr__(self, "_packed_keys", {})

    def __reduce__(self):
        return type(self), (self.kind, self.prec)

    def _indices(self, k: int):
        if self.prec is None:
            return range(k)
        if len(self.prec) != k:
            raise ValueError(f"precedence has {len(self.prec)} entries, exponent has {k}")
        return self.prec

    def _compute_key(self, e: ExpVec):
        idx = self._indices(len(e))
        if self.kind == "lex":
            return tuple(e[i] for i in idx)
        if self.kind == "deglex":
            return (sum(e), tuple(e[i] for i in idx))
        # degrevlex: grade first, then the *smallest* trailing part wins
        return (sum(e), tuple(-e[i] for i in reversed(list(idx))))

    def compare(self, a: ExpVec, b: ExpVec) -> int:
        _same_length(a, b)
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def max(self, exps) -> ExpVec:
        return max(exps, key=self.key)

    def sorted(self, exps, reverse: bool = False) -> list:
        return sorted(exps, key=self.key, reverse=reverse)


def lex(prec: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder("lex", prec)


def deglex(prec: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder("deglex", prec)


def degrevlex(prec: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder("degrevlex", prec)
