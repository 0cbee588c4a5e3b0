"""Threads, characteristic sequences, and the derived invariant.

For a valid bound quiver the arrows fall apart into maximal relation-avoiding
chains (permitted threads) and maximal relation chains (forbidden threads or
relation cycles); vertices with at most one arrow in and one arrow out
contribute trivial threads of either kind depending on whether every
composition through them is a relation.

Characteristic sequences are found by the forced walk of Avella-Alaminos and
Geiss ("Combinatorial derived invariants for gentle algebras", JPAA 2008).
Sign functions give every arrow an epsilon at its target, opposite for the
two arrows entering a vertex, and a sigma at its source, opposite for the two
arrows leaving a vertex and opposite to the epsilon of the arrow it composes
with outside the relations.  From a permitted thread the walk steps to the
forbidden thread ending at the same vertex with the opposite epsilon, and
from there to the permitted thread starting at that one's start with the
opposite sigma.  Each step is one lookup, so the walk is a permutation on the
threads, and its cycles plus the pure relation cycles are the characteristic
sequences.  The multiset of their types ``(n, m)`` is invariant under derived
equivalence and is the workhorse used to separate equivalence classes.

The walk runs on integers only.  A thread is stored as its start key, its end
key and, if forbidden, its length, where the key of an end at vertex ``v``
with sign ``s`` is ``2*v + (s > 0)``; the opposite sign flips the low bit, so
each step is one list lookup, and the walk counts pairs and lengths without
naming a thread.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BoundQuiver,
    QuiverError,
    require_valid,
    _Ints,
)

__all__ = [
    "Phi",
    "PairingError",
    "PairingIncomplete",
    "UnexpectedPhiTotal",
    "NONDEGENERATE",
    "DEGENERATE",
    "phi",
    "degeneracy_class",
    "cartan_matrix",
]


class PairingError(QuiverError):
    pass


class PairingIncomplete(PairingError):
    pass


class UnexpectedPhiTotal(QuiverError):
    pass


NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Phi:
    """Multiset of characteristic-sequence types, sorted by type."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_types(types) -> "Phi":
        counts: dict[tuple[int, int], int] = {}
        for t in types:
            counts[t] = counts.get(t, 0) + 1
        return Phi(tuple(sorted(counts.items())))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    def lines(self) -> list[str]:
        out = ["(%d,%d): %d" % (n, m, c) for (n, m), c in self.entries]
        out.append("sum: %d" % self.total)
        return out

    def __str__(self) -> str:
        return "{" + ", ".join("(%d,%d):%d" % (n, m, c) for (n, m), c in self.entries) + "}"


def phi(bq: BoundQuiver) -> Phi:
    """Multiset of the types of all characteristic sequences."""
    require_valid(bq)
    return _phi(bq._ints)


def _phi(q: _Ints) -> Phi:
    """``phi`` of a bound quiver on indices that its maker has already
    validated, by the walk on integer thread keys.

    Arrow signs: the in-arrows of a vertex get epsilon +1 and -1; an
    out-arrow gets sigma = -epsilon of the in-arrow it composes with outside
    the relations, else the opposite of its sibling's sigma, else +1.  A
    thread carries sigma of its first and epsilon of its last arrow.  A
    trivial thread at ``v`` takes its signs from the arrow ``g`` leaving and
    the arrow ``b`` entering ``v``: permitted ``(-sigma(g) or epsilon(b),
    -epsilon(b) or sigma(g))``, forbidden ``(-sigma(g) or -epsilon(b),
    -epsilon(b) or -sigma(g))``, where ``or`` falls back when the arrow is
    missing; at an isolated vertex ``(1, -1)`` and ``(-1, 1)``.
    """
    ends, rels, outs, ins = q.ends, q.rels, q.outs, q.ins
    m = len(ends)
    free_succ, rel_succ = [-1] * m, [-1] * m
    free_pred, rel_pred = [False] * m, [False] * m
    eps, sig = [-1] * m, [0] * m  # sigma 0 until it is set
    for into in ins:
        if into:
            eps[into[0]] = 1
    for b, a in rels:
        rel_succ[a] = b
        rel_pred[b] = True
    for a, (_s, t) in enumerate(ends):
        for b in outs[t]:
            if rel_succ[a] != b:
                free_succ[a] = b
                free_pred[b] = True
                sig[b] = -eps[a]
    for b, (s, _t) in enumerate(ends):
        if not sig[b]:  # no free predecessor: the opposite of its sibling's
            out = outs[s]
            sig[b] = -sig[out[0] if out[-1] == b else out[-1]] or 1
    # a thread from v with sign s starts at key 2*v + (s > 0), and one into
    # v with sign e ends at key 2*v + (e > 0); flipping a sign flips bit 0
    permitted = []  # (start key, end key) of each permitted thread
    start_end = [-1] * (2 * q.n)  # start key -> end key of a permitted thread
    stop_start = [-1] * (2 * q.n)  # end key -> start key of a forbidden thread
    stop_len = [0] * (2 * q.n)  # end key -> length of that forbidden thread
    n_forbidden = stops = 0  # stops: forbidden end keys not yet walked
    for a in range(m):
        if not free_pred[a]:
            last = a
            while free_succ[last] >= 0:
                last = free_succ[last]
            permitted.append((2 * ends[a][0] + (sig[a] > 0), 2 * ends[last][1] + (eps[last] > 0)))
    on_thread = [False] * m
    for a in range(m):
        if not rel_pred[a]:
            last, length = a, 1
            on_thread[a] = True
            while rel_succ[last] >= 0:
                last = rel_succ[last]
                on_thread[last] = True
                length += 1
            key = 2 * ends[last][1] + (eps[last] > 0)
            stops += stop_start[key] < 0
            stop_start[key], stop_len[key] = 2 * ends[a][0] + (sig[a] > 0), length
            n_forbidden += 1
    types = []
    for a in range(m):
        if not on_thread[a]:  # the arrows on no forbidden thread form relation cycles
            length = 0
            while not on_thread[a]:
                on_thread[a] = True
                a = rel_succ[a]
                length += 1
            types.append((0, length))
    isolated = False
    for v, (into, out) in enumerate(zip(ins, outs)):
        if len(into) > 1 or len(out) > 1:
            continue
        g = sig[out[0]] if out else 0
        b = eps[into[0]] if into else 0
        if g and b:  # one arrow in, one out: a trivial thread of one kind
            if rel_succ[into[0]] != out[0]:
                permitted.append((2 * v + (g < 0), 2 * v + (b < 0)))
                continue
        else:
            isolated = isolated or not (g or b)
            permitted.append((2 * v + ((-g or b or 1) > 0), 2 * v + ((-b or g or -1) > 0)))
        key = 2 * v + ((-b or -g or 1) > 0)
        stops += stop_start[key] < 0
        stop_start[key], stop_len[key] = 2 * v + ((-g or -b or -1) > 0), 0
        n_forbidden += 1

    def incomplete():
        return PairingIncomplete("no complete pairing of %d permitted and %d forbidden threads"
                                 % (len(permitted), n_forbidden))

    if ends and isolated:
        raise incomplete()  # an isolated vertex would pair only with itself
    for first, end in permitted:
        start_end[first] = end
    # from a permitted thread to the forbidden thread ending where it ends
    # with the opposite epsilon, then to the permitted thread starting where
    # that one starts with the opposite sigma, until the walk closes
    for first, end in permitted:
        if start_end[first] < 0:
            continue  # already on an earlier cycle
        start_end[first] = -1
        pairs = length = 0
        while True:
            start = stop_start[end ^ 1]
            if start < 0:
                raise incomplete()
            stop_start[end ^ 1] = -1
            stops -= 1
            pairs += 1
            length += stop_len[end ^ 1]
            if start ^ 1 == first:
                break
            end = start_end[start ^ 1]
            if end < 0:
                raise incomplete()
            start_end[start ^ 1] = -1
        types.append((pairs, length))
    if stops:
        raise incomplete()
    return Phi.from_types(types)


def degeneracy_class(bq: BoundQuiver) -> str:
    """Split by the total number of characteristic sequences (3 or 1)."""
    require_valid(bq, require_connected=True)
    # connected, so the cycle rank is arrows - vertices + 1
    if len(bq.arrows) - len(bq.vertices) + 1 != 2:
        raise QuiverError("degeneracy split applies to two-cycle quivers only")
    total = _phi(bq._ints).total
    if total == 3:
        return NONDEGENERATE
    if total == 1:
        return DEGENERATE
    raise UnexpectedPhiTotal(
        "two-cycle quiver with %d characteristic sequences (expected 1 or 3)" % total
    )


# ---------------------------------------------------------------------------
# path counting


def cartan_matrix(bq: BoundQuiver):
    """Counts of relation-avoiding paths between vertices.

    Returns ``(order, rows)`` where ``order`` is the sorted vertex tuple and
    ``rows[i][j]`` counts paths from ``order[i]`` to ``order[j]`` (the trivial
    path included on the diagonal).
    """
    require_valid(bq)
    q = bq._ints
    n, ends = q.n, q.ends
    order = tuple(sorted(bq.vertices))
    row_of = {v: i for i, v in enumerate(order)}
    row = [row_of[v] for v in bq.vertices]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    # each relation-free path is counted from its last arrow back
    pred = q.free_pred()
    for a, (_s, t) in enumerate(ends):
        cur = a
        while cur >= 0:
            rows[row[ends[cur][0]]][row[t]] += 1
            cur = pred[cur]
    return order, tuple(tuple(r) for r in rows)


def _det_int(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _euler(rows, det_c: int):
    """``(det C, det(E + E^T))`` for the path count matrix ``C`` = ``rows``
    with determinant ``det_c``, where ``E`` is the inverse transpose of ``C``,
    or ``None`` when ``C`` is not invertible over the integers.

    ``E + E^T = C^-1 (C + C^T) C^-T``, so when ``det C`` is 1 or -1 the second
    determinant is ``det(C + C^T)``.
    """
    if det_c not in (1, -1):
        return None
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    return det_c, _det_int(sym)
