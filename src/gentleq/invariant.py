"""Threads, characteristic sequences, and the derived invariant.

For a valid bound quiver the arrows fall apart into maximal relation-avoiding
chains (permitted threads) and maximal relation chains (forbidden threads or
relation cycles); vertices with at most one arrow in and one arrow out
contribute trivial threads of either kind depending on whether every
composition through them is a relation.  Avella-Alaminos and Geiss
("Combinatorial derived invariants for gentle algebras", JPAA 2008) pair
these threads into cyclic characteristic sequences; the multiset of their
types ``(n, m)`` is invariant under derived equivalence and is the workhorse
used to separate equivalence classes.

``phi`` reads the sequences off the blossoming quiver (Palu-Pilaud-Plamondon,
"Non-kissing complex and tau-tilting for gentle algebras",
arXiv:1707.07574): fresh blossom arrows complete every vertex to two arrows
in and two out, so each arrow into a vertex composes in a relation with one
arrow out of it and freely with the other.  Every thread then runs from a
blossom into a vertex to a blossom out of one, the trivial threads included.
A characteristic sequence is a cycle of one permutation of the blossoms into
a vertex: along a permitted thread to a blossom, then back along the
forbidden thread that reaches the same blossom.  These cycles are the
boundary components of the marked surface of the algebra
(Opper-Plamondon-Schroll, arXiv:1801.09659).

The walk ``_types`` returns the types as a sorted list with repeats, which
the lemma sweeps compare directly; a ``Phi`` is made from that list only at
the API and report boundary: ``phi``, ``phi_formula`` and failure lines.
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
    validated: the ``Phi`` of its ``_types``."""
    return Phi.from_types(_types(q))


def _types(q: _Ints) -> list[tuple[int, int]]:
    """The sorted ``(pairs, length)`` types of the characteristic sequences
    of a validated bound quiver on indices, with repeats, by the walk on its
    blossoming quiver.  The lemma sweeps compare these lists, and a ``Phi``
    is made from them only at the API and report boundary.

    Arrows keep their positions and blossoms take fresh ids from ``m`` on, so
    an id below ``m`` is a real arrow.  In-arrow ``k`` of a vertex, blossoms
    last, composes in a relation with out-arrow ``k ^ cross`` and freely with
    the other, where ``cross`` says that the first arrows in and out compose
    freely.  A quiver with no arrows has one sequence ``(1, 0)`` per vertex;
    next to arrows, a vertex with none leaves the pairing incomplete.
    """
    ends, rels = q.ends, q.rels
    m = len(ends)
    if not m:
        return [(1, 0)] * q.n
    size = 4 * q.n  # at least m arrows and 2 * (2n - m) blossoms
    free, rel = [0] * size, [0] * size
    starts = []  # the blossoms into a vertex
    bare = 0  # vertices with no arrows
    fresh = m
    for into, out in zip(q.ins, q.outs):
        # each side padded to two arrows, in-blossoms first
        if len(into) == 2:
            i0, i1 = into
        elif into:
            i0, i1 = into[0], fresh
            starts.append(fresh)
            fresh += 1
        else:
            i0, i1 = fresh, fresh + 1
            starts += (i0, i1)
            fresh += 2
            bare += not out
        if len(out) == 2:
            o0, o1 = out
        elif out:
            o0, o1 = out[0], fresh
            fresh += 1
        else:
            o0, o1 = fresh, fresh + 1
            fresh += 2
        if into and out and (o0, i0) not in rels:  # cross: they compose freely
            o0, o1 = o1, o0
        rel[i0], free[i0] = o0, o1
        rel[i1], free[i1] = o1, o0
    if bare:  # an isolated vertex would pair only with itself
        raise PairingIncomplete("no complete pairing of %d permitted and %d forbidden threads"
                                % ((len(starts) - bare,) * 2))
    # the relation path from each start ends at a blossom out of a vertex
    reached = [0] * size  # that blossom -> the start
    length = [-1] * size  # start -> arrows on its relation path, -1 once walked
    on_path = [False] * m
    walked = 0
    for s in starts:
        a, count = rel[s], 0
        while a < m:
            on_path[a] = True
            a, count = rel[a], count + 1
        reached[a], length[s] = s, count
        walked += count
    types = []
    if walked < m:  # the arrows on no relation path form relation cycles
        for a in range(m):
            if not on_path[a]:
                count = 0
                while not on_path[a]:
                    on_path[a] = True
                    a, count = rel[a], count + 1
                types.append((0, count))
    # from a start along free arrows to a blossom, then on from the start
    # whose relation path reaches that blossom, until the walk closes
    for s in starts:
        pairs = count = 0
        while length[s] >= 0:
            pairs, count = pairs + 1, count + length[s]
            length[s] = -1
            a = free[s]
            while a < m:
                a = free[a]
            s = reached[a]
        if pairs:
            types.append((pairs, count))
    types.sort()
    return types


def degeneracy_class(bq: BoundQuiver) -> str:
    """Split by the total number of characteristic sequences (3 or 1)."""
    require_valid(bq, require_connected=True)
    # connected, so the cycle rank is arrows - vertices + 1
    if len(bq.arrows) - len(bq.vertices) + 1 != 2:
        raise QuiverError("degeneracy split applies to two-cycle quivers only")
    total = len(_types(bq._ints))
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
