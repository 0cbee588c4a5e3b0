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
    validated, by the walk on its blossoming quiver.

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
        return Phi.from_types([(1, 0)] * q.n)
    size = 4 * q.n  # at least m arrows and 2 * (2n - m) blossoms
    free, rel = [0] * size, [0] * size
    starts = []  # the blossoms into a vertex
    bare = 0  # vertices with no arrows
    fresh = m
    for into, out in zip(q.ins, q.outs):
        bare += not (into or out)
        cross = bool(into and out) and (out[0], into[0]) not in rels
        into, out = list(into), list(out)
        while len(into) < 2:
            starts.append(fresh)
            into.append(fresh)
            fresh += 1
        while len(out) < 2:
            out.append(fresh)
            fresh += 1
        for k, a in enumerate(into):
            rel[a], free[a] = out[k ^ cross], out[k ^ cross ^ 1]
    if bare:  # an isolated vertex would pair only with itself
        raise PairingIncomplete("no complete pairing of %d permitted and %d forbidden threads"
                                % ((len(starts) - bare,) * 2))
    # the relation path from each start ends at a blossom out of a vertex
    reached = [0] * size  # that blossom -> the start
    length = [-1] * size  # start -> arrows on its relation path, -1 once walked
    on_path = [False] * m
    for s in starts:
        a, count = rel[s], 0
        while a < m:
            on_path[a] = True
            a, count = rel[a], count + 1
        reached[a], length[s] = s, count
    types = []
    for a in range(m):
        if not on_path[a]:  # the arrows on no relation path form relation cycles
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
