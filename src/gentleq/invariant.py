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
"""

from __future__ import annotations

from collections import Counter
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
        counts = Counter(types)
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


def _threads(q: _Ints):
    """Permitted threads, forbidden threads and relation cycles, in one pass.

    The bound quiver is given as its record on indices and must already be
    valid.  Each thread comes as ``(arrows, start vertex, end vertex, sigma,
    epsilon)`` with the signs of the forbidden walk, where ``arrows`` lists
    its arrow positions in traversal order and is empty for a trivial
    thread; the relation cycles are tuples of arrow positions starting at
    their least position, in increasing order.

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
    eps, sig = [0] * m, [0] * m  # 0 until the sign is set
    for into, out in zip(ins, outs):
        for sign, a in zip((1, -1), into):
            eps[a] = sign
        for b in out:
            for a in into:
                if (b, a) in rels:
                    rel_succ[a] = b
                    rel_pred[b] = True
                else:
                    free_succ[a] = b
                    free_pred[b] = True
                    sig[b] = -eps[a]
        for b, sibling in zip(out, out[::-1]):
            if not sig[b]:
                sig[b] = -sig[sibling] or 1

    def chains(succ, has_pred):
        found = []
        for a in range(m):
            if not has_pred[a]:
                chain = [a]
                while succ[chain[-1]] >= 0:
                    chain.append(succ[chain[-1]])
                last = chain[-1]
                found.append((tuple(chain), ends[a][0], ends[last][1], sig[a], eps[last]))
        return found

    permitted = chains(free_succ, free_pred)
    forbidden = chains(rel_succ, rel_pred)
    seen = [False] * m
    for t in forbidden:
        for a in t[0]:
            seen[a] = True
    cycles = []
    for a in range(m):
        if not seen[a]:
            cyc = [a]
            while rel_succ[cyc[-1]] != a:
                cyc.append(rel_succ[cyc[-1]])
            for b in cyc:
                seen[b] = True
            cycles.append(tuple(cyc))
    for v, (into, out) in enumerate(zip(ins, outs)):
        if len(into) > 1 or len(out) > 1:
            continue
        g = sig[out[0]] if out else 0
        b = eps[into[0]] if into else 0
        related = bool(into and out) and (out[0], into[0]) in rels
        if not related:
            permitted.append(((), v, v, -g or b or 1, -b or g or -1))
        if related or not (into and out):
            forbidden.append(((), v, v, -g or -b or -1, -b or -g or 1))
    return permitted, forbidden, cycles


def _walk(q: _Ints):
    """The characteristic sequences of a valid bound quiver on indices:
    ``(alternations, cycles)``.

    The alternations are the cycles of the Avella-Alaminos–Geiss walk, each a
    list of ``(permitted, forbidden)`` thread pairs: from a permitted thread
    ``H`` to the forbidden thread ending at the end of ``H`` with the
    opposite epsilon, then to the permitted thread starting at the start of
    that one with the opposite sigma.  Each cycle starts at its first
    permitted thread in the order of ``_threads``, and the cycles come in
    that order.  The relation cycles are as ``_threads`` gives them.
    """
    permitted, forbidden, cycles = _threads(q)
    starts = {(t[1], t[3]): t for t in permitted}
    stops = {(t[2], t[4]): t for t in forbidden}
    incomplete = PairingIncomplete(
        "no complete pairing of %d permitted and %d forbidden threads"
        % (len(permitted), len(forbidden))
    )
    if q.ends and len({v for e in q.ends for v in e}) < q.n:
        raise incomplete  # an isolated vertex would pair only with itself
    alternations = []
    try:
        for t in permitted:
            first = (t[1], t[3])
            if starts.pop(first, None) is None:
                continue  # already on an earlier cycle
            pairs = []
            while True:
                f = stops.pop((t[2], -t[4]))
                pairs.append((t, f))
                if (f[1], -f[3]) == first:
                    break
                t = starts.pop((f[1], -f[3]))
            alternations.append(pairs)
    except KeyError:
        raise incomplete from None
    if stops:
        raise incomplete
    return alternations, cycles


def phi(bq: BoundQuiver) -> Phi:
    """Multiset of the types of all characteristic sequences."""
    require_valid(bq)
    return _phi(bq._ints)


def _phi(q: _Ints) -> Phi:
    """``phi`` of a bound quiver on indices that its maker has already
    validated."""
    alternations, cycles = _walk(q)
    return Phi.from_types([(len(a), sum([len(f[0]) for _p, f in a])) for a in alternations]
                          + [(0, len(c)) for c in cycles])


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
    # a valid quiver gives each arrow at most one relation-free successor
    succ = [-1] * len(ends)
    for a, (_s, t) in enumerate(ends):
        for b in q.outs[t]:
            if (b, a) not in q.rels:
                succ[a] = b
    for a, (s, _t) in enumerate(ends):
        cur = a
        while cur >= 0:
            rows[row[s]][row[ends[cur][1]]] += 1
            cur = succ[cur]
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
