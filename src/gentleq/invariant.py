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
from fractions import Fraction

from .core import (
    BoundQuiver,
    QuiverError,
    composition_successors,
    cycle_rank,
    require_valid,
    _index,
)

__all__ = [
    "Thread",
    "PairCycle",
    "ArrowCycle",
    "Phi",
    "PairingError",
    "PairingIncomplete",
    "UnexpectedPhiTotal",
    "NONDEGENERATE",
    "DEGENERATE",
    "permitted_threads",
    "forbidden_threads",
    "arrow_cycle_sequences",
    "characteristic_sequences",
    "phi",
    "degeneracy_class",
    "cartan_matrix",
    "cartan_determinant",
    "euler_data",
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
class Thread:
    """A permitted or forbidden thread.

    ``arrows`` is in traversal order (``arrows[0]`` is the starting arrow);
    trivial threads have no arrows and carry their vertex instead.
    """

    vertex: str | None
    arrows: tuple[str, ...]

    @property
    def trivial(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)

    def render(self) -> str:
        if self.trivial:
            return "e(%s)" % self.vertex
        # composite order, terminating arrow first
        return ".".join(reversed(self.arrows))


def _thread_key(t: Thread):
    return (0, t.vertex, ()) if t.trivial else (1, "", t.arrows)


def trivial_thread(vertex: str) -> Thread:
    return Thread(vertex, ())


def arrow_thread(arrows) -> Thread:
    arrows = tuple(arrows)
    if not arrows:
        raise ValueError("nontrivial thread needs arrows")
    return Thread(None, arrows)


@dataclass(frozen=True)
class PairCycle:
    """Cyclic sequence of (permitted, forbidden) thread pairs."""

    pairs: tuple[tuple[Thread, Thread], ...]

    def type(self) -> tuple[int, int]:
        return len(self.pairs), sum(len(t) for _, t in self.pairs)


@dataclass(frozen=True)
class ArrowCycle:
    """Cyclic arrow sequence all of whose consecutive pairs are relations."""

    arrows: tuple[str, ...]  # traversal order, rotated to the least arrow id

    def type(self) -> tuple[int, int]:
        return 0, len(self.arrows)


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


def _single_successor(succ: dict[str, list[str]]) -> dict[str, str | None]:
    out = {}
    for a, lst in succ.items():
        assert len(lst) <= 1, "gentleness gives at most one successor"
        out[a] = lst[0] if lst else None
    return out


def _threads(bq: BoundQuiver):
    """Permitted threads, forbidden threads and relation cycles, in one pass.

    The quiver must already be valid.  Each thread comes as ``(thread, start
    vertex, end vertex, sigma, epsilon)`` with the signs of the forbidden
    walk; the relation cycles are arrow tuples starting at their least arrow,
    in increasing order.

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
    idx = _index(bq.quiver)
    rels = bq.relations
    free_succ, rel_succ = {}, {}
    free_pred, rel_pred = set(), set()
    eps, sig = {}, {}
    for v in bq.vertices:
        ins, outs = idx.into[v], idx.out_of[v]
        for sign, a in zip((1, -1), ins):
            eps[a] = sign
        for b in outs:
            for a in ins:
                if (b, a) in rels:
                    rel_succ[a] = b
                    rel_pred.add(b)
                else:
                    free_succ[a] = b
                    free_pred.add(b)
                    sig[b] = -eps[a]
        for b, sibling in zip(outs, outs[::-1]):
            if b not in sig:
                sig[b] = -sig[sibling] if sibling in sig else 1

    def chains(succ, has_pred):
        out = []
        for a in idx.src_of:
            if a not in has_pred:
                chain = [a]
                while chain[-1] in succ:
                    chain.append(succ[chain[-1]])
                out.append((arrow_thread(chain), idx.src_of[a], idx.tgt_of[chain[-1]],
                            sig[a], eps[chain[-1]]))
        return out

    permitted = chains(free_succ, free_pred)
    forbidden = chains(rel_succ, rel_pred)
    seen = {a for t, *_ in forbidden for a in t.arrows}
    cycles = []
    for a in sorted(idx.src_of.keys() - seen):
        if a not in seen:
            cyc = [a]
            while rel_succ[cyc[-1]] != a:
                cyc.append(rel_succ[cyc[-1]])
            seen.update(cyc)
            cycles.append(tuple(cyc))
    for v in bq.vertices:
        ins, outs = idx.into[v], idx.out_of[v]
        if len(ins) > 1 or len(outs) > 1:
            continue
        t = trivial_thread(v)
        g = sig[outs[0]] if outs else 0
        b = eps[ins[0]] if ins else 0
        related = bool(ins and outs) and (outs[0], ins[0]) in rels
        if not related:
            permitted.append((t, v, v, -g or b or 1, -b or g or -1))
        if related or not (ins and outs):
            forbidden.append((t, v, v, -g or -b or -1, -b or -g or 1))
    return permitted, forbidden, cycles


def permitted_threads(bq: BoundQuiver) -> frozenset[Thread]:
    """Maximal relation-avoiding paths plus the qualifying trivial vertices."""
    require_valid(bq)
    return frozenset(t for t, *_ in _threads(bq)[0])


def forbidden_threads(bq: BoundQuiver) -> frozenset[Thread]:
    """Maximal finite relation chains plus the qualifying trivial vertices."""
    require_valid(bq)
    return frozenset(t for t, *_ in _threads(bq)[1])


def arrow_cycle_sequences(bq: BoundQuiver) -> frozenset[ArrowCycle]:
    require_valid(bq)
    return frozenset(ArrowCycle(c) for c in _threads(bq)[2])


def characteristic_sequences(bq: BoundQuiver) -> tuple:
    """All characteristic sequences: thread alternations plus relation cycles.

    The alternations are the cycles of the Avella-Alaminos–Geiss walk: from
    a permitted thread ``H`` to the forbidden thread ending at the end of
    ``H`` with the opposite epsilon, then to the permitted thread starting at
    the start of that one with the opposite sigma.  Each cycle starts at its
    least permitted thread, and the cycles come in that order.
    """
    require_valid(bq)
    permitted, forbidden, cycles = _threads(bq)
    idx = _index(bq.quiver)
    starts = {(s, sg): (t, e, ep) for t, s, e, sg, ep in permitted}
    ends = {(e, ep): (t, s, sg) for t, s, e, sg, ep in forbidden}
    incomplete = PairingIncomplete(
        "no complete pairing of %d permitted and %d forbidden threads"
        % (len(permitted), len(forbidden))
    )
    if bq.arrows and any(not idx.into[v] and not idx.out_of[v] for v in bq.vertices):
        raise incomplete  # an isolated vertex would pair only with itself
    pair_cycles = []
    try:
        for t, s, e, sg, ep in sorted(permitted, key=lambda entry: _thread_key(entry[0])):
            first = (s, sg)
            if starts.pop(first, None) is None:
                continue  # already on an earlier cycle
            pairs = []
            while True:
                f, s, sg = ends.pop((e, -ep))
                pairs.append((t, f))
                if (s, -sg) == first:
                    break
                t, e, ep = starts.pop((s, -sg))
            pair_cycles.append(PairCycle(tuple(pairs)))
    except KeyError:
        raise incomplete from None
    if ends:
        raise incomplete
    return tuple(pair_cycles) + tuple(ArrowCycle(c) for c in cycles)


def phi(bq: BoundQuiver) -> Phi:
    """Multiset of the types of all characteristic sequences."""
    return Phi.from_types(cs.type() for cs in characteristic_sequences(bq))


def degeneracy_class(bq: BoundQuiver) -> str:
    """Split by the total number of characteristic sequences (3 or 1)."""
    require_valid(bq, require_connected=True)
    if cycle_rank(bq) != 2:
        raise QuiverError("degeneracy split applies to two-cycle quivers only")
    total = phi(bq).total
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
    order = tuple(sorted(bq.vertices))
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    idx = _index(bq.quiver)
    succ1 = _single_successor(composition_successors(bq))
    for a in idx.src_of:
        i = pos[idx.src_of[a]]
        cur = a
        while cur is not None:
            rows[i][pos[idx.tgt_of[cur]]] += 1
            cur = succ1[cur]
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


def _inverse_fractions(matrix):
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def euler_data(bq: BoundQuiver):
    """``(det C, det(E + E^T))`` with ``E`` the inverse transpose of the path
    count matrix, or ``None`` when that matrix is not invertible over the
    integers."""
    _, rows = cartan_matrix(bq)
    det_c = _det_int(rows)
    if det_c not in (1, -1):
        return None
    inv = _inverse_fractions(rows)
    n = len(rows)
    e = [[inv[j][i] for j in range(n)] for i in range(n)]  # transpose
    sym = []
    for i in range(n):
        row = []
        for j in range(n):
            x = e[i][j] + e[j][i]
            assert x.denominator == 1, "unimodular inverse must be integral"
            row.append(x.numerator)
        sym.append(row)
    return det_c, _det_int(sym)


def cartan_determinant(bq: BoundQuiver) -> int:
    return _det_int(cartan_matrix(bq)[1])
