"""The move calculus on bound quivers.

Seven moves, each preserving the vertex and arrow counts and the validity of
the quiver: sink reflections (plain, generalized with a loop variant, and the
maximal-path flavor), their three duals at sources, and passing to the
opposite quiver.  The duals are realized by conjugating the primal rewrite
with ``opposite`` so there is a single source of truth per formula.  Each
rewrite is an integer kernel over vertex and arrow indices: the orbit
closure runs it on canonical codes, and the named moves run the same kernel
on the quiver's own record and rebuild with the original ids.

On top of the primitives sit two macros that slide a relation (or a block of
chained relations) along free arrows; each macro replays a fixed composite of
primitive moves on indices, checking every step, and returns the moves it
replayed, so every macro output is reachable step by step.  Their pattern
matchers work on indices too, and only the one-shot rewrites that the direct
forms return are redrawn with the original ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    BoundQuiver,
    QuiverError,
    require_valid,
    validate,
    _code,
    _Ints,
    _reverse,
    _valid,
)

__all__ = [
    "MoveKind",
    "Move",
    "MoveNotApplicable",
    "PatternMismatch",
    "ShiftDirection",
    "applicable_moves",
    "apply_move",
    "shift_relation",
    "shift_relation_direct",
    "shift_relation_block",
    "shift_relation_block_direct",
]


class MoveNotApplicable(QuiverError):
    pass


class PatternMismatch(QuiverError):
    pass


class MoveKind(enum.Enum):
    APR_REFLECT = "apr-reflect"
    APR_COREFLECT = "apr-coreflect"
    GEN_APR_REFLECT = "gen-apr-reflect"
    GEN_APR_COREFLECT = "gen-apr-coreflect"
    HW_REFLECT = "hw-reflect"
    HW_COREFLECT = "hw-coreflect"
    OPPOSITE = "opposite"


_DUAL = {
    MoveKind.APR_REFLECT: MoveKind.APR_COREFLECT,
    MoveKind.APR_COREFLECT: MoveKind.APR_REFLECT,
    MoveKind.GEN_APR_REFLECT: MoveKind.GEN_APR_COREFLECT,
    MoveKind.GEN_APR_COREFLECT: MoveKind.GEN_APR_REFLECT,
    MoveKind.HW_REFLECT: MoveKind.HW_COREFLECT,
    MoveKind.HW_COREFLECT: MoveKind.HW_REFLECT,
    MoveKind.OPPOSITE: MoveKind.OPPOSITE,
}

_KIND_ORDER = [
    MoveKind.APR_REFLECT,
    MoveKind.APR_COREFLECT,
    MoveKind.GEN_APR_REFLECT,
    MoveKind.GEN_APR_COREFLECT,
    MoveKind.HW_REFLECT,
    MoveKind.HW_COREFLECT,
]


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    vertex: str | None = None

    def __post_init__(self):
        if (self.vertex is None) != (self.kind is MoveKind.OPPOSITE):
            raise ValueError("vertex required exactly when the move is not 'opposite'")

    def dual(self) -> "Move":
        return Move(_DUAL[self.kind], self.vertex)

    def __str__(self) -> str:
        if self.kind is MoveKind.OPPOSITE:
            return "opposite"
        return "%s@%s" % (self.kind.value, self.vertex)


# ---------------------------------------------------------------------------
# the integer kernel: one source of truth for every move formula


def _gen_apr_blocker(q: _Ints, x: int) -> int | None:
    """None when gen-apr-reflect applies at ``x``; otherwise -1 when there is
    a loop at ``x`` but no arrow into ``x`` from another vertex, or else the
    first arrow out of ``x`` that no arrow into ``x`` precedes outside the
    relations."""
    ends, into = q.ends, q.ins[x]
    if any(ends[a][1] == x for a in q.outs[x]):
        return None if any(ends[b][0] != x for b in into) else -1
    pred = q.free_pred()
    return next((a for a in q.outs[x] if pred[a] < 0), None)


def _gen_apr(q: _Ints, x: int):
    """gen-apr-reflect at ``x``, where it applies: the new ``(ends, rels)``.

    Each arrow into ``x`` turns around.  An arrow leaving ``x`` now leaves the
    source of its relation-free continuation into ``x`` (of the one arrow into
    ``x`` from another vertex, when ``x`` carries a loop), and an arrow whose
    composite with an arrow into ``x`` is a relation now ends at ``x``.
    Without a loop the relations at ``x`` are replaced: each arrow leaving
    ``x`` is related to its old continuation, and each relation ``(g, s)``
    with ``g`` into ``x`` passes to the other arrow into ``x``.
    """
    ends, rels, into, outs = q.ends, q.rels, q.ins[x], q.outs[x]
    redirected = {a for b, a in rels if ends[b][1] == x}
    if any(ends[a][1] == x for a in outs):
        others = [b for b in into if ends[b][0] != x]
        assert len(others) == 1, "the non-loop incoming arrow is unique"
        new_src = dict.fromkeys(outs, ends[others[0]][0])
        new_rels = rels
    else:
        pred = q.free_pred()
        new_src = {a: ends[pred[a]][0] for a in outs}
        new_rels = {(f, s) for f, s in rels if x not in ends[f]}
        new_rels.update((a, pred[a]) for a in outs)
        for g, s in rels:
            if ends[g][1] == x:
                new_rels.update((a, s) for a in into if a != g)
    new_ends = [(x, s) if t == x else (new_src.get(k, s), x if k in redirected else t)
                for k, (s, t) in enumerate(ends)]
    return new_ends, new_rels


def _hw(q: _Ints, x: int):
    """hw-reflect at the sink ``x``: the new ``(ends, rels)``.

    Each arrow into ``x`` walks back along relation-free predecessors to the
    first arrow of its maximal path and is redrawn from ``x`` to that arrow's
    source; there it is related to the other arrows leaving that source
    (those not into ``x``), and the relations ending at ``x`` are dropped.
    """
    ends, rels, into = q.ends, q.rels, q.ins[x]
    if q.n == 1:
        return ends, rels
    pred = q.free_pred()
    start = {}
    for a in into:
        cur = a
        for _ in range(len(ends) + 1):
            if pred[cur] < 0:
                break
            cur = pred[cur]
        else:
            raise AssertionError("maximal path walk did not terminate")
        start[a] = cur
    new_ends = [(x, ends[start[k]][0]) if t == x else (s, t) for k, (s, t) in enumerate(ends)]
    new_rels = {(f, s) for f, s in rels if ends[f][1] != x}
    for a in into:
        first = start[a]
        new_rels.update((b, a) for b in q.outs[ends[first][0]]
                        if b != first and ends[b][1] != x)
    return new_ends, new_rels


def _image(q: _Ints, kind: MoveKind, x: int | None):
    """The ``(ends, rels)`` after the applicable move ``kind`` at ``x``."""
    if kind is MoveKind.OPPOSITE:
        return _reverse(q.ends, q.rels)
    if kind is MoveKind.HW_REFLECT:
        return _hw(q, x)
    if kind is MoveKind.APR_REFLECT or kind is MoveKind.GEN_APR_REFLECT:
        # a sink meets the generalized preconditions vacuously
        return _gen_apr(q, x)
    # a coreflection is the dual reflection conjugated by opposite
    return _reverse(*_image(q.opposite(), _DUAL[kind], x))


def _generator_codes(q: _Ints) -> tuple[list[tuple], tuple]:
    """The codes of the generating moves' outputs on ``q``: (reflections,
    opposite).

    The reflections are ``gen-apr-reflect`` at every vertex meeting its
    preconditions and ``hw-reflect`` at every sink, in vertex order, without
    validation; ``gentleq.orbit`` says why these moves reach every move's
    output.
    """
    reflections = []
    for x in range(q.n):
        if _gen_apr_blocker(q, x) is None:
            reflections.append(_code(q.n, *_gen_apr(q, x)))
        if not q.outs[x]:
            reflections.append(_code(q.n, *_hw(q, x)))
    return reflections, _code(q.n, *_reverse(q.ends, q.rels))


# ---------------------------------------------------------------------------
# moves on named quivers


def _named(bq: BoundQuiver, ends, rels) -> BoundQuiver:
    """``bq`` redrawn with the arrow ends and relations given on indices."""
    vs = bq.vertices
    ids = [a for a, _s, _t in bq.arrows]
    return BoundQuiver(
        vs,
        tuple([(ids[k], vs[s], vs[t]) for k, (s, t) in enumerate(ends)]),
        frozenset([(ids[f], ids[s]) for f, s in rels]),
        bq.name,
    )


def _applies(q: _Ints, kind: MoveKind, x: int) -> bool:
    """Whether the move ``kind`` (not 'opposite') applies at the vertex ``x``."""
    if kind is MoveKind.APR_REFLECT or kind is MoveKind.HW_REFLECT:
        return not q.outs[x]
    if kind is MoveKind.APR_COREFLECT or kind is MoveKind.HW_COREFLECT:
        return not q.ins[x]
    return _gen_apr_blocker(q if kind is MoveKind.GEN_APR_REFLECT else q.opposite(), x) is None


def _applicable_pairs(q: _Ints, order) -> list[tuple[MoveKind, int]]:
    """The applicable ``(kind, vertex)`` pairs other than 'opposite': the
    vertices in ``order``, the kinds at each vertex in ``_KIND_ORDER``."""
    return [(kind, x) for x in order for kind in _KIND_ORDER if _applies(q, kind, x)]


def _not_applicable_reason(bq: BoundQuiver, q: _Ints, pos: dict, move: Move) -> str | None:
    """None when ``move`` applies to ``bq``, whose indices are ``q`` and
    ``pos`` (vertex name -> index), otherwise why not."""
    kind, v = move.kind, move.vertex
    if kind is MoveKind.OPPOSITE:
        return None
    x = pos.get(v)
    if x is None:
        return "unknown vertex %r" % v
    if _applies(q, kind, x):
        return None
    if kind is MoveKind.APR_REFLECT or kind is MoveKind.HW_REFLECT:
        return "vertex %s is not a sink" % v
    if kind is MoveKind.APR_COREFLECT or kind is MoveKind.HW_COREFLECT:
        return "vertex %s is not a source" % v
    blocker = _gen_apr_blocker(q if kind is MoveKind.GEN_APR_REFLECT else q.opposite(), x)
    if blocker < 0:
        return "loop variant needs an incoming arrow from another vertex"
    return "outgoing arrow %s has no relation-free incoming continuation" % bq.arrows[blocker][0]


def applicable_moves(bq: BoundQuiver) -> list[Move]:
    """Every applicable (kind, vertex) pair of a valid quiver, plus
    'opposite', in fixed order."""
    require_valid(bq)
    vs = bq.vertices
    order = sorted(range(len(vs)), key=vs.__getitem__)
    out = [Move(kind, vs[x]) for kind, x in _applicable_pairs(bq._ints, order)]
    out.append(Move(MoveKind.OPPOSITE))
    return out


def _replay(bq: BoundQuiver, moves):
    """Apply ``moves`` in turn to ``bq``; returns the result and ``moves``.

    The steps run on records: each checks that its move applies and that
    its output is valid, and only the result is redrawn with the original
    ids.  A move keeps every vertex and arrow at its position, so the names
    of ``bq`` serve every step's messages.
    """
    q, pos = bq._ints, {v: i for i, v in enumerate(bq.vertices)}
    for mv in moves:
        reason = _not_applicable_reason(bq, q, pos, mv)
        if reason is not None:
            raise MoveNotApplicable("%s: %s" % (mv, reason))
        q = _Ints(q.n, *_image(q, mv.kind, pos.get(mv.vertex)))
        if not _valid(q):
            raise AssertionError("%s produced an invalid quiver: %s"
                                 % (mv, validate(_named(bq, q.ends, q.rels))))
    return _named(bq, q.ends, q.rels), moves


def apply_move(bq: BoundQuiver, move: Move):
    """Apply one move to a valid quiver; returns ``(quiver, (move,))`` like
    ``shift_relation``."""
    require_valid(bq)
    return _replay(bq, (move,))


# ---------------------------------------------------------------------------
# relation-shift macros


class ShiftDirection(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class _ShiftPlan:
    """A slide: the composite of moves and the one-shot rewrite on indices."""

    moves: tuple[Move, ...]
    ends: list
    rels: set


def _match_shift_right(bq: BoundQuiver, q: _Ints, rel) -> _ShiftPlan:
    """Match the slide-one-step-right pattern at a relation of ``q``, which
    is ``bq`` or its opposite on indices (``bq`` gives the names).

    Either the short form (the middle vertex carries only the relation's
    second arrow and one free continuation) or the long form (the relation's
    second arrow sits at the head of a bare chain of free arrows whose far
    end receives the continuation arrow).
    """
    first, second = rel
    vs, ids = bq.vertices, [a for a, _s, _t in bq.arrows]
    aidx = {a: k for k, a in enumerate(ids)}
    a1, a2 = aidx.get(first), aidx.get(second)
    ends, rels = q.ends, q.rels
    if (a1, a2) not in rels:
        raise PatternMismatch("(%s, %s) is not a relation" % (first, second))
    x, y = ends[a1][0], ends[a2][0]
    new = list(ends)

    out_y, in_y = q.outs[y], q.ins[y]
    if out_y == [a2] and len(in_y) == 1:
        a3 = in_y[0]
        if a3 == a2:
            raise PatternMismatch("second arrow loops at its own source")
        if (a2, a3) in rels:
            raise PatternMismatch("continuation (%s, %s) is itself a relation"
                                  % (ids[a2], ids[a3]))
        if a3 == a1:
            # closed two-cycle between x and y: both arrows flip, and so
            # does the relation
            new[a1], new[a2] = ends[a1][::-1], ends[a2][::-1]
        else:
            new[a1], new[a2], new[a3] = (y, ends[a1][1]), (x, y), (ends[a3][0], x)
        return _ShiftPlan((Move(MoveKind.GEN_APR_COREFLECT, vs[y]),),
                          new, rels - {(a1, a2)} | {(a2, a3)})

    # long form: y emits a2 plus one free arrow and receives nothing
    if in_y or len(out_y) != 2:
        raise PatternMismatch("middle vertex %s does not fit either slide pattern" % vs[y])
    if q.outs[x] != [a1] or q.ins[x] != [a2]:
        raise PatternMismatch("relation junction %s carries extra arrows" % vs[x])

    related = {a for pair in rels for a in pair}
    chain = []  # free arrows b_n .. b_1 walking away from y
    nodes = [y]
    cur = out_y[0] if out_y[1] == a2 else out_y[1]
    while True:
        if cur in related:
            raise PatternMismatch("chain arrow %s is not free" % ids[cur])
        chain.append(cur)
        v = ends[cur][1]
        nodes.append(v)
        outs, ins = q.outs[v], q.ins[v]
        if not outs:
            if len(ins) != 2:
                raise PatternMismatch("chain end %s lacks the continuation arrow" % vs[v])
            a3 = ins[0] if ins[1] == cur else ins[1]
            break
        if len(outs) == 1 and ins == [cur]:
            cur = outs[0]
            continue
        raise PatternMismatch("vertex %s interrupts the free chain" % vs[v])
    if a3 == a1:
        raise PatternMismatch("continuation coincides with the relation's first arrow")

    # composite: for i = n..1 coreflect along y_i..y_n then x, then
    # generalized coreflections along y_0..y_n
    n = len(chain)  # chain = [b_n, ..., b_1], nodes = [y_n, ..., y_0]
    y_of = {i: nodes[n - i] for i in range(n + 1)}
    moves = []
    for i in range(n, 0, -1):
        for j in range(i, n + 1):
            moves.append(Move(MoveKind.APR_COREFLECT, vs[y_of[j]]))
        moves.append(Move(MoveKind.APR_COREFLECT, vs[x]))
    for j in range(0, n + 1):
        moves.append(Move(MoveKind.GEN_APR_COREFLECT, vs[y_of[j]]))

    new[a1], new[a2], new[a3] = (y_of[0], ends[a1][1]), (x, y_of[n]), (ends[a3][0], x)
    for b in chain:  # every free arrow of the chain is reversed
        new[b] = ends[b][::-1]
    return _ShiftPlan(tuple(moves), new, rels - {(a1, a2)} | {(a2, a3)})


def shift_relation(bq: BoundQuiver, rel, direction: ShiftDirection):
    """Slide a relation one step along its path via primitive moves.

    Returns ``(quiver, moves)``; raises PatternMismatch when the local
    shape around the relation does not allow the slide.
    """
    require_valid(bq)
    q = bq._ints
    if direction is ShiftDirection.RIGHT:
        return _replay(bq, _match_shift_right(bq, q, rel).moves)
    plan = _match_shift_right(bq, q.opposite(), (rel[1], rel[0]))
    return _replay(bq, tuple(m.dual() for m in plan.moves))


def shift_relation_direct(bq: BoundQuiver, rel, direction: ShiftDirection) -> BoundQuiver:
    """The slide's one-shot rewrite, bypassing the primitives; ``verify
    slides`` checks that ``shift_relation`` replays to it."""
    require_valid(bq)
    q = bq._ints
    if direction is ShiftDirection.RIGHT:
        plan = _match_shift_right(bq, q, rel)
        return _named(bq, plan.ends, plan.rels)
    plan = _match_shift_right(bq, q.opposite(), (rel[1], rel[0]))
    return _named(bq, *_reverse(plan.ends, plan.rels))


def _match_block(bq: BoundQuiver, q: _Ints, beta: str) -> _ShiftPlan:
    """Match the block slide anchored at a free arrow into a bare sink of
    ``q``, which is ``bq`` on indices."""
    vs, ids = bq.vertices, [a for a, _s, _t in bq.arrows]
    if beta not in ids:
        raise PatternMismatch("unknown arrow %r" % beta)
    ends, rels = q.ends, q.rels
    b = ids.index(beta)
    if any(b in pair for pair in rels):
        raise PatternMismatch("anchor arrow %s is not free" % beta)
    x0 = ends[b][1]
    if q.outs[x0]:
        raise PatternMismatch("block head %s is not a sink" % vs[x0])
    ins = q.ins[x0]
    if len(ins) != 2:
        raise PatternMismatch("block head %s needs exactly one chain arrow besides the anchor"
                              % vs[x0])
    a1 = ins[0] if ins[1] == b else ins[1]
    # the chained relations are (a_1, a_2), (a_2, a_3), ...: follow seconds
    rel_next = dict(rels)
    chain = [a1]
    while chain[-1] in rel_next:
        nxt = rel_next[chain[-1]]
        if nxt in chain:
            raise PatternMismatch("relation chain at %s closes into a cycle" % ids[a1])
        chain.append(nxt)
    n = len(chain)
    if n < 2:
        raise PatternMismatch("no relation chain starts at %s" % ids[a1])
    # chain[i] = a_{i+1}: x_{i+1} -> x_i; interior vertices must be bare
    for i in range(n - 1):
        v = ends[chain[i]][0]  # x_{i+1}
        if q.outs[v] != [chain[i]] or q.ins[v] != [chain[i + 1]]:
            raise PatternMismatch("vertex %s interrupts the relation chain" % vs[v])
    xs = [x0] + [ends[a][0] for a in chain]  # xs[i] = x_i
    new = list(ends)
    new[b] = (xs[1], ends[b][0])
    for i in range(1, n - 1):  # a_i moves to x_{i+1} -> x_i
        new[chain[i - 1]] = (xs[i + 1], xs[i])
    new[chain[n - 2]] = (xs[0], xs[n - 1])
    new[chain[n - 1]] = (xs[0], xs[n])
    moves = [Move(MoveKind.APR_REFLECT, vs[xs[0]])]
    for i in range(1, n):
        moves.append(Move(MoveKind.APR_REFLECT, vs[xs[i]]))
        moves.append(Move(MoveKind.GEN_APR_REFLECT, vs[xs[0]]))
    return _ShiftPlan(tuple(moves), new, rels - {(chain[n - 2], chain[n - 1])} | {(b, a1)})


def shift_relation_block(bq: BoundQuiver, beta: str):
    """Slide a maximal block of chained relations over the free arrow ``beta``.

    Returns ``(quiver, moves)`` like ``shift_relation``."""
    require_valid(bq)
    return _replay(bq, _match_block(bq, bq._ints, beta).moves)


def shift_relation_block_direct(bq: BoundQuiver, beta: str) -> BoundQuiver:
    require_valid(bq)
    plan = _match_block(bq, bq._ints, beta)
    return _named(bq, plan.ends, plan.rels)
