"""The move calculus on bound quivers.

Seven moves, each preserving the vertex and arrow counts and the validity of
the quiver: sink reflections (plain, generalized with a loop variant, and the
maximal-path flavor), their three duals at sources, and passing to the
opposite quiver.  The duals are realized by conjugating the primal rewrite
with ``opposite`` so there is a single source of truth per formula.  Each
rewrite is an integer kernel over vertex and arrow indices: the orbit
closure runs it on canonical codes, and the named moves index the quiver,
run the same kernel and rebuild with the original ids.

On top of the primitives sit two macros that slide a relation (or a block of
chained relations) along free arrows; each macro replays a fixed composite of
primitive moves and returns the receipts, so every macro output is reachable
step by step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    BoundQuiver,
    Quiver,
    QuiverError,
    canonical_key,
    opposite,
    require_valid,
    validate,
    _adjacency,
    _code,
    _decode,
    _index,
    _integer,
    _valid,
)

__all__ = [
    "MoveKind",
    "Move",
    "MoveReceipt",
    "MoveNotApplicable",
    "PatternMismatch",
    "ShiftDirection",
    "applicable",
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


@dataclass(frozen=True)
class MoveReceipt:
    """Audit record: which move sent which class to which, arrow by arrow."""

    move: Move
    input_key: str
    output_key: str
    arrow_map: tuple[tuple[str, str, str], ...]  # (arrow, new source, new target)


# ---------------------------------------------------------------------------
# the integer kernel: one source of truth for every move formula


class _Ints:
    """A bound quiver on indices: the ``(source, target)`` of each arrow, the
    relations as a set of ``(first, second)`` arrow positions, and the arrows
    out of and into each vertex."""

    __slots__ = ("n", "ends", "rels", "outs", "ins", "_op")

    def __init__(self, n: int, ends, rels):
        self.n, self.ends, self.rels = n, ends, rels
        self.outs, self.ins = _adjacency(n, ends)
        self._op = None

    def opposite(self) -> "_Ints":
        if self._op is None:
            self._op = _Ints(self.n, *_reverse(self.ends, self.rels))
        return self._op


def _reverse(ends, rels):
    """The ``(ends, rels)`` of the opposite quiver."""
    return [(t, s) for s, t in ends], {(s, f) for f, s in rels}


def _gen_apr_blocker(q: _Ints, x: int) -> int | None:
    """None when gen-apr-reflect applies at ``x``; otherwise -1 when there is
    a loop at ``x`` but no arrow into ``x`` from another vertex, or else the
    first arrow out of ``x`` that no arrow into ``x`` precedes outside the
    relations."""
    ends, into = q.ends, q.ins[x]
    if any(ends[a][1] == x for a in q.outs[x]):
        return None if any(ends[b][0] != x for b in into) else -1
    for a in q.outs[x]:
        if all((a, b) in q.rels for b in into):
            return a
    return None


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
        new_src = {}
        new_rels = {(f, s) for f, s in rels if x not in ends[f]}
        for a in outs:
            frees = [b for b in into if (a, b) not in rels]
            assert len(frees) == 1, "gentleness forces a unique relation-free continuation"
            new_src[a] = ends[frees[0]][0]
            new_rels.add((a, frees[0]))
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
    start = {}
    for a in into:
        cur = a
        for _ in range(len(ends) + 1):
            frees = [b for b in q.ins[ends[cur][0]] if (cur, b) not in rels]
            assert len(frees) <= 1
            if not frees:
                break
            cur = frees[0]
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


def _generator_codes(code: tuple) -> tuple[list[tuple], tuple]:
    """The codes of the generating moves' outputs on ``code``: (reflections,
    opposite).

    The reflections are ``gen-apr-reflect`` at every vertex meeting its
    preconditions and ``hw-reflect`` at every sink, in vertex order, without
    receipts or validation; ``gentleq.orbit`` says why these moves reach every
    move's output.
    """
    n = code[0]
    q = _Ints(*_decode(code))
    reflections = []
    for x in range(n):
        if _gen_apr_blocker(q, x) is None:
            reflections.append(_code(n, *_gen_apr(q, x)))
        if not q.outs[x]:
            reflections.append(_code(n, *_hw(q, x)))
    return reflections, _code(n, *_reverse(q.ends, q.rels))


# ---------------------------------------------------------------------------
# moves on named quivers


def _named(bq: BoundQuiver, ends, rels) -> BoundQuiver:
    """``bq`` redrawn with the arrow ends and relations given on indices."""
    vs = bq.vertices
    ids = [a for a, _s, _t in bq.arrows]
    return BoundQuiver(
        Quiver(vs, tuple([(ids[k], vs[s], vs[t]) for k, (s, t) in enumerate(ends)])),
        frozenset([(ids[f], ids[s]) for f, s in rels]),
        bq.name,
    )


def _gen_apr_reflect(bq: BoundQuiver, x: str) -> BoundQuiver:
    return _named(bq, *_gen_apr(_Ints(*_integer(bq)), bq.vertices.index(x)))


def _hw_reflect(bq: BoundQuiver, x: str) -> BoundQuiver:
    return _named(bq, *_hw(_Ints(*_integer(bq)), bq.vertices.index(x)))


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


def _indexed(bq: BoundQuiver) -> tuple[_Ints, dict]:
    return _Ints(*_integer(bq)), {v: i for i, v in enumerate(bq.vertices)}


def applicable(bq: BoundQuiver, move: Move) -> bool:
    return _not_applicable_reason(bq, *_indexed(bq), move) is None


def applicable_moves(bq: BoundQuiver) -> list[Move]:
    """Every applicable (kind, vertex) pair, plus 'opposite', in fixed order."""
    vs = bq.vertices
    order = sorted(range(len(vs)), key=vs.__getitem__)
    out = [Move(kind, vs[x]) for kind, x in _applicable_pairs(_Ints(*_integer(bq)), order)]
    out.append(Move(MoveKind.OPPOSITE))
    return out


def apply_move(bq: BoundQuiver, move: Move, _input_key: str | None = None):
    """Apply one move; returns the new quiver and the audit receipt."""
    q, pos = _indexed(bq)
    reason = _not_applicable_reason(bq, q, pos, move)
    if reason is not None:
        raise MoveNotApplicable("%s: %s" % (move, reason))
    ends, rels = _image(q, move.kind, pos.get(move.vertex))
    out = _named(bq, ends, rels)
    if not _valid(q.n, ends, rels):
        raise AssertionError("%s produced an invalid quiver: %s" % (move, validate(out)))
    receipt = MoveReceipt(
        move,
        _input_key if _input_key is not None else canonical_key(bq),
        canonical_key(out),
        tuple(sorted((a, s, t) for a, s, t in out.arrows)),
    )
    return out, receipt


# ---------------------------------------------------------------------------
# relation-shift macros


class ShiftDirection(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class _ShiftPlan:
    moves: tuple[Move, ...]
    direct: BoundQuiver


def _rebuild(bq: BoundQuiver, new_src, new_tgt, new_relations) -> BoundQuiver:
    arrows = tuple((a, new_src[a], new_tgt[a]) for a, _s, _t in bq.arrows)
    return BoundQuiver(Quiver(bq.vertices, arrows), frozenset(new_relations), bq.name)


def _match_shift_right(bq: BoundQuiver, rel) -> _ShiftPlan:
    """Match the slide-one-step-right pattern at a relation.

    Either the short form (the middle vertex carries only the relation's
    second arrow and one free continuation) or the long form (the relation's
    second arrow sits at the head of a bare chain of free arrows whose far
    end receives the continuation arrow).
    """
    a1, a2 = rel
    if (a1, a2) not in bq.relations:
        raise PatternMismatch("(%s, %s) is not a relation" % (a1, a2))
    idx = _index(bq.quiver)
    x = idx.src_of[a1]
    y = idx.src_of[a2]
    src, tgt = dict(idx.src_of), dict(idx.tgt_of)

    out_y = sorted(idx.out_of[y])
    in_y = sorted(idx.into[y])
    if out_y == [a2] and len(in_y) == 1:
        a3 = in_y[0]
        if a3 == a2:
            raise PatternMismatch("second arrow loops at its own source")
        if (a2, a3) in bq.relations:
            raise PatternMismatch("continuation (%s, %s) is itself a relation" % (a2, a3))
        if a3 == a1:
            # closed two-cycle between x and y: both arrows flip, and so
            # does the relation
            src[a1], tgt[a1] = tgt[a1], src[a1]
            src[a2], tgt[a2] = tgt[a2], src[a2]
            rels = set(bq.relations) - {(a1, a2)} | {(a2, a3)}
            return _ShiftPlan(
                (Move(MoveKind.GEN_APR_COREFLECT, y),),
                _rebuild(bq, src, tgt, rels),
            )
        src[a1] = y
        src[a2], tgt[a2] = x, y
        tgt[a3] = x
        rels = set(bq.relations) - {(a1, a2)} | {(a2, a3)}
        return _ShiftPlan(
            (Move(MoveKind.GEN_APR_COREFLECT, y),),
            _rebuild(bq, src, tgt, rels),
        )

    # long form: y emits a2 plus one free arrow and receives nothing
    if in_y or len(out_y) != 2:
        raise PatternMismatch("middle vertex %s does not fit either slide pattern" % y)
    if sorted(idx.out_of[x]) != [a1] or sorted(idx.into[x]) != [a2]:
        raise PatternMismatch("relation junction %s carries extra arrows" % x)

    def is_free(arrow):
        return not any(arrow in pair for pair in bq.relations)

    chain = []  # free arrows b_n .. b_1 walking away from y
    nodes = [y]
    cur_arrow = next(b for b in out_y if b != a2)
    while True:
        if not is_free(cur_arrow):
            raise PatternMismatch("chain arrow %s is not free" % cur_arrow)
        chain.append(cur_arrow)
        v = tgt[cur_arrow]
        nodes.append(v)
        outs = sorted(idx.out_of[v])
        ins = sorted(idx.into[v])
        if not outs:
            if len(ins) != 2:
                raise PatternMismatch("chain end %s lacks the continuation arrow" % v)
            a3 = next(b for b in ins if b != cur_arrow)
            break
        if len(outs) == 1 and ins == [cur_arrow]:
            cur_arrow = outs[0]
            continue
        raise PatternMismatch("vertex %s interrupts the free chain" % v)
    if a3 == a1:
        raise PatternMismatch("continuation coincides with the relation's first arrow")

    # composite: for i = n..1 coreflect along y_i..y_n then x, then
    # generalized coreflections along y_0..y_n
    n = len(chain)  # chain = [b_n, ..., b_1], nodes = [y_n, ..., y_0]
    y_of = {i: nodes[n - i] for i in range(n + 1)}
    moves = []
    for i in range(n, 0, -1):
        for j in range(i, n + 1):
            moves.append(Move(MoveKind.APR_COREFLECT, y_of[j]))
        moves.append(Move(MoveKind.APR_COREFLECT, x))
    for j in range(0, n + 1):
        moves.append(Move(MoveKind.GEN_APR_COREFLECT, y_of[j]))

    src[a1] = y_of[0]
    src[a2], tgt[a2] = x, y_of[n]
    tgt[a3] = x
    for b in chain:  # every free arrow of the chain is reversed
        src[b], tgt[b] = tgt[b], src[b]
    rels = set(bq.relations) - {(a1, a2)} | {(a2, a3)}
    return _ShiftPlan(tuple(moves), _rebuild(bq, src, tgt, rels))


def _replay(bq: BoundQuiver, moves):
    receipts = []
    cur = bq
    for mv in moves:
        cur, receipt = apply_move(cur, mv)
        receipts.append(receipt)
    return cur, tuple(receipts)


def shift_relation(bq: BoundQuiver, rel, direction: ShiftDirection):
    """Slide a relation one step along its path via primitive moves.

    Returns ``(quiver, receipts)``; raises PatternMismatch when the local
    shape around the relation does not allow the slide.
    """
    require_valid(bq)
    if direction is ShiftDirection.RIGHT:
        plan = _match_shift_right(bq, rel)
        return _replay(bq, plan.moves)
    plan = _match_shift_right(opposite(bq), (rel[1], rel[0]))
    return _replay(bq, tuple(m.dual() for m in plan.moves))


def shift_relation_direct(bq: BoundQuiver, rel, direction: ShiftDirection) -> BoundQuiver:
    """The slide's one-shot rewrite, bypassing the primitives (test oracle)."""
    require_valid(bq)
    if direction is ShiftDirection.RIGHT:
        return _match_shift_right(bq, rel).direct
    return opposite(_match_shift_right(opposite(bq), (rel[1], rel[0])).direct)


def _match_block(bq: BoundQuiver, beta: str) -> _ShiftPlan:
    """Match the block slide anchored at a free arrow into a bare sink."""
    idx = _index(bq.quiver)
    if beta not in idx.src_of:
        raise PatternMismatch("unknown arrow %r" % beta)
    if any(beta in pair for pair in bq.relations):
        raise PatternMismatch("anchor arrow %s is not free" % beta)
    x0 = idx.tgt_of[beta]
    if idx.out_of[x0]:
        raise PatternMismatch("block head %s is not a sink" % x0)
    ins = sorted(idx.into[x0])
    if len(ins) != 2:
        raise PatternMismatch("block head %s needs exactly one chain arrow besides the anchor" % x0)
    a1 = next(a for a in ins if a != beta)
    # the chained relations are (a_1, a_2), (a_2, a_3), ...: follow seconds
    rel_next = {f: s2 for f, s2 in bq.relations}
    chain = [a1]
    while chain[-1] in rel_next:
        nxt = rel_next[chain[-1]]
        if nxt in chain:
            raise PatternMismatch("relation chain at %s closes into a cycle" % a1)
        chain.append(nxt)
    n = len(chain)
    if n < 2:
        raise PatternMismatch("no relation chain starts at %s" % a1)
    # chain[i] = a_{i+1}: x_{i+1} -> x_i; interior vertices must be bare
    for i in range(n - 1):
        v = idx.src_of[chain[i]]  # x_{i+1}
        if sorted(idx.out_of[v]) != [chain[i]] or sorted(idx.into[v]) != [chain[i + 1]]:
            raise PatternMismatch("vertex %s interrupts the relation chain" % v)
    xs = [x0] + [idx.src_of[a] for a in chain]  # xs[i] = x_i
    src, tgt = dict(idx.src_of), dict(idx.tgt_of)
    y = idx.src_of[beta]
    src[beta], tgt[beta] = xs[1], y
    for i in range(1, n - 1):  # a_i moves to x_{i+1} -> x_i
        src[chain[i - 1]] = xs[i + 1]
        tgt[chain[i - 1]] = xs[i]
    src[chain[n - 2]] = xs[0]
    tgt[chain[n - 2]] = xs[n - 1]
    src[chain[n - 1]] = xs[0]
    tgt[chain[n - 1]] = xs[n]
    rels = set(bq.relations) - {(chain[n - 2], chain[n - 1])} | {(beta, a1)}
    moves = [Move(MoveKind.APR_REFLECT, xs[0])]
    for i in range(1, n):
        moves.append(Move(MoveKind.APR_REFLECT, xs[i]))
        moves.append(Move(MoveKind.GEN_APR_REFLECT, xs[0]))
    return _ShiftPlan(tuple(moves), _rebuild(bq, src, tgt, rels))


def shift_relation_block(bq: BoundQuiver, beta: str):
    """Slide a maximal block of chained relations over the free arrow ``beta``."""
    require_valid(bq)
    plan = _match_block(bq, beta)
    return _replay(bq, plan.moves)


def shift_relation_block_direct(bq: BoundQuiver, beta: str) -> BoundQuiver:
    require_valid(bq)
    plan = _match_block(bq, beta)
    return plan.direct
