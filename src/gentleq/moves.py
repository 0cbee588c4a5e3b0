"""The move calculus on bound quivers.

Seven moves, each preserving the vertex and arrow counts and the validity of
the quiver: sink reflections (plain, generalized with a loop variant, and the
maximal-path flavor), their three duals at sources, and passing to the
opposite quiver.  The duals are realized by conjugating the primal rewrite
with ``opposite`` so there is a single source of truth per formula.

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
    _index,
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


def _rebuild(bq: BoundQuiver, new_src, new_tgt, new_relations) -> BoundQuiver:
    arrows = tuple((a, new_src[a], new_tgt[a]) for a, _s, _t in bq.arrows)
    return BoundQuiver(Quiver(bq.vertices, arrows), frozenset(new_relations), bq.name)


def _loop_at(idx, x):
    return [a for a in idx.out_of[x] if a in idx.into[x]]


def _gen_apr_precondition(bq: BoundQuiver, x: str) -> str | None:
    """None when applicable, otherwise the violated condition."""
    idx = _index(bq.quiver)
    if x not in idx.out_of:
        return "unknown vertex %r" % x
    loops = _loop_at(idx, x)
    if loops:
        if not any(idx.src_of[b] != x for b in idx.into[x]):
            return "loop variant needs an incoming arrow from another vertex"
        return None
    for a in idx.out_of[x]:
        if not any((a, b) not in bq.relations for b in idx.into[x]):
            return "outgoing arrow %s has no relation-free incoming continuation" % a
    return None


def _redirect_target(bq: BoundQuiver, idx, x):
    """The targets-side case split shared by the sink reflections."""
    def new_tgt(a):
        s, t = idx.src_of[a], idx.tgt_of[a]
        if t == x:
            return s
        for b in idx.into[x]:
            if idx.src_of[b] == t and (b, a) in bq.relations:
                return x
        return t
    return new_tgt


def _gen_apr_reflect(bq: BoundQuiver, x: str) -> BoundQuiver:
    idx = _index(bq.quiver)
    loops = _loop_at(idx, x)
    new_tgt_of = _redirect_target(bq, idx, x)
    new_src = {}
    new_tgt = {}
    if loops:
        beta0 = [b for b in idx.into[x] if idx.src_of[b] != x]
        assert len(beta0) == 1, "the non-loop incoming arrow is unique"
        y = idx.src_of[beta0[0]]
        for a, s, t in bq.arrows:
            if t == x:
                new_src[a] = x
            elif s == x:
                new_src[a] = y
            else:
                new_src[a] = s
            new_tgt[a] = new_tgt_of(a)
        return _rebuild(bq, new_src, new_tgt, bq.relations)
    beta = {}
    for a in idx.out_of[x]:
        frees = [b for b in idx.into[x] if (a, b) not in bq.relations]
        assert len(frees) == 1, "gentleness forces a unique relation-free continuation"
        beta[a] = frees[0]
    for a, s, t in bq.arrows:
        if t == x:
            new_src[a] = x
        elif s == x:
            new_src[a] = idx.src_of[beta[a]]
        else:
            new_src[a] = s
        new_tgt[a] = new_tgt_of(a)
    relations = {(f, s2) for f, s2 in bq.relations
                 if idx.tgt_of[f] != x and idx.src_of[f] != x}
    relations.update((a, beta[a]) for a in idx.out_of[x])
    for gamma in idx.into[x]:
        for f, s2 in bq.relations:
            if f == gamma:
                for a in idx.into[x]:
                    if a != gamma:
                        relations.add((a, s2))
    return _rebuild(bq, new_src, new_tgt, relations)


def _hw_reflect(bq: BoundQuiver, x: str) -> BoundQuiver:
    if len(bq.vertices) == 1:
        return bq
    idx = _index(bq.quiver)
    pred = {}
    for a in idx.src_of:
        frees = [b for b in idx.into[idx.src_of[a]] if (a, b) not in bq.relations]
        assert len(frees) <= 1
        pred[a] = frees[0] if frees else None
    start_of = {}
    for a in idx.into[x]:
        cur = a
        for _ in range(len(bq.arrows) + 1):
            if pred[cur] is None:
                break
            cur = pred[cur]
        else:
            raise AssertionError("maximal path walk did not terminate")
        start_of[a] = cur
    new_src = {}
    new_tgt = {}
    for a, s, t in bq.arrows:
        if t == x:
            new_src[a] = x
            new_tgt[a] = idx.src_of[start_of[a]]
        else:
            new_src[a] = s
            new_tgt[a] = t
    relations = {(f, s2) for f, s2 in bq.relations if idx.tgt_of[f] != x}
    for a in idx.into[x]:
        root = idx.src_of[start_of[a]]
        for b in idx.out_of[root]:
            if b != start_of[a] and idx.tgt_of[b] != x:
                relations.add((b, a))
    return _rebuild(bq, new_src, new_tgt, relations)


def _not_applicable_reason(bq: BoundQuiver, move: Move) -> str | None:
    idx = _index(bq.quiver)
    kind, x = move.kind, move.vertex
    if kind is MoveKind.OPPOSITE:
        return None
    if x not in idx.out_of:
        return "unknown vertex %r" % x
    if kind is MoveKind.APR_REFLECT or kind is MoveKind.HW_REFLECT:
        return None if not idx.out_of[x] else "vertex %s is not a sink" % x
    if kind is MoveKind.APR_COREFLECT or kind is MoveKind.HW_COREFLECT:
        return None if not idx.into[x] else "vertex %s is not a source" % x
    if kind is MoveKind.GEN_APR_REFLECT:
        return _gen_apr_precondition(bq, x)
    if kind is MoveKind.GEN_APR_COREFLECT:
        return _gen_apr_precondition(opposite(bq), x)
    raise AssertionError(kind)


def _generator_images(bq: BoundQuiver) -> tuple[list[BoundQuiver], BoundQuiver]:
    """The outputs of the generating moves on ``bq``: (reflections, opposite).

    The reflections are ``gen-apr-reflect`` at every vertex meeting its
    preconditions and ``hw-reflect`` at every sink, without receipts or
    validation; ``gentleq.orbit`` says why these moves reach every move's
    output.
    """
    idx = _index(bq.quiver)
    reflections = []
    for v in sorted(bq.vertices):
        if _gen_apr_precondition(bq, v) is None:
            reflections.append(_gen_apr_reflect(bq, v))
        if not idx.out_of[v]:
            reflections.append(_hw_reflect(bq, v))
    return reflections, opposite(bq)


def applicable(bq: BoundQuiver, move: Move) -> bool:
    return _not_applicable_reason(bq, move) is None


def applicable_moves(bq: BoundQuiver) -> list[Move]:
    """Every applicable (kind, vertex) pair, plus 'opposite', in fixed order."""
    out = []
    for v in sorted(bq.vertices):
        for kind in _KIND_ORDER:
            mv = Move(kind, v)
            if applicable(bq, mv):
                out.append(mv)
    out.append(Move(MoveKind.OPPOSITE))
    return out


def apply_move(bq: BoundQuiver, move: Move, _input_key: str | None = None):
    """Apply one move; returns the new quiver and the audit receipt."""
    reason = _not_applicable_reason(bq, move)
    if reason is not None:
        raise MoveNotApplicable("%s: %s" % (move, reason))
    kind, x = move.kind, move.vertex
    if kind is MoveKind.OPPOSITE:
        out = opposite(bq)
    elif kind is MoveKind.APR_REFLECT or kind is MoveKind.GEN_APR_REFLECT:
        # a sink meets the generalized preconditions vacuously
        out = _gen_apr_reflect(bq, x)
    elif kind is MoveKind.HW_REFLECT:
        out = _hw_reflect(bq, x)
    elif kind is MoveKind.APR_COREFLECT or kind is MoveKind.GEN_APR_COREFLECT:
        out = opposite(_gen_apr_reflect(opposite(bq), x))
    elif kind is MoveKind.HW_COREFLECT:
        out = opposite(_hw_reflect(opposite(bq), x))
    else:
        raise AssertionError(kind)
    bad = validate(out)
    if bad:
        raise AssertionError("%s produced an invalid quiver: %s" % (move, bad))
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
