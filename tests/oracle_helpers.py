"""Independent brute-force oracles the tests check the package against."""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from gentleq.core import (
    BoundQuiver,
    QuiverError,
    Violation,
    _canonical_code,
    _form,
    _Ints,
    _serial_key,
    make_bound_quiver,
    parse,
    require_valid,
    serialize,
    validate,
)
from gentleq.families import (
    _BUILDERS,
    FAMILY_TAGS,
    _PARAM_COUNT,
    ConstraintViolation,
    FamilySpec,
    _Builder,
    _failed_inequality,
    _family_ints,
    build_family,
)
from gentleq.invariant import (
    PairingIncomplete,
    _det_int,
    _euler,
    cartan_matrix,
)
from gentleq.moves import (
    Move,
    MoveKind,
    PatternMismatch,
    ShiftDirection,
    applicable_moves,
    shift_relation_block_direct,
    shift_relation_direct,
)
from gentleq.orbit import (
    DEFAULT_MAX_STATES,
    NoCanonicalHit,
    OrbitResult,
    SizeClass,
    StateLimitExceeded,
    _classes_of_shapes,
    _degree_sequences,
    _shapes,
    enumerate_classes,
    theorem_key_table,
)


def canonical_form(bq: BoundQuiver) -> BoundQuiver:
    """Relabel onto v0..v{n-1} / a0..a{k-1}, minimal over all relabelings:
    the package's canonical code, named."""
    return _form(_canonical_code(bq))


def canonical_key(bq: BoundQuiver) -> str:
    """Serialization of the canonical form; equal keys iff isomorphic."""
    return serialize(canonical_form(bq))


def opposite(bq: BoundQuiver) -> BoundQuiver:
    """Reverse every arrow and swap every relation pair."""
    return BoundQuiver(
        bq.vertices,
        tuple((a, t, s) for a, s, t in bq.arrows),
        frozenset((s, f) for f, s in bq.relations),
        bq.name,
    )


def record_fields(q) -> tuple:
    """``(n, ends, rels)`` of a record on indices, as a tuple and a frozenset."""
    return q.n, tuple(q.ends), frozenset(q.rels)


def oracle_index(bq: BoundQuiver) -> tuple:
    """``record_fields(bq._ints)`` rebuilt from the names of a quiver already
    made: the vertex positions of each arrow's ends and the arrow positions
    of each relation."""
    pos = {v: i for i, v in enumerate(bq.vertices)}
    aidx = {a: k for k, (a, _s, _t) in enumerate(bq.arrows)}
    return (len(pos), tuple([(pos[s], pos[t]) for _a, s, t in bq.arrows]),
            frozenset([(aidx[f], aidx[s]) for f, s in bq.relations]))


def oracle_adjacency(bq: BoundQuiver) -> tuple:
    """The ``(outs, ins)`` of ``bq._ints`` rebuilt from the names: for each
    vertex in listed order, the positions of the arrows that leave it and of
    those that enter it, in listed order."""
    return ([[k for k, (_a, s, _t) in enumerate(bq.arrows) if s == v] for v in bq.vertices],
            [[k for k, (_a, _s, t) in enumerate(bq.arrows) if t == v] for v in bq.vertices])


def oracle_free_preds(bq: BoundQuiver) -> list[list[int]]:
    """For each arrow in listed order, the positions of the arrows that
    compose before it outside the relations."""
    return [[k for k, (b, _s, t) in enumerate(bq.arrows) if t == s and (a, b) not in bq.relations]
            for a, s, _t in bq.arrows]


class _Index:
    """Name-keyed lookup tables of a quiver: the ends of each arrow and the
    arrows out of and into each vertex, in listed order."""

    def __init__(self, q: BoundQuiver):
        self.src_of = {a: s for a, s, t in q.arrows}
        self.tgt_of = {a: t for a, s, t in q.arrows}
        self.out_of = {v: [] for v in q.vertices}
        self.into = {v: [] for v in q.vertices}
        for a, s, t in q.arrows:
            self.out_of[s].append(a)
            self.into[t].append(a)


def oracle_validate(bq: BoundQuiver, require_connected: bool = False) -> tuple[Violation, ...]:
    """``validate`` on names, as it stood before the integer one: G1 by
    vertex, G3 and G4 by arrow id, FIN by a colored depth-first search over
    the arrow graph, CONN by ``oracle_connected``."""
    idx = _Index(bq)
    out: list[Violation] = []
    for v in bq.vertices:
        if len(idx.out_of[v]) > 2:
            out.append(Violation("G1", "vertex %s has %d outgoing arrows" % (v, len(idx.out_of[v]))))
        if len(idx.into[v]) > 2:
            out.append(Violation("G1", "vertex %s has %d incoming arrows" % (v, len(idx.into[v]))))
    for a in sorted(idx.src_of):
        s, t = idx.src_of[a], idx.tgt_of[a]
        before_free = [b for b in idx.into[s] if (a, b) not in bq.relations]
        after_free = [b for b in idx.out_of[t] if (b, a) not in bq.relations]
        before_rel = [b for b in idx.into[s] if (a, b) in bq.relations]
        after_rel = [b for b in idx.out_of[t] if (b, a) in bq.relations]
        if len(before_free) > 1:
            out.append(Violation("G3", "arrow %s has free predecessors %s" % (a, ",".join(sorted(before_free)))))
        if len(after_free) > 1:
            out.append(Violation("G3", "arrow %s has free successors %s" % (a, ",".join(sorted(after_free)))))
        if len(before_rel) > 1:
            out.append(Violation("G4", "arrow %s has relation predecessors %s" % (a, ",".join(sorted(before_rel)))))
        if len(after_rel) > 1:
            out.append(Violation("G4", "arrow %s has relation successors %s" % (a, ",".join(sorted(after_rel)))))
    succ = {a: [b for b in idx.out_of[idx.tgt_of[a]] if (b, a) not in bq.relations]
            for a in idx.src_of}
    cycle = _oracle_find_cycle(succ)
    if cycle is not None:
        out.append(Violation("FIN", "relation-avoiding cycle %s" % ",".join(cycle)))
    if require_connected and not oracle_connected(bq):
        out.append(Violation("CONN", "underlying graph is disconnected"))
    return tuple(out)


def _oracle_find_cycle(succ: dict[str, list[str]]) -> list[str] | None:
    """Return some directed cycle in the graph on arrows, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {a: WHITE for a in succ}
    for start in sorted(succ):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(succ[start]))]
        path = [start]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def oracle_orbit(bq: BoundQuiver, max_states: int = DEFAULT_MAX_STATES,
                 hit_table: dict | None = None) -> OrbitResult:
    """``orbit`` on named quivers, as it stood before the integer one: every
    state is parsed back from its key, and every edge applies a move listed
    by ``applicable_moves`` through the named rewrites of
    ``oracle_apply_move``."""
    require_valid(bq)
    start = canonical_form(bq)
    k0 = serialize(start)
    states = {k0: start}
    edges = []
    frontier = [k0]
    complete = True
    while frontier:
        frontier.sort()
        nxt = []
        for key in frontier:
            st = states[key]
            for mv in applicable_moves(st):
                k2 = canonical_key(oracle_apply_move(st, mv))
                edges.append((key, mv, k2))
                if k2 not in states:
                    if len(states) >= max_states:
                        complete = False
                        continue
                    states[k2] = parse(k2)
                    nxt.append(k2)
        frontier = nxt
    hits = []
    if hit_table:
        codes = {k: _canonical_code(st) for k, st in states.items()}
        hits = sorted(
            ((k, hit_table[c]) for k, c in codes.items() if c in hit_table),
            key=lambda kv: (kv[1], kv[0]),
        )
    return OrbitResult(frozenset(states), states, tuple(edges), tuple(hits), complete)


def arrow_maps(bq: BoundQuiver):
    src = {a: s for a, s, t in bq.arrows}
    tgt = {a: t for a, s, t in bq.arrows}
    return src, tgt


def all_nonzero_paths(bq: BoundQuiver, max_len: int | None = None):
    """Every relation-avoiding arrow sequence, in traversal order."""
    src, tgt = arrow_maps(bq)
    if max_len is None:
        max_len = len(bq.arrows) * (len(bq.relations) + 1) + 1
    out = []
    stack = [(a,) for a, _s, _t in bq.arrows]
    while stack:
        path = stack.pop()
        out.append(path)
        if len(path) >= max_len:
            continue
        last = path[-1]
        for b, s, _t in bq.arrows:
            if s == tgt[last] and (b, last) not in bq.relations:
                stack.append(path + (b,))
    return out


def oracle_maximal_paths(bq: BoundQuiver):
    """Maximal relation-avoiding paths by filtering the full path list."""
    src, tgt = arrow_maps(bq)
    paths = set(all_nonzero_paths(bq))

    def extendable(p):
        for b, s, _t in bq.arrows:
            if s == tgt[p[-1]] and (b, p[-1]) not in bq.relations:
                return True
        for b, _s, t in bq.arrows:
            if t == src[p[0]] and (p[0], b) not in bq.relations:
                return True
        return False

    return {p for p in paths if not extendable(p)}


def oracle_maximal_antipaths(bq: BoundQuiver, cap: int | None = None):
    """Maximal finite relation chains, traversal order; cycles excluded."""
    src, tgt = arrow_maps(bq)
    if cap is None:
        cap = len(bq.arrows) + 1
    complete = set()
    frontier = {(a,) for a, _s, _t in bq.arrows}
    winding = set()
    while frontier:
        nxt = set()
        for path in frontier:
            grew = False
            for b, s, _t in bq.arrows:
                if (b, path[-1]) in bq.relations:
                    if len(path) + 1 > cap:
                        winding.add(path)
                    else:
                        nxt.add(path + (b,))
                    grew = True
            if not grew:
                complete.add(path)
        frontier = nxt

    def left_extendable(p):
        return any((p[0], b) in bq.relations for b, _s, _t in bq.arrows)

    maximal = {p for p in complete if not left_extendable(p)}
    # drop anything living on a relation cycle (it would wind forever)
    cyclic_arrows = set()
    for p in winding:
        cyclic_arrows.update(p)
    return {p for p in maximal if not cyclic_arrows & set(p)}


def oracle_fin_fails(bq: BoundQuiver) -> bool:
    """Arbitrarily long nonzero paths exist iff one of the stated cutoff
    length exists."""
    cutoff = len(bq.arrows) * (len(bq.relations) + 1)
    if cutoff == 0:
        return False
    return any(len(p) >= cutoff for p in all_nonzero_paths(bq, cutoff))


def oracle_cartan(bq: BoundQuiver):
    order = tuple(sorted(bq.vertices))
    pos = {v: i for i, v in enumerate(order)}
    src, tgt = arrow_maps(bq)
    n = len(order)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for p in all_nonzero_paths(bq):
        rows[pos[src[p[0]]]][pos[tgt[p[-1]]]] += 1
    return order, tuple(tuple(r) for r in rows)


def cycle_rank(bq: BoundQuiver) -> int:
    """Number of arrows minus vertices plus one, for a connected quiver."""
    if not oracle_connected(bq):
        raise QuiverError("cycle rank is only defined for connected quivers")
    return len(bq.arrows) - len(bq.vertices) + 1


def oracle_connected(bq: BoundQuiver) -> bool:
    verts = set(bq.vertices)
    if len(verts) <= 1:
        return True
    adj = {v: set() for v in verts}
    for _a, s, t in bq.arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen = set()
    todo = [next(iter(sorted(verts)))]
    while todo:
        v = todo.pop()
        if v in seen:
            continue
        seen.add(v)
        todo.extend(adj[v] - seen)
    return seen == verts


def naive_enumerate(n: int, a: int, two_cycle: bool):
    """Generate-and-filter over all labeled digraphs and relation subsets."""
    cells = [(s, t) for s in range(n) for t in range(n)]
    reps: dict[str, BoundQuiver] = {}
    for combo in itertools.combinations_with_replacement(range(len(cells)), a):
        arcs = [cells[i] for i in combo]
        if any(arcs.count(c) > 2 for c in set(arcs)):
            continue
        vertices = ["v%d" % i for i in range(n)]
        arrows = [("a%d" % k, "v%d" % s, "v%d" % t) for k, (s, t) in enumerate(arcs)]
        bq0 = make_bound_quiver(vertices, arrows, [])
        if not oracle_connected(bq0):
            continue
        composable = [
            (f, s2)
            for f, sf, _tf in arrows
            for s2, _ss, ts in arrows
            if sf == ts
        ]
        for mask in range(1 << len(composable)):
            rels = [composable[k] for k in range(len(composable)) if mask >> k & 1]
            bq = BoundQuiver(bq0.vertices, bq0.arrows, frozenset(rels))
            if validate(bq, require_connected=True):
                continue
            if two_cycle and len(bq.arrows) != len(bq.vertices) + 1:
                continue
            key = canonical_key(bq)
            reps.setdefault(key, bq)
    return reps


@functools.lru_cache(maxsize=None)
def oracle_shapes(n: int, a: int) -> dict[str, BoundQuiver]:
    """canonical key -> canonical form of every connected relation-free quiver
    of size (n, a), found by canonicalizing every labeled arc multiset with
    at most two arrows into and out of each vertex."""
    cells = [(s, t) for s in range(n) for t in range(n)]
    shapes: dict[str, BoundQuiver] = {}
    for arcs in itertools.combinations_with_replacement(cells, a):
        outs = [0] * n
        ins = [0] * n
        for s, t in arcs:
            outs[s] += 1
            ins[t] += 1
        if max(outs) > 2 or max(ins) > 2:
            continue
        vertices = ["v%d" % i for i in range(n)]
        arrows = [("a%d" % k, "v%d" % s, "v%d" % t) for k, (s, t) in enumerate(arcs)]
        bq = make_bound_quiver(vertices, arrows, [])
        if not oracle_connected(bq):
            continue
        form = canonical_form(bq)
        shapes.setdefault(serialize(form), form)
    return shapes


def shapes_of_size(n: int, a: int) -> list[tuple]:
    """The package's shape stage over every degree sequence of size (n, a)."""
    return [code for seq in _degree_sequences(n, a) for code in _shapes(seq)]


def _arc_multisets(n: int, a: int):
    """Degree-bounded arc multisets on n labeled vertices, degree sorted: the
    cell-by-cell search that the degree-sequence fill replaced.

    Arcs ``(source, target)`` are chosen source row by source row, with at
    most 2 out and 2 in per vertex.  Only multisets whose per-vertex
    ``(out-degree, in-degree, loop count)`` is non-decreasing in the vertex
    index are produced; a row whose out-degree completes below the previous
    row's, or leaves too few arcs for the rows after it to match it, is
    pruned at once.  No shape class is lost: listing any quiver's vertices
    in that order gives a multiset produced here.
    """
    cells = [(s, t) for s in range(n) for t in range(n)]
    out_deg = [0] * n
    in_deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def rec(idx: int, remaining: int):
        if idx and idx % n == 0:
            done = idx // n - 1
            if done and out_deg[done] < out_deg[done - 1]:
                return
            if remaining < out_deg[done] * (n - 1 - done):
                return
        if remaining == 0:
            loops = [0] * n
            for s, t in chosen:
                loops[s] += s == t
            degrees = list(zip(out_deg, in_deg, loops))
            if degrees == sorted(degrees):
                yield tuple(chosen)
            return
        if idx == len(cells):
            return
        s, t = cells[idx]
        if remaining > 2 - out_deg[s] + 2 * (n - 1 - s):
            return
        top = min(2, 2 - out_deg[s], 2 - in_deg[t], remaining)
        for count in range(top, -1, -1):
            out_deg[s] += count
            in_deg[t] += count
            chosen.extend([(s, t)] * count)
            yield from rec(idx + 1, remaining - count)
            for _ in range(count):
                chosen.pop()
            out_deg[s] -= count
            in_deg[t] -= count

    yield from rec(0, a)


def oracle_enumerate(n: int, a: int, two_cycle: bool) -> tuple[BoundQuiver, ...]:
    """``enumerate_classes`` with the shape stage replaced by ``oracle_shapes``."""
    if two_cycle and a != n + 1:
        return ()
    shapes = [_canonical_code(s) for s in oracle_shapes(n, a).values()]
    return tuple(_form(code) for code in sorted(_classes_of_shapes(shapes), key=_serial_key))


def oracle_junction_choices(bq: BoundQuiver):
    """Per vertex with arrows in and out, every relation set among its
    through-pairs that leaves each arrow at most one free and at most one
    related continuation there, found by trying all subsets."""
    idx = _Index(bq)
    all_choices = []
    for v in bq.vertices:
        outs, ins = idx.out_of[v], idx.into[v]
        pairs = [(o, i) for o in outs for i in ins]
        if not pairs:
            continue
        good = []
        for mask in range(1 << len(pairs)):
            rset = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
            ok = True
            for o in outs:
                hit = sum(1 for i in ins if (o, i) in rset)
                if hit > 1 or len(ins) - hit > 1:
                    ok = False
                    break
            if ok:
                for i in ins:
                    hit = sum(1 for o in outs if (o, i) in rset)
                    if hit > 1 or len(outs) - hit > 1:
                        ok = False
                        break
            if ok:
                good.append(frozenset(rset))
        all_choices.append(good)
    return all_choices


def _oracle_refined_colors(bq: BoundQuiver):
    """Isomorphism-invariant vertex colors (degree data refined by neighbors)."""
    verts = bq.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    out_n = [[] for _ in range(n)]
    in_n = [[] for _ in range(n)]
    loops = [0] * n
    for a, s, t in bq.arrows:
        out_n[pos[s]].append(pos[t])
        in_n[pos[t]].append(pos[s])
        if s == t:
            loops[pos[s]] += 1
    junction = [0] * n
    src = {a: s for a, s, t in bq.arrows}
    for first, _second in bq.relations:
        junction[pos[src[first]]] += 1
    colors = [
        (len(out_n[i]), len(in_n[i]), loops[i], junction[i]) for i in range(n)
    ]
    while True:
        sigs = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in out_n[i])),
                tuple(sorted(colors[j] for j in in_n[i])),
            )
            for i in range(n)
        ]
        ranking = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        new = [(ranking[sigs[i]],) for i in range(n)]
        if len(set(new)) == len(set(colors)):
            return {verts[i]: colors[i] for i in range(n)}
        colors = new


def _oracle_orderings(bq: BoundQuiver):
    """All vertex orderings compatible with the color refinement."""
    colors = _oracle_refined_colors(bq)
    classes: dict = {}
    for v in sorted(bq.vertices):
        classes.setdefault(colors[v], []).append(v)
    groups = [classes[c] for c in sorted(classes)]
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        yield tuple(itertools.chain.from_iterable(combo))


def oracle_canonical_form(bq: BoundQuiver) -> BoundQuiver:
    """The string-keyed brute-force labeling the integer kernel replaced.

    Relabels onto v0..v{n-1} / a0..a{k-1}, minimal over all relabelings.

    Two bound quivers are isomorphic exactly when their canonical forms are
    equal.  Minimization runs over the color-respecting vertex orderings and,
    within each parallel-arrow bundle, over the arrow orderings.
    """
    arrows = bq.arrows
    best = None
    best_assignment = None
    for order in _oracle_orderings(bq):
        pos = {v: i for i, v in enumerate(order)}
        endpoints = sorted((pos[s], pos[t], a) for a, s, t in arrows)
        base = tuple((s, t) for s, t, _ in endpoints)
        if best is not None and base > best[0]:
            continue
        if best is not None and base < best[0]:
            best = None
        # bundles of parallel arrows are interchangeable a priori; relations
        # decide their order
        bundles: list[list[str]] = []
        for _, group in itertools.groupby(endpoints, key=lambda e: (e[0], e[1])):
            bundles.append([a for _, _, a in group])
        for perm_combo in itertools.product(*[itertools.permutations(b) for b in bundles]):
            flat = list(itertools.chain.from_iterable(perm_combo))
            apos = {a: i for i, a in enumerate(flat)}
            rels = tuple(sorted((apos[f], apos[s]) for f, s in bq.relations))
            cand = (base, rels)
            if best is None or cand < best:
                best = cand
                best_assignment = (order, tuple(flat))
    if best is None:  # no vertices
        return BoundQuiver((), (), frozenset(), "c")
    order, flat = best_assignment
    pos = {v: i for i, v in enumerate(order)}
    apos = {a: i for i, a in enumerate(flat)}
    src = {a: s for a, s, t in arrows}
    tgt = {a: t for a, s, t in arrows}
    new_arrows = tuple(
        ("a%d" % i, "v%d" % pos[src[a]], "v%d" % pos[tgt[a]]) for i, a in enumerate(flat)
    )
    new_verts = tuple("v%d" % i for i in range(len(order)))
    new_rels = frozenset(("a%d" % apos[f], "a%d" % apos[s]) for f, s in bq.relations)
    return BoundQuiver(new_verts, new_arrows, new_rels, "c")


@functools.lru_cache(maxsize=None)
def _oracle_family_key(sp: FamilySpec) -> str:
    return canonical_key(build_family(sp))


def _tuples_up_to(length: int, total: int):
    """All tuples of ``length`` nonnegative integers with sum at most ``total``."""
    if length == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _tuples_up_to(length - 1, total - first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def _oracle_spec_box(max_vertices: int) -> dict:
    """``(tag, vertices, relations)`` -> the sorted valid specs whose built
    quiver has that many vertices and relations, for every size up to
    ``max_vertices``.

    Each parameter is the length of a path or a count of relations along a
    path; the paths share no arrow and the counted relations are distinct.
    A quiver with n vertices has n + 1 arrows and at most n + 1 relations, so
    the parameters sum to at most 2n + 2.  The box is every parameter tuple
    with that sum at ``max_vertices``, kept where ``check_spec`` accepts it
    and the built quiver has at most ``max_vertices`` vertices.
    """
    out: dict = {}
    for tag in FAMILY_TAGS:
        for params in _tuples_up_to(_PARAM_COUNT[tag], 2 * max_vertices + 2):
            sp = FamilySpec(tag, params)
            try:
                q = _family_ints(sp)
            except ConstraintViolation:
                continue
            if q.n <= max_vertices:
                out.setdefault((tag, q.n, len(q.rels)), []).append(sp)
    return {key: sorted(specs) for key, specs in out.items()}


def oracle_specs(tag: str, n: int, nrels: int) -> list[FamilySpec]:
    """``families._specs`` by a filtered parameter box (sizes up to 6)."""
    assert n <= 6
    return _oracle_spec_box(6).get((tag, n, nrels), [])


def oracle_closed_form_specs(bound: int) -> list[FamilySpec]:
    """``orbit._closed_form_specs`` by boxes filtered with the inequalities of
    ``check_spec``."""
    out = [FamilySpec("L0", (pp, r)) for pp in range(1, bound + 1)
           for r in range(0, min(pp, bound - pp + 1))]
    out += [FamilySpec("L0p", (pp, 0)) for pp in range(1, bound + 1)]
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound - p1 + 1):
            for p3 in range(0, bound - p1 - p2 + 1):
                for p4 in range(0, bound - p1 - p2 - p3 + 1):
                    for r1 in range(0, min(p1, bound - p1 - p2 - p3 - p4 + 1)):
                        out.append(FamilySpec("L1", (p1, p2, p3, p4, r1)))
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound - p1 + 1):
            for p3 in range(0, bound - p1 - p2 + 1):
                for r1 in range(0, min(p1, bound - p1 - p2 - p3 + 1)):
                    for r2 in range(0, min(p2, bound - p1 - p2 - p3 - r1 + 1)):
                        out.append(FamilySpec("L2", (p1, p2, p3, r1, r2)))
    return [sp for sp in out if _failed_inequality(sp.tag, sp.params) is None]


def _oracle_build_l2(p1, p2, p3, r1, r2):
    b = _Builder()
    va = b.vertex("va")
    vb = va if p3 == 0 else b.vertex("vb")
    a = b.path("a", p1, va, va)
    beta = b.path("b", p2, vb, vb)
    b.path("g", p3, vb, va)
    b.rel(a[-1], a[0])
    b.chain(a[p1 - r1 - 1:])
    b.rel(beta[-1], beta[0])
    b.chain(beta[p2 - r2 - 1:])
    return b


def _oracle_build_g0(pp, q, r):
    b = _Builder()
    vx, vy, vz = b.vertex("vx"), b.vertex("vy"), b.vertex("vz")
    a = [*b.path("a", pp, vy, vx), b.arrow("a", vz, vy, pp + 1)]
    beta = [*b.path("b", q, vy, vx), b.arrow("b", vz, vy, q + 1)]
    b.chain(a[pp - r - 1:])
    b.chain(beta[q - 1:])
    return b


def _oracle_build_g1(pp, q, r, rp):
    b = _Builder()
    vx, vy, vz = b.vertex("vx"), b.vertex("vy"), b.vertex("vz")
    a = [*b.path("a", pp, vy, vx), *b.path("a", rp + 1, vz, vy, base=pp + 1)]
    beta = [*b.path("b", q, vy, vx), b.arrow("b", vz, vy, q + 1)]
    b.chain(a[pp - r - 1:])
    b.chain(beta[q - 1:])
    return b


def _oracle_build_g2(pp, q, r, rp):
    b = _Builder()
    vx, vy, vz = b.vertex("vx"), b.vertex("vy"), b.vertex("vz")
    a = [*b.path("a", pp, vy, vx), b.arrow("a", vz, vy, pp + 1)]
    beta = [*b.path("b", q, vy, vx), *b.path("b", rp + 1, vz, vy, base=q + 1)]
    b.chain(a[pp - r - 1:])
    b.chain(beta[q - 1:])
    return b


# a recipe per family: a separate one for L2 and each double-arrow family,
# the package's own for the other five
ORACLE_RECIPES = {**_BUILDERS, "L2": _oracle_build_l2, "G0": _oracle_build_g0,
                  "G1": _oracle_build_g1, "G2": _oracle_build_g2}


def oracle_theorem_list(max_vertices: int) -> list[FamilySpec]:
    """``families.theorem_list`` by the classification's loops: every size,
    every split of it into cycle and connector lengths, kept by the
    inequalities of ``check_spec`` and the tie-breaks."""
    out = [FamilySpec("L0", (pp, r)) for pp in range(1, max_vertices) for r in range(pp)]
    out += [FamilySpec("L0p", (pp, 0)) for pp in range(1, max_vertices - 1)]
    for n in range(2, max_vertices + 1):
        for p1, p2, p3, p4 in itertools.product(range(n + 2), repeat=4):
            if p1 + p2 + p3 + p4 != n + 1:
                continue
            for r1 in range(p1):
                params = (p1, p2, p3, p4, r1)
                if (_failed_inequality("L1", params) is None
                        and (p3 > p4 or (p3 == p4 and p2 > r1))):
                    out.append(FamilySpec("L1", params))
        for p1, p2, p3 in itertools.product(range(n + 2), repeat=3):
            if p1 + p2 + p3 != n + 1 or p1 < p2:
                continue
            for r1 in range(p1):
                for r2 in range(p2):
                    params = (p1, p2, p3, r1, r2)
                    if _failed_inequality("L2", params) is None and (p1 > p2 or r1 >= r2):
                        out.append(FamilySpec("L2", params))
    return sorted(set(out))


def oracle_recognize(bq: BoundQuiver) -> FamilySpec | None:
    """The least family spec isomorphic to ``bq``: the key of every spec
    of its size is compared on each call (memoized per spec, to keep the
    tests fast)."""
    key = canonical_key(bq)
    n, r = len(bq.vertices), len(bq.relations)
    if len(bq.arrows) != n + 1:
        return None
    matches = [sp for tag in FAMILY_TAGS for sp in oracle_specs(tag, n, r)
               if _oracle_family_key(sp) == key]
    return min(matches) if matches else None


def random_relabel(bq: BoundQuiver, rng: random.Random) -> BoundQuiver:
    """A structurally identical quiver under a random bijective renaming."""
    vnames = ["r%d" % i for i in range(len(bq.vertices))]
    rng.shuffle(vnames)
    vmap = dict(zip(bq.vertices, vnames))
    anames = ["s%d" % i for i in range(len(bq.arrows))]
    rng.shuffle(anames)
    amap = {a: anames[i] for i, (a, _s, _t) in enumerate(bq.arrows)}
    arrows = [(amap[a], vmap[s], vmap[t]) for a, s, t in bq.arrows]
    rng.shuffle(arrows)
    verts = list(vmap.values())
    rng.shuffle(verts)
    rels = [(amap[f], amap[s]) for f, s in bq.relations]
    return make_bound_quiver(verts, arrows, rels)


# ---------------------------------------------------------------------------
# named threads: the integer sign walk of Avella-Alaminos and Geiss, the
# reference for the blossom walk of ``gentleq.invariant._phi``, and the same
# threads with the vertex and arrow names attached, for the oracles on names


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


def thread_namer(bq: BoundQuiver):
    """The ``Thread`` of ``bq`` that an integer thread of ``_threads`` stands for."""
    vs, ids = bq.vertices, [a for a, _s, _t in bq.arrows]

    def thread(t) -> Thread:
        return arrow_thread([ids[a] for a in t[0]]) if t[0] else trivial_thread(vs[t[1]])

    return thread


def named_cycles(bq: BoundQuiver, cycles) -> list[ArrowCycle]:
    """The relation cycles named, each from its least arrow id, in that order."""
    ids = [a for a, _s, _t in bq.arrows]
    named = []
    for c in cycles:
        arrows = [ids[a] for a in c]
        k = arrows.index(min(arrows))
        named.append(ArrowCycle(tuple(arrows[k:] + arrows[:k])))
    return sorted(named, key=lambda c: c.arrows)


def named_threads(bq: BoundQuiver):
    """``_threads`` of a valid quiver, named: the permitted threads, the
    forbidden threads and the relation cycles, each as a frozenset."""
    require_valid(bq)
    permitted, forbidden, cycles = _threads(bq._ints)
    thread = thread_namer(bq)
    return (frozenset(map(thread, permitted)), frozenset(map(thread, forbidden)),
            frozenset(named_cycles(bq, cycles)))


def named_sequences(bq: BoundQuiver) -> tuple:
    """``_walk`` of a valid quiver, named: the thread alternations, each
    rotated to start at its least permitted thread and in that order, then
    the relation cycles."""
    require_valid(bq)
    alternations, cycles = _walk(bq._ints)
    thread = thread_namer(bq)
    pair_cycles = []
    for alternation in alternations:
        pairs = [(thread(p), thread(f)) for p, f in alternation]
        k = min(range(len(pairs)), key=lambda i: _thread_key(pairs[i][0]))
        pair_cycles.append(PairCycle(tuple(pairs[k:] + pairs[:k])))
    pair_cycles.sort(key=lambda pc: _thread_key(pc.pairs[0][0]))
    return tuple(pair_cycles) + tuple(named_cycles(bq, cycles))


def oracle_pairings(bq: BoundQuiver) -> list[PairCycle]:
    """The characteristic sequences of permitted and forbidden threads, by
    backtracking over every partition of the threads into cyclic
    alternations.

    A valid solution uses every permitted thread exactly once in the sigma
    role and every forbidden thread exactly once in the tau role, satisfying
    the five local matching conditions at every index.  Each cycle is rotated
    to start at its least permitted thread, so distinct solutions differ in
    substance, not in presentation.  Raises ``PairingIncomplete`` when there
    is no solution and ``AssertionError`` when there is more than one.
    """
    permitted, forbidden, _cycles = named_threads(bq)
    permitted = sorted(permitted, key=_thread_key)
    forbidden = sorted(forbidden, key=_thread_key)
    idx = _Index(bq)
    src, tgt, start_arrow, end_arrow = {}, {}, {}, {}
    for t in permitted + forbidden:
        if t.trivial:
            src[t] = tgt[t] = t.vertex
            start_arrow[t] = end_arrow[t] = None
        else:
            src[t] = idx.src_of[t.arrows[0]]
            tgt[t] = idx.tgt_of[t.arrows[-1]]
            start_arrow[t] = t.arrows[0]
            end_arrow[t] = t.arrows[-1]
    has_arrows = bool(bq.arrows)
    solutions: list[tuple] = []

    def tau_candidates(sigma, prev_tau, rem_f):
        for tau in sorted(rem_f, key=_thread_key):
            if tgt[tau] != tgt[sigma]:
                continue
            # condition (4)
            if not sigma.trivial and not tau.trivial and end_arrow[tau] == end_arrow[sigma]:
                continue
            # condition (3) for the previous index
            if prev_tau is not None and prev_tau.trivial and sigma.trivial \
                    and tau.trivial and has_arrows:
                continue
            yield tau

    def sigma_ok(prev_sigma, tau, sigma):
        if src[sigma] != src[tau]:
            return False
        # condition (5)
        if not tau.trivial and not sigma.trivial and start_arrow[sigma] == start_arrow[tau]:
            return False
        # condition (2)
        if prev_sigma.trivial and tau.trivial and sigma.trivial and has_arrows:
            return False
        return True

    def close_ok(cycle):
        sigma1, tau1 = cycle[0]
        sigma_n, tau_n = cycle[-1]
        if not sigma_ok(sigma_n, tau_n, sigma1):
            return False
        # condition (3) at the wrap
        return not (tau_n.trivial and sigma1.trivial and tau1.trivial and has_arrows)

    def extend(rem_p, rem_f, done, cycle, pending_sigma):
        if pending_sigma is not None:
            prev_tau = cycle[-1][1] if cycle else None
            for tau in tau_candidates(pending_sigma, prev_tau, rem_f):
                extend(rem_p, rem_f - {tau}, done, cycle + ((pending_sigma, tau),), None)
            return
        if cycle:
            if close_ok(cycle):
                extend(rem_p, rem_f, done + (cycle,), (), None)
            sigma_prev, tau_prev = cycle[-1]
            for sigma in sorted(rem_p, key=_thread_key):
                if sigma_ok(sigma_prev, tau_prev, sigma):
                    extend(rem_p - {sigma}, rem_f, done, cycle, sigma)
            return
        if not rem_p:
            if not rem_f:
                solutions.append(done)
            return
        # start the next cycle at the least remaining permitted thread
        sigma = min(rem_p, key=_thread_key)
        extend(rem_p - {sigma}, rem_f, done, (), sigma)

    extend(frozenset(permitted), frozenset(forbidden), (), (), None)
    if not solutions:
        raise PairingIncomplete("no complete pairing")
    normalized = {tuple(sorted(sol, key=lambda c: _thread_key(c[0][0]))) for sol in solutions}
    assert len(normalized) == 1, "%d distinct complete pairings" % len(normalized)
    return [PairCycle(c) for c in normalized.pop()]


def oracle_threads(bq: BoundQuiver):
    """Permitted threads, forbidden threads and relation cycles, in one pass,
    on names: the walk's thread step as it stood before the integer one.

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
    idx = _Index(bq)
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


def oracle_characteristic_sequences(bq: BoundQuiver) -> tuple:
    """``named_sequences`` of a valid quiver by the forced walk on names, as
    it stood before the integer walk."""
    permitted, forbidden, cycles = oracle_threads(bq)
    idx = _Index(bq)
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


@functools.lru_cache(maxsize=None)
def oracle_orbit_partition(n: int, max_states: int = DEFAULT_MAX_STATES):
    """``_orbit_partition`` by the named BFS ``oracle_orbit``, under all
    seven moves.

    Returns (code -> orbit index, orbit index -> (code of the first-listed
    member, set of member codes), orbit index -> least canonical hit or None,
    complete flag).
    """
    classes = enumerate_classes(SizeClass(n, n + 1), two_cycle=True)
    class_keys = {serialize(c) for c in classes}
    assignment: dict[tuple, int] = {}
    members: dict[int, tuple] = {}
    family: dict = {}
    complete = True
    for rep in classes:
        if _canonical_code(rep) in assignment:
            continue
        res = oracle_orbit_of_key(serialize(rep), max_states)
        complete = complete and res.complete
        oid = len(members)
        assert res.component <= class_keys, "orbit escaped the enumerated classes"
        codes = frozenset(_canonical_code(st) for st in res.representatives.values())
        for c in codes:
            assignment[c] = oid
        members[oid] = (_canonical_code(rep), codes)
        family[oid] = min((sp for _k, sp in res.canonical_hits), default=None)
    return assignment, members, family, complete


def oracle_normalize(bq: BoundQuiver, max_states: int = DEFAULT_MAX_STATES):
    """``normalize`` by the named BFS ``oracle_orbit``, under all seven moves."""
    require_valid(bq, require_connected=True)
    if cycle_rank(bq) != 2:
        raise QuiverError("normalization applies to two-cycle quivers")
    # opposite is a move and an involution, so a quiver and its opposite
    # reach each other and have the same orbit: one BFS serves both
    key = min(canonical_key(bq), canonical_key(opposite(bq)))
    return _oracle_normalize_key(key, max_states)


@functools.lru_cache(maxsize=None)
def oracle_orbit_of_key(key: str, max_states: int = DEFAULT_MAX_STATES) -> OrbitResult:
    """``oracle_orbit`` of the quiver with canonical key ``key``, with the
    canonical-family hits of its size; memoized, so the oracle partition,
    ``oracle_normalize`` and the tests share each BFS."""
    bq = parse(key)
    return oracle_orbit(bq, max_states, theorem_key_table(len(bq.vertices)))


@functools.lru_cache(maxsize=None)
def _oracle_normalize_key(key: str, max_states: int):
    res = oracle_orbit_of_key(key, max_states)
    if not res.complete:
        raise StateLimitExceeded("orbit exceeded %d states" % max_states)
    if not res.canonical_hits:
        raise NoCanonicalHit("orbit of size %d has no canonical hit" % len(res.component))
    return min(sp for _key, sp in res.canonical_hits)


# ---------------------------------------------------------------------------
# the move rewrites on names, as they stood before the integer kernel


def _oracle_rebuild(bq: BoundQuiver, new_src, new_tgt, new_relations) -> BoundQuiver:
    arrows = tuple((a, new_src[a], new_tgt[a]) for a, _s, _t in bq.arrows)
    return BoundQuiver(bq.vertices, arrows, frozenset(new_relations), bq.name)


def _oracle_loop_at(idx, x):
    return [a for a in idx.out_of[x] if a in idx.into[x]]


def oracle_gen_apr_precondition(bq: BoundQuiver, x: str) -> str | None:
    """None when gen-apr-reflect applies at ``x``, otherwise the violated condition."""
    idx = _Index(bq)
    if x not in idx.out_of:
        return "unknown vertex %r" % x
    loops = _oracle_loop_at(idx, x)
    if loops:
        if not any(idx.src_of[b] != x for b in idx.into[x]):
            return "loop variant needs an incoming arrow from another vertex"
        return None
    for a in idx.out_of[x]:
        if not any((a, b) not in bq.relations for b in idx.into[x]):
            return "outgoing arrow %s has no relation-free incoming continuation" % a
    return None


def _oracle_redirect_target(bq: BoundQuiver, idx, x):
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


def oracle_gen_apr_reflect(bq: BoundQuiver, x: str) -> BoundQuiver:
    idx = _Index(bq)
    loops = _oracle_loop_at(idx, x)
    new_tgt_of = _oracle_redirect_target(bq, idx, x)
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
        return _oracle_rebuild(bq, new_src, new_tgt, bq.relations)
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
    return _oracle_rebuild(bq, new_src, new_tgt, relations)


def oracle_hw_reflect(bq: BoundQuiver, x: str) -> BoundQuiver:
    if len(bq.vertices) == 1:
        return bq
    idx = _Index(bq)
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
    return _oracle_rebuild(bq, new_src, new_tgt, relations)


def oracle_not_applicable_reason(bq: BoundQuiver, move: Move) -> str | None:
    """None when ``move`` applies to ``bq``, otherwise why not."""
    idx = _Index(bq)
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
        return oracle_gen_apr_precondition(bq, x)
    return oracle_gen_apr_precondition(opposite(bq), x)


def oracle_generator_images(bq: BoundQuiver) -> tuple[list[BoundQuiver], BoundQuiver]:
    """The outputs of the generating moves on ``bq``: (reflections, opposite)."""
    idx = _Index(bq)
    reflections = []
    for v in sorted(bq.vertices):
        if oracle_gen_apr_precondition(bq, v) is None:
            reflections.append(oracle_gen_apr_reflect(bq, v))
        if not idx.out_of[v]:
            reflections.append(oracle_hw_reflect(bq, v))
    return reflections, opposite(bq)


def oracle_apply_move(bq: BoundQuiver, move: Move) -> BoundQuiver:
    """The output of an applicable move, by the rewrites on names."""
    kind, x = move.kind, move.vertex
    if kind is MoveKind.OPPOSITE:
        return opposite(bq)
    if kind is MoveKind.APR_REFLECT or kind is MoveKind.GEN_APR_REFLECT:
        return oracle_gen_apr_reflect(bq, x)
    if kind is MoveKind.HW_REFLECT:
        return oracle_hw_reflect(bq, x)
    if kind is MoveKind.APR_COREFLECT or kind is MoveKind.GEN_APR_COREFLECT:
        return opposite(oracle_gen_apr_reflect(opposite(bq), x))
    return opposite(oracle_hw_reflect(opposite(bq), x))


class CycleRankError(QuiverError):
    pass


class ArrowClass:
    CYCLE = "cycle"
    BRANCH = "branch"
    CONNECTING = "connecting"


def _oracle_component_sizes(vertices, arrows):
    """Sizes (vertex count, arrow count) of weak components."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, s, t in arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    sizes: dict[str, list[int]] = {}
    for v in vertices:
        sizes.setdefault(find(v), [0, 0])[0] += 1
    for _, s, _t in arrows:
        sizes[find(s)][1] += 1
    return [tuple(x) for x in sizes.values()]


def oracle_classify_arrows(bq: BoundQuiver):
    """Delete-one-arrow trichotomy plus the connecting vertices, by a
    union-find on names over each one-arrow deletion.

    An arrow is a cycle arrow when deleting it leaves the quiver connected, a
    branch arrow when one remaining component still has two independent
    cycles, and a connecting arrow when the quiver splits into two one-cycle
    components.  A connecting vertex meets at least three non-branch arrow
    ends (a loop contributes both of its ends).
    """
    if cycle_rank(bq) != 2:
        raise CycleRankError("arrow classification needs cycle rank 2, got %d" % cycle_rank(bq))
    classes: dict[str, str] = {}
    for a, s, t in bq.arrows:
        rest = [arr for arr in bq.arrows if arr[0] != a]
        comps = _oracle_component_sizes(bq.vertices, rest)
        if len(comps) == 1:
            classes[a] = ArrowClass.CYCLE
        elif any(ac == vc + 1 for vc, ac in comps):
            classes[a] = ArrowClass.BRANCH
        else:
            classes[a] = ArrowClass.CONNECTING
    ends: dict[str, int] = {v: 0 for v in bq.vertices}
    for a, s, t in bq.arrows:
        if classes[a] == ArrowClass.BRANCH:
            continue
        ends[s] += 1
        ends[t] += 1
    connecting = frozenset(v for v, k in ends.items() if k >= 3)
    return classes, connecting


def _oracle_inverse_fractions(matrix):
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
    """The package's ``(det C, det(E + E^T))`` or ``None``, as ``gentleq
    cartan`` takes it from the path count matrix."""
    rows = cartan_matrix(bq)[1]
    return _euler(rows, _det_int(rows))


def oracle_euler_data(bq: BoundQuiver):
    """``euler_data`` by inverting the path count matrix over the rationals."""
    _, rows = cartan_matrix(bq)
    det_c = _det_int(rows)
    if det_c not in (1, -1):
        return None
    inv = _oracle_inverse_fractions(rows)
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


# the hand-built slide hosts: per family, its base quiver, its slide (a
# relation slid right, or a block anchor) and its decoration sites; a site
# hangs one pendant arrow, named n1, n2, ... in site order, at a vertex,
# leaving it ("out") or entering it ("in"), and offers its choices: None (no
# arrow), "" (a free arrow) or a relation with "*" for the pendant arrow
_BASIC_SITES = (("u", "out", (None, "", ("*", "a1"))),
                ("v", "in", (None, "", ("a3", "*"))),
                ("x", "out", (None, ("*", "a2"))))


def _slide_bases():
    """``(family, vertices, arrows, relations, slide, sites)`` per base host."""
    yield ("basic", ["u", "x", "y", "v"], [("a1", "x", "u"), ("a2", "y", "x"), ("a3", "v", "y")],
           [("a1", "a2")], ("a1", "a2"), _BASIC_SITES)
    yield ("closed", ["x", "y"], [("a1", "x", "y"), ("a2", "y", "x")], [("a1", "a2")],
           ("a1", "a2"), ())
    for n in (1, 2, 3):  # a free chain b_n .. b_1 from y_n to y_0
        arrows = [("a1", "x", "u"), ("a2", "y%d" % n, "x"), ("a3", "v", "y0")]
        arrows += [("b%d" % i, "y%d" % i, "y%d" % (i - 1)) for i in range(1, n + 1)]
        yield ("long", ["u", "x", "v"] + ["y%d" % i for i in range(n + 1)], arrows,
               [("a1", "a2")], ("a1", "a2"), _BASIC_SITES[:2])
    for n in (2, 3, 4):  # a relation chain a_n .. a_1 from x_n to x_0
        arrows = [("b", "y", "x0")]
        arrows += [("a%d" % i, "x%d" % i, "x%d" % (i - 1)) for i in range(1, n + 1)]
        yield ("block", ["y"] + ["x%d" % i for i in range(n + 1)], arrows,
               [("a%d" % i, "a%d" % (i + 1)) for i in range(1, n)], "b",
               (("y", "in", (None, "")), ("x%d" % n, "in", (None, ""))))


def slide_hosts() -> tuple:
    """Every valid host with a matching slide that the hand-built families
    give, as ``(family, quiver, slide)``: 9 basic hosts, the closed
    two-cycle, 27 long forms with free chains of 1-3 arrows and 12 block
    hosts with relation chains of 2-4 arrows, 2 to 9 vertices.  A relation
    slide goes right; a block slide is named by its anchor arrow."""
    hosts = []
    for family, vertices, arrows, relations, slide, sites in _slide_bases():
        for picks in itertools.product(*[choices for _v, _m, choices in sites]):
            vs, arr, rels = list(vertices), list(arrows), list(relations)
            names = ("n%d" % i for i in itertools.count(1))
            for (vertex, mode, _choices), pick in zip(sites, picks):
                if pick is None:
                    continue
                w, aid = next(names), next(names)
                vs.append(w)
                arr.append((aid, vertex, w) if mode == "out" else (aid, w, vertex))
                if pick:
                    rels.append(tuple(aid if a == "*" else a for a in pick))
            bq = make_bound_quiver(vs, arr, rels)
            if validate(bq):
                continue
            try:
                if family == "block":
                    shift_relation_block_direct(bq, slide)
                else:
                    shift_relation_direct(bq, slide, ShiftDirection.RIGHT)
            except PatternMismatch:
                continue
            hosts.append((family, bq, slide))
    return tuple(hosts)
