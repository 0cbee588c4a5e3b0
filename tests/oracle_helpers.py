"""Independent brute-force oracles the tests check the package against."""

from __future__ import annotations

import functools
import itertools
import random

from gentleq.core import (
    BoundQuiver,
    canonical_form,
    canonical_key,
    make_bound_quiver,
    serialize,
    validate,
    _index,
)
from gentleq.invariant import (
    PairCycle,
    PairingIncomplete,
    _thread_key,
    forbidden_threads,
    permitted_threads,
)
from gentleq.orbit import _classes_of_shapes


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
            bq = BoundQuiver(bq0.quiver, frozenset(rels))
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


def oracle_enumerate(n: int, a: int, two_cycle: bool) -> tuple[BoundQuiver, ...]:
    """``enumerate_classes`` with the shape stage replaced by ``oracle_shapes``."""
    if two_cycle and a != n + 1:
        return ()
    return _classes_of_shapes(oracle_shapes(n, a).values())


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
    permitted = sorted(permitted_threads(bq), key=_thread_key)
    forbidden = sorted(forbidden_threads(bq), key=_thread_key)
    idx = _index(bq.quiver)
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
