"""Exhaustive enumeration, move-orbit search, and the verification drivers.

Enumeration lists every isomorphism class of connected valid bound quivers in
a size class (optionally restricted to cycle rank two).  Orbits are breadth
first closures under the move calculus; since every move preserves the size
class, orbits partition each enumerated class list, which is what the
verification drivers exploit: completeness (every class reaches a canonical
family), minimality (no two canonical representatives collide), and the
table of small equivalence facts used throughout.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .core import (
    BoundQuiver,
    Quiver,
    QuiverError,
    canonical_form,
    canonical_key,
    compact_key,
    cycle_rank,
    parse,
    require_valid,
    opposite,
    serialize,
    validate,
)
from .families import (
    FamilySpec,
    build_family,
    family_size,
    phi_formula,
    spec,
    theorem_list,
)
from .invariant import phi
from .moves import apply_move, applicable_moves

__all__ = [
    "SizeClass",
    "OrbitResult",
    "Report",
    "BoundExceeded",
    "StateLimitExceeded",
    "NoCanonicalHit",
    "enumerate_classes",
    "orbit",
    "normalize",
    "theorem_key_table",
    "verify_completeness",
    "verify_minimality",
    "verify_lemma_tables",
]

DEFAULT_MAX_STATES = 200_000
DEFAULT_VERTEX_BOUND = 6


class BoundExceeded(QuiverError):
    pass


class StateLimitExceeded(QuiverError):
    pass


class NoCanonicalHit(QuiverError):
    pass


@dataclass(frozen=True)
class SizeClass:
    vertices: int
    arrows: int

    def __post_init__(self):
        if self.vertices < 1 or self.arrows < 0:
            raise ValueError("need at least one vertex and no negative arrow count")


# ---------------------------------------------------------------------------
# enumeration


def _arc_multisets(n: int, a: int):
    """Degree-bounded arc multisets on n labeled vertices, degree sorted.

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


def _arcs_connected(n: int, arcs) -> bool:
    """Weak connectivity of the arc multiset on vertices 0..n-1."""
    reached = {0}
    grew = True
    while grew:
        grew = False
        for s, t in arcs:
            if (s in reached) != (t in reached):
                reached.update((s, t))
                grew = True
    return len(reached) == n


def _shape_quiver(n: int, arcs) -> BoundQuiver:
    verts = tuple("v%d" % i for i in range(n))
    arrows = tuple(("a%d" % k, "v%d" % s, "v%d" % t) for k, (s, t) in enumerate(arcs))
    return BoundQuiver(Quiver(verts, arrows), frozenset())


def _junction_choices(bq: BoundQuiver):
    """Per vertex, the admissible relation sets among its through-pairs."""
    from .core import _index

    idx = _index(bq.quiver)
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


def _shapes(n: int, a: int) -> list[BoundQuiver]:
    """Canonical forms of the connected relation-free quivers of size (n, a).

    Only the degree-sorted labelings from ``_arc_multisets`` are
    canonicalized.  Each class's canonical form is itself one of them:
    ``canonical_form`` lists vertices in degree order, because every
    color-refinement round ranks by a signature that starts with the
    previous color, and a shape has no junctions.
    """
    shapes: dict[str, BoundQuiver] = {}
    for arcs in _arc_multisets(n, a):
        if _arcs_connected(n, arcs):
            shape = canonical_form(_shape_quiver(n, arcs))
            shapes.setdefault(serialize(shape), shape)
    return list(shapes.values())


def _classes_of_shapes(shapes) -> tuple[BoundQuiver, ...]:
    """Every valid relation set on every shape, one per class, sorted by key."""
    out: dict[str, BoundQuiver] = {}
    for shape in shapes:
        for combo in itertools.product(*_junction_choices(shape)):
            relations = frozenset(itertools.chain.from_iterable(combo))
            cand = BoundQuiver(shape.quiver, relations)
            if validate(cand):
                continue
            form = canonical_form(cand)
            out.setdefault(serialize(form), form)
    return tuple(out[k] for k in sorted(out))


def enumerate_classes(size: SizeClass, two_cycle: bool = False,
                      vertex_bound: int = DEFAULT_VERTEX_BOUND) -> list[BoundQuiver]:
    """One canonical representative per class of connected valid bound quivers.

    With ``two_cycle`` the arrow count must exceed the vertex count by one
    (anything else yields no classes).  Output is sorted by canonical key.

    Shapes (the relation-free quivers) are found by canonicalizing only the
    labelings whose per-vertex ``(out-degree, in-degree, loop count)`` is
    non-decreasing; this is complete because every quiver has such a
    labeling (sort its vertices).  Each shape then takes every admissible
    relation set.
    """
    if size.vertices > vertex_bound:
        raise BoundExceeded(
            "vertex count %d exceeds the bound %d" % (size.vertices, vertex_bound))
    return list(_enumerate_cached(size, two_cycle))


@functools.lru_cache(maxsize=64)
def _enumerate_cached(size: SizeClass, two_cycle: bool) -> tuple[BoundQuiver, ...]:
    n, a = size.vertices, size.arrows
    if two_cycle and a != n + 1:
        return ()
    return _classes_of_shapes(_shapes(n, a))


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitResult:
    component: frozenset[str]
    representatives: dict
    edges: tuple
    canonical_hits: tuple
    complete: bool


def orbit(bq: BoundQuiver, max_states: int = DEFAULT_MAX_STATES,
          hit_table: dict | None = None) -> OrbitResult:
    """Breadth-first closure of the class of ``bq`` under all moves."""
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
                out, receipt = apply_move(st, mv, _input_key=key)
                k2 = receipt.output_key
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
        hits = sorted(
            ((k, hit_table[k]) for k in states if k in hit_table),
            key=lambda kv: (kv[1], kv[0]),
        )
    return OrbitResult(frozenset(states), states, tuple(edges), tuple(hits), complete)


@functools.lru_cache(maxsize=None)
def theorem_key_table(n: int):
    """canonical key -> least canonical-list spec, for quivers of size n."""
    table: dict[str, FamilySpec] = {}
    if n < 2:
        return table
    for sp in theorem_list(n):
        if family_size(sp) != n:
            continue
        key = canonical_key(build_family(sp))
        assert key not in table, "canonical-list specs are pairwise nonisomorphic"
        table[key] = sp
    return table


def normalize(bq: BoundQuiver, max_states: int = DEFAULT_MAX_STATES) -> FamilySpec:
    """The least canonical-family spec in the orbit of ``bq``."""
    require_valid(bq, require_connected=True)
    if cycle_rank(bq) != 2:
        raise QuiverError("normalization applies to two-cycle quivers")
    res = orbit(bq, max_states, theorem_key_table(len(bq.vertices)))
    if not res.complete:
        raise StateLimitExceeded("orbit exceeded %d states" % max_states)
    if not res.canonical_hits:
        raise NoCanonicalHit(
            "orbit of size %d contains no canonical-family representative "
            "(candidate counterexample)" % len(res.component)
        )
    return min(spec for _key, spec in res.canonical_hits)


@functools.lru_cache(maxsize=None)
def _orbit_partition(n: int, max_states: int = DEFAULT_MAX_STATES):
    """Partition of the two-cycle classes at size n into move orbits.

    Returns (key -> orbit index, orbit index -> sorted member keys,
    orbit index -> least canonical hit or None, complete flag).
    """
    classes = enumerate_classes(SizeClass(n, n + 1), two_cycle=True)
    table = theorem_key_table(n)
    class_keys = {serialize(c) for c in classes}
    assignment: dict[str, int] = {}
    members: dict[int, tuple] = {}
    family: dict[int, FamilySpec | None] = {}
    complete = True
    for rep in classes:
        key = serialize(rep)
        if key in assignment:
            continue
        res = orbit(rep, max_states, table)
        complete = complete and res.complete
        oid = len(members)
        assert res.component <= class_keys, "orbit escaped the enumerated classes"
        for k in res.component:
            assignment[k] = oid
        members[oid] = tuple(sorted(res.component))
        family[oid] = min((sp for _k, sp in res.canonical_hits), default=None)
    return assignment, members, family, complete


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    lines: tuple[str, ...]
    passed: bool
    limited: bool = False

    def render(self) -> str:
        tail = ["RESULT: %s" % ("PASS" if self.passed and not self.limited else "FAIL")]
        return "\n".join(list(self.lines) + tail) + "\n"

    @property
    def exit_code(self) -> int:
        if self.limited:
            return 2
        return 0 if self.passed else 1


def verify_completeness(n: int, max_states: int = DEFAULT_MAX_STATES) -> Report:
    """Every enumerated two-cycle class at size n normalizes to the lists."""
    assignment, members, family, complete = _orbit_partition(n, max_states)
    lines = []
    failures = []
    n_classes = len(assignment)
    lines.append("classes: %d" % n_classes)
    lines.append("orbits: %d" % len(members))
    tally: Counter = Counter()
    for oid in sorted(members, key=lambda o: members[o][0]):
        fam = family[oid]
        size = len(members[oid])
        anchor = compact_key(parse(members[oid][0]))
        lines.append("orbit %s: size=%d family=%s" % (anchor, size, fam if fam else "NONE"))
        if fam is None:
            failures.append("orbit %s reaches no canonical family" % anchor)
        else:
            tally[fam] += size
    for fam in sorted(tally):
        lines.append("family %s: classes=%d" % (fam, tally[fam]))
    uncovered = sum(len(members[o]) for o in members if family[o] is None)
    if sum(tally.values()) + uncovered != n_classes:
        failures.append("family tallies do not partition the class count")
    lines.append("failures: %d" % len(failures))
    lines.extend("failure: %s" % f for f in failures)
    return Report(tuple(lines), passed=not failures, limited=not complete)


def _nondegenerate_specs(max_vertices: int) -> list[FamilySpec]:
    return [sp for sp in theorem_list(max_vertices) if sp.tag in ("L1", "L2")]


def verify_minimality(max_vertices: int, orbit_max_vertices: int = 4,
                      max_states: int = DEFAULT_MAX_STATES) -> Report:
    """Nondegenerate canonical-list entries are pairwise inequivalent."""
    specs = _nondegenerate_specs(max_vertices)
    lines = ["nondegenerate-specs: %d" % len(specs)]
    phi_failures = []
    by_phi: dict = {}
    for sp in specs:
        by_phi.setdefault(phi_formula(sp), []).append(sp)
    for k in sorted((k for k, v in by_phi.items() if len(v) > 1), key=str):
        phi_failures.append("phi collision %s: %s" % (k, ", ".join(map(str, by_phi[k]))))
    lines.append("phi-distinct: %s (%d specs, <=%d vertices)"
                 % ("FAIL" if phi_failures else "PASS", len(specs), max_vertices))
    orbit_specs = [sp for sp in specs if family_size(sp) <= orbit_max_vertices]
    orbit_failures = []
    limited = False
    seen: dict[tuple[int, int], FamilySpec] = {}
    for sp in orbit_specs:
        n = family_size(sp)
        assignment, _members, _family, complete = _orbit_partition(n, max_states)
        limited = limited or not complete
        oid = assignment[canonical_key(build_family(sp))]
        if (n, oid) in seen:
            orbit_failures.append("orbit collision: %s and %s" % (seen[(n, oid)], sp))
        else:
            seen[(n, oid)] = sp
    lines.append("orbit-distinct: %s (%d specs, <=%d vertices)"
                 % ("FAIL" if orbit_failures else "PASS",
                    len(orbit_specs), orbit_max_vertices))
    failures = phi_failures + orbit_failures
    lines.append("failures: %d" % len(failures))
    lines.extend("failure: %s" % f for f in failures)
    return Report(tuple(lines), passed=not failures, limited=limited)


# ---------------------------------------------------------------------------
# the table of small equivalence facts


def _closed_form_specs(bound: int):
    for pp in range(1, bound + 1):
        for r in range(0, min(pp, bound - pp + 1)):
            yield spec("L0", pp, r)
    for pp in range(1, bound + 1):
        yield spec("L0p", pp, 0)
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound - p1 + 1):
            for p3 in range(0, bound - p1 - p2 + 1):
                for p4 in range(0, bound - p1 - p2 - p3 + 1):
                    for r1 in range(0, min(p1, bound - p1 - p2 - p3 - p4 + 1)):
                        if p2 + p3 >= 2 and p4 + r1 >= 1:
                            yield spec("L1", p1, p2, p3, p4, r1)
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound - p1 + 1):
            for p3 in range(0, bound - p1 - p2 + 1):
                for r1 in range(0, min(p1, bound - p1 - p2 - p3 + 1)):
                    for r2 in range(0, min(p2, bound - p1 - p2 - p3 - r1 + 1)):
                        if p3 + r1 + r2 >= 1:
                            yield spec("L2", p1, p2, p3, r1, r2)


def check_closed_form(sp: FamilySpec) -> str | None:
    """Worker: closed form versus computed invariant for one spec."""
    want = phi_formula(sp)
    got = phi(build_family(sp))
    if want != got:
        return "%s: computed %s, formula %s" % (sp, got, want)
    return None


def _pmap(fn, items, jobs: int):
    items = list(items)
    if jobs <= 1 or len(items) < 64:
        return [fn(x) for x in items]
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 8)))


@dataclass(frozen=True)
class _Check:
    name: str
    instances: int
    failures: tuple[str, ...]


def _orbit_pair_check(pairs, max_states):
    """Same-orbit assertions for (spec, spec) pairs of equal size."""
    failures = []
    limited = False
    for left, right in pairs:
        n = family_size(left)
        assert family_size(right) == n
        assignment, _m, _f, complete = _orbit_partition(n, max_states)
        limited = limited or not complete
        kl = canonical_key(build_family(left))
        kr = canonical_key(build_family(right))
        if assignment[kl] != assignment[kr]:
            failures.append("%s and %s are not in the same orbit" % (left, right))
    return failures, limited


def _phi_pair_failures(pairs):
    out = []
    for left, right in pairs:
        pl = phi(build_family(left))
        pr = phi(build_family(right))
        if pl != pr:
            out.append("phi(%s)=%s differs from phi(%s)=%s" % (left, pl, right, pr))
    return out


def verify_lemma_tables(bound: int = 8, max_states: int = DEFAULT_MAX_STATES,
                        jobs: int = 1, orbit_vertices: int = 5,
                        sweep_vertices: int = 4) -> Report:
    """The closed-form sweep plus every small equivalence fact.

    ``bound`` caps the parameter sum of the closed-form sweep; the orbit
    checks run on instances with at most ``orbit_vertices`` vertices and the
    enumerated move sweeps at ``sweep_vertices``.
    """
    checks: list[_Check] = []
    limited = False

    # the generator yields sorted, distinct specs; only _pmap holds their list
    results = _pmap(check_closed_form, _closed_form_specs(bound), jobs)
    fails = tuple(f for f in results if f)
    checks.append(_Check("closed-form-sweep", len(results), fails))

    move_fails = []
    op_fails = []
    degen_fails = []
    n_moves = 0
    n_classes = 0
    for n in range(2, sweep_vertices + 1):
        assignment, members, family, complete = _orbit_partition(n, max_states)
        limited = limited or not complete
        classes = [parse(k) for k in sorted(assignment)]
        for rep in classes:
            n_classes += 1
            base_phi = phi(rep)
            if phi(opposite(rep)) != base_phi:
                op_fails.append("phi changes under opposite for %s" % compact_key(rep))
            total = base_phi.total
            fam = family[assignment[serialize(rep)]]
            if total not in (1, 3):
                degen_fails.append("phi total %d for %s" % (total, compact_key(rep)))
            elif fam is not None and (total == 1) != (fam.tag in ("L0", "L0p")):
                degen_fails.append(
                    "phi total %d but family %s for %s" % (total, fam, compact_key(rep)))
            for mv in applicable_moves(rep):
                out, _receipt = apply_move(rep, mv)
                n_moves += 1
                if len(out.vertices) != n or len(out.arrows) != n + 1:
                    move_fails.append("%s changed the size class" % mv)
                elif phi(out) != base_phi:
                    move_fails.append("%s on %s changed phi" % (mv, compact_key(rep)))
    checks.append(_Check("move-invariance", n_moves, tuple(move_fails)))
    checks.append(_Check("phi-under-opposite", n_classes, tuple(op_fails)))
    checks.append(_Check("degeneracy-split", n_classes, tuple(degen_fails)))

    def sized(specs):
        return [sp for sp in specs if family_size(sp) <= orbit_vertices]

    # flip of the mixed-cycle family
    op1_pairs = []
    for sp in sized(sp for sp in theorem_list(orbit_vertices) if sp.tag == "L1"):
        p1, p2, p3, p4, r1 = sp.params
        op1_pairs.append((sp, spec("L1", p1 + p2 - r1 - 1, r1 + 1, p4, p3, p2 - 1)))
    fails = _phi_pair_failures(op1_pairs)
    ofails, lim = _orbit_pair_check(op1_pairs, max_states)
    limited = limited or lim
    checks.append(_Check("mixed-cycle-flip", len(op1_pairs), tuple(fails + ofails)))

    # swap of the two oriented cycles
    swap_pairs = []
    for sp in sized(sp for sp in theorem_list(orbit_vertices) if sp.tag == "L2"):
        p1, p2, p3, r1, r2 = sp.params
        swap_pairs.append((sp, spec("L2", p2, p1, p3, r2, r1)))
    fails = _phi_pair_failures(swap_pairs)
    ofails, lim = _orbit_pair_check(swap_pairs, max_states)
    limited = limited or lim
    checks.append(_Check("cycle-swap", len(swap_pairs), tuple(fails + ofails)))

    # sliding the connector split point
    six_pairs = []
    six_id_fails = []
    for n in range(2, orbit_vertices + 1):
        for p1 in range(1, n):
            for p2 in range(1, n - p1 + 1):
                for p3 in range(0, n - p1 - p2 + 2):
                    p4 = n + 1 - p1 - p2 - p3
                    if p4 < 0:
                        continue
                    for r1 in range(0, p1):
                        for r2 in range(0, p2):
                            if p3 + p4 + r1 + r2 < 1:
                                continue
                            sp6 = spec("L2pSix", p1, p2, p3, p4, r1, r2)
                            if family_size(sp6) != n:
                                continue
                            if p3 == 0:
                                want = spec("L2", p2, p1, p4, r2, r1)
                                if canonical_key(build_family(sp6)) != \
                                        canonical_key(build_family(want)):
                                    six_id_fails.append(
                                        "%s is not isomorphic to %s" % (sp6, want))
                            else:
                                six_pairs.append(
                                    (sp6, spec("L2pSix", p1, p2, p3 - 1, p4 + 1, r1, r2)))
                            if p4 == 0:
                                want = spec("L2", p1, p2, p3, r1, r2)
                                if canonical_key(build_family(sp6)) != \
                                        canonical_key(build_family(want)):
                                    six_id_fails.append(
                                        "%s is not isomorphic to %s" % (sp6, want))
    fails = _phi_pair_failures(six_pairs)
    ofails, lim = _orbit_pair_check(six_pairs, max_states)
    limited = limited or lim
    checks.append(_Check("connector-slide", len(six_pairs) + len(six_id_fails),
                         tuple(six_id_fails + fails + ofails)))

    # double arrow absorbed into the cycle
    ext_pairs = []
    for pp in range(1, orbit_vertices):
        for r in range(1, pp):
            sp0 = spec("L0p", pp, r)
            if family_size(sp0) <= orbit_vertices:
                ext_pairs.append((sp0, spec("L0", pp + 1, r - 1)))
    fails = _phi_pair_failures(ext_pairs)
    ofails, lim = _orbit_pair_check(ext_pairs, max_states)
    limited = limited or lim
    checks.append(_Check("double-arrow-shift", len(ext_pairs), tuple(fails + ofails)))

    # closing the five-parameter connector
    five_pairs = []
    for p1 in range(1, orbit_vertices + 1):
        for p2 in range(2, orbit_vertices + 1):
            for p3 in range(1, orbit_vertices + 1):
                if p1 + p2 + p3 > orbit_vertices:
                    continue
                for r1 in range(0, p1):
                    for r2 in range(1, p2):
                        five_pairs.append((
                            spec("L2pFive", p1, p2, p3, r1, r2),
                            spec("L2", p2, p1 + 1, p3, r2 - 1, r1 + 1),
                        ))
    fails = _phi_pair_failures(five_pairs)
    ofails, lim = _orbit_pair_check(five_pairs, max_states)
    limited = limited or lim
    checks.append(_Check("five-parameter-close", len(five_pairs), tuple(fails + ofails)))

    # every canonical-list algebra meets its opposite
    opp_fails = []
    opp_count = 0
    for sp in theorem_list(orbit_vertices):
        n = family_size(sp)
        opp_count += 1
        assignment, _m, _f, complete = _orbit_partition(n, max_states)
        limited = limited or not complete
        kl = canonical_key(build_family(sp))
        kr = canonical_key(opposite(build_family(sp)))
        if assignment[kl] != assignment[kr]:
            opp_fails.append("%s and its opposite are in different orbits" % sp)
    checks.append(_Check("opposite-in-orbit", opp_count, tuple(opp_fails)))

    # the double-arrow reduction chain
    gamma_pairs = []
    max_g = orbit_vertices + 2
    for pp in range(1, max_g):
        for q in range(2, max_g - pp):
            for r in range(0, pp):
                if pp + q + 1 <= max_g:
                    gamma_pairs.append((spec("G0", pp, q, r), spec("G0", pp + 1, q - 1, r)))
    for pp in range(1, max_g):
        for q in range(1, max_g - pp):
            for r in range(0, pp):
                for rp in range(0, max_g - pp - q):
                    if pp + q + rp + 1 > max_g:
                        continue
                    g1 = spec("G1", pp, q, r, rp)
                    g2 = spec("G2", pp, q, r, rp)
                    if rp >= r:
                        gamma_pairs.append((g1, spec("G2", q + rp - r, pp, rp - r, r)))
                        gamma_pairs.append((g2, spec("G2", pp, q + r, r, rp - r)))
                    if r >= rp:
                        gamma_pairs.append((g1, spec("G2", pp + 2 * rp - r, q, rp, r - rp)))
                        gamma_pairs.append((g2, spec("G2", pp, q, r - rp, rp)))
    for pp in range(1, max_g - 1):
        for r in range(0, pp):
            gamma_pairs.append((spec("G0", pp, 1, r), spec("L0p", pp, r)))
    fails = _phi_pair_failures(gamma_pairs)
    checks.append(_Check("double-arrow-chain", len(gamma_pairs), tuple(fails)))

    lines = []
    all_fail: list[str] = []
    for ch in checks:
        status = "PASS" if not ch.failures else "FAIL"
        lines.append("check %s: %s (%d instances)" % (ch.name, status, ch.instances))
        all_fail.extend("failure[%s]: %s" % (ch.name, f) for f in ch.failures)
    lines.append("failures: %d" % len(all_fail))
    lines.extend(all_fail)
    return Report(tuple(lines), passed=not all_fail, limited=limited)
