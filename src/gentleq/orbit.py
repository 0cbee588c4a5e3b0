"""Exhaustive enumeration, move-orbit search, and the verification drivers.

Enumeration lists every isomorphism class of connected valid bound quivers in
a size class (optionally restricted to cycle rank two).  It works one sorted
degree sequence ``(out, in, loops)`` at a time: the arc matrices with those
margins give the shapes, and each shape takes its relation sets.  A class has
one sorted degree sequence, so the sequences are disjoint shares that
``_pmap`` may hand to forked workers.

An orbit is the set of classes reachable by moves.  It is closed under three
generating moves only: ``gen-apr-reflect`` where its preconditions hold,
``hw-reflect`` at sinks, and ``opposite``.  They suffice because
``apr-reflect`` is ``gen-apr-reflect`` at a sink and every coreflection is
``opposite`` after the matching reflection after ``opposite``.  Sink
reflections are undone by source coreflections (Auslander-Platzeck-Reiten),
so reachability is symmetric and the orbits partition each enumerated class
list; every closure checks that symmetry on its own edges rather than
assuming it.  Enumeration and closure work on the canonical kernel's integer
codes ``(n, base, rels)``: the moves, the validity check and the class keys
all run on the code, and a named quiver or text is made only for what is
printed or handed to a caller (enumerated classes, report anchors).  The
partition builds an edge table first, the class indices of each class's
generating moves' outputs, on ``jobs`` processes; the closures walk that
table, so the result does not depend on ``jobs``.  A closure on the table
cannot leave the class list, so the partition caps no orbit; only ``orbit``
and ``normalize``, which close the orbit of one input, take ``max_states``.
The partition, ``normalize`` and the audit closure ``orbit`` all close
through ``_reach``, one breadth-first closure over a step function; ``orbit``
applies all seven moves to codes, walks each level in key order, records
each edge and names the moves and states only for its result.  ``_entries``
alone matches a closure's states against the canonical list.  The
verification drivers rest on the partition: completeness (every orbit holds
exactly one list entry, and every list entry lies in an orbit), minimality
(no two canonical representatives collide), and the table of small
equivalence facts used throughout, which takes family instances and moves on
indices too.  The slide check needs no partition: on every connected valid
class up to a vertex bound, at every arrow count, each relation slide and
block slide that matches must replay move by move to exactly its one-shot
rewrite.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
from collections import Counter
from dataclasses import dataclass

from .core import (
    BoundQuiver,
    QuiverError,
    _arcs_connected,
    _canonical_code,
    _code,
    _compact,
    _decimal_order,
    _decode,
    _form,
    _Ints,
    _name,
    _serial_key,
    _valid,
    require_valid,
    serialize,
    validate,
)
from .families import (
    FamilySpec,
    _closed_form_specs,
    _family_ints,
    _phi_closed_form,
    _specs,
    family_size,
    phi_formula,
    spec,
    theorem_list,
)
from .invariant import _phi
from .moves import (
    Move,
    MoveKind,
    MoveNotApplicable,
    PatternMismatch,
    ShiftDirection,
    _applicable_pairs,
    _generator_codes,
    _image,
    shift_relation,
    shift_relation_block,
    shift_relation_block_direct,
    shift_relation_direct,
)

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
    "verify_slides",
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


# the per-vertex degrees ``(out, in, loops)`` with at most two arrows out and
# two in, loops counted in both, in increasing order
_DEGREES = [(o, i, loops) for o in range(3) for i in range(3) for loops in range(min(o, i) + 1)]


def _degree_sequences(n: int, a: int) -> list[tuple]:
    """The non-decreasing sequences of n vertex degrees from ``_DEGREES``
    with a arrows out and a arrows in.

    Every quiver of size (n, a) has exactly one of them, read off with its
    vertices in degree order, so each sequence is an independent share of the
    enumeration.
    """
    return [seq for seq in itertools.combinations_with_replacement(_DEGREES, n)
            if sum([o for o, _i, _l in seq]) == a == sum([i for _o, i, _l in seq])]


def _fill(seq):
    """Every arc multiset on vertices 0..n-1 in which vertex ``v`` has the
    degrees ``seq[v]``, as its ``(source, target)`` arcs in sorted order.

    Source rows are filled in turn: the loops of a row sit on the diagonal
    and its other one or two arcs go to the columns still short of their
    in-degree.  A row that overfills a column, or leaves one that the rows
    after it cannot complete at two arcs each, prunes the search.
    """
    n = len(seq)
    need = [i - loops for _o, i, loops in seq]  # arcs still to end at each vertex
    arcs: list[tuple[int, int]] = []

    def rec(s: int):
        if s == n:
            yield tuple(arcs)
            return
        out, _in, loops = seq[s]
        columns = [t for t in range(n) if t != s and need[t]]
        for pick in itertools.combinations_with_replacement(columns, out - loops):
            for t in pick:
                need[t] -= 1
            if all(0 <= need[c] <= 2 * (n - s - 1 - (c > s)) for c in range(n)):
                size = len(arcs)
                arcs.extend([(s, t) for t in sorted(pick + (s,) * loops)])
                yield from rec(s + 1)
                del arcs[size:]
            for t in pick:
                need[t] += 1

    yield from rec(0)


def _junction_choices(shape: _Ints):
    """Per vertex with arrows in and out, the relation sets gentleness allows,
    as ``(first, second)`` arrow positions on the arcs of ``shape``.

    With one arrow in and one out the pair is related or not.  Otherwise
    every arrow on the smaller side is related to its own arrow on the other
    side: each arrow then has at most one free and at most one related
    continuation through the vertex, as gentleness asks.
    """
    all_choices = []
    for outs, ins in zip(shape.outs, shape.ins):
        if not outs or not ins:
            continue
        if len(outs) == len(ins) == 1:
            all_choices.append([(), ((outs[0], ins[0]),)])
        elif len(outs) <= len(ins):
            all_choices.append(
                [tuple(zip(outs, p)) for p in itertools.permutations(ins, len(outs))])
        else:
            all_choices.append(
                [tuple(zip(p, ins)) for p in itertools.permutations(outs, len(ins))])
    return all_choices


def _shapes(seq) -> list[tuple]:
    """Canonical codes of the connected relation-free quivers with the sorted
    degree sequence ``seq``.

    Only the labelings from ``_fill`` are canonicalized.  Each class's
    canonical form is itself one of them: ``_code`` lists vertices in degree
    order, because every color-refinement round ranks by a signature that
    starts with the previous color, and a shape has no junctions.
    """
    n = len(seq)
    return list(dict.fromkeys(
        _code(n, arcs, ()) for arcs in _fill(seq) if _arcs_connected(n, arcs)))


def _classes_of_shapes(shapes) -> tuple[tuple, ...]:
    """The code of every class of valid relation sets on the shape codes, in
    no particular order: ``_enumerate_cached`` sorts the merged shares."""
    codes = set()
    for code in shapes:
        shape = _decode(code)
        for combo in itertools.product(*_junction_choices(shape)):
            rels = set(itertools.chain.from_iterable(combo))
            # every relation set of a shape has the shape's arrows at each vertex
            if _valid(_Ints(shape.n, shape.ends, rels, (shape.outs, shape.ins))):
                codes.add(_code(shape.n, shape.ends, rels))
    return tuple(codes)


def enumerate_classes(size: SizeClass, two_cycle: bool = False) -> list[BoundQuiver]:
    """One canonical representative per class of connected valid bound quivers.

    With ``two_cycle`` the arrow count must exceed the vertex count by one
    (anything else yields no classes).  Output is sorted by canonical key.

    Shapes (the relation-free quivers) are found by canonicalizing only the
    labelings whose per-vertex ``(out-degree, in-degree, loop count)`` is
    non-decreasing; this is complete because every quiver has such a
    labeling (sort its vertices).  Each shape then takes every admissible
    relation set.
    """
    size = _bounded(size)
    if two_cycle and size.arrows != size.vertices + 1:
        return []
    return [_form(c) for c in _enumerate_cached(size, 1)]


def _bounded(size: SizeClass) -> SizeClass:
    """``size``, once its vertex count is checked against the bound."""
    if size.vertices > DEFAULT_VERTEX_BOUND:
        raise BoundExceeded(
            "vertex count %d exceeds the bound %d" % (size.vertices, DEFAULT_VERTEX_BOUND))
    return size


@functools.lru_cache(maxsize=64)
def _enumerate_cached(size: SizeClass, jobs: int) -> tuple:
    """The code of each class of ``size``, in the order ``enumerate_classes``
    lists them; the forms are built only where a caller needs them.

    The degree sequences are mapped to their classes on up to ``jobs``
    processes.  No class has two sorted degree sequences, so the shares are
    disjoint and the sorted result does not depend on ``jobs``.  Callers
    pass both arguments positionally, so that a size has one cache entry
    per process count.
    """
    n, a = size.vertices, size.arrows
    shares = _pmap(lambda seq: _classes_of_shapes(_shapes(seq)), _degree_sequences(n, a), jobs)
    return tuple(sorted(itertools.chain.from_iterable(shares), key=_serial_key))


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitResult:
    component: frozenset[str]
    representatives: dict
    edges: tuple
    canonical_hits: tuple
    complete: bool


def _moves(q: _Ints):
    """Each move that applies to the canonical form of ``q``, in the order
    ``applicable_moves`` lists them there, with the record of its output; an
    invalid output raises AssertionError."""
    for kind, x in _applicable_pairs(q, _decimal_order(q.n)[0]) + [(MoveKind.OPPOSITE, None)]:
        out = _Ints(q.n, *_image(q, kind, x))
        mv = Move(kind, None if x is None else _name("v", x))
        if not _valid(out):
            raise AssertionError("%s produced an invalid quiver: %s"
                                 % (mv, validate(_form(_code(q.n, out.ends, out.rels)))))
        yield mv, out


def orbit(bq: BoundQuiver, max_states: int = DEFAULT_MAX_STATES) -> OrbitResult:
    """Breadth-first closure of the class of ``bq`` under all moves.

    The states are canonical codes, closed by ``_reach`` with each level
    walked in the order ``serialize`` sorts their forms.  Every applicable
    move is an edge ``(key, move, key)``, with the move named on the
    canonical form, also when its output is a new state beyond
    ``max_states``.  The canonical hits are the list entries among the
    states.  Keys and forms are made only for the result, after the closure.
    """
    require_valid(bq)
    n = len(bq.vertices)
    triples = []  # (state, move, output) of every applicable move, in walk order

    def step(code):
        moves = [(mv, _code(n, image.ends, image.rels)) for mv, image in _moves(_decode(code))]
        triples.extend([(code, mv, out) for mv, out in moves])
        return [out for _mv, out in moves]

    states, complete = _reach(_canonical_code(bq), step, max_states, _serial_key)
    forms = {c: _form(c) for c in dict.fromkeys(states + [out for _c, _mv, out in triples])}
    keys = {c: serialize(form) for c, form in forms.items()}
    return OrbitResult(frozenset([keys[c] for c in states]), {keys[c]: forms[c] for c in states},
                       tuple([(keys[c], mv, keys[out]) for c, mv, out in triples]),
                       tuple([(keys[c], sp) for sp, c in _entries(states, n)]), complete)


@functools.lru_cache(maxsize=None)
def theorem_key_table(n: int):
    """canonical code -> least canonical-list spec, for quivers of size n."""
    table: dict[tuple, FamilySpec] = {}
    if n < 2:
        return table
    for sp in theorem_list(n):
        if family_size(sp) != n:
            continue
        code = _family_code(sp)
        assert code not in table, "canonical-list specs are pairwise nonisomorphic"
        table[code] = sp
    return table


def _family_code(sp: FamilySpec) -> tuple:
    """The canonical code of a family instance."""
    q = _family_ints(sp)
    return _code(q.n, q.ends, q.rels)


def _check_inverse_edges(edges, op) -> None:
    """Raise AssertionError unless the reflection edges come in inverse pairs.

    ``op[i]`` is the state index of the opposite of state ``i`` and ``edges``
    holds the reflection edges ``(i, j)``.  A coreflection is ``opposite``
    after a reflection after ``opposite``, so the inverse of ``(i, j)`` is
    the reflection edge ``(op[j], op[i])``.
    """
    for i, j in enumerate(op):
        if op[j] != i:
            raise AssertionError("opposite is not an involution at state %d" % i)
    for i, j in edges:
        if (op[j], op[i]) not in edges:
            raise AssertionError("reflection edge %d -> %d has no inverse" % (i, j))


def _step(code) -> list:
    """The codes the generating moves reach from ``code``, the opposite last.

    The integer validity check runs first, on the record the moves run on;
    an invalid quiver raises AssertionError.
    """
    q = _decode(code)
    if not _valid(q):
        raise AssertionError("a generating move produced an invalid quiver: %s"
                             % (validate(_form(code)),))
    reflections, opp = _generator_codes(q)
    return reflections + [opp]


def _reach(start, step, max_states: int, order=None):
    """Breadth-first closure of ``start`` under ``step``, which lists the
    states the moves reach from a state, the opposite last.

    Returns ``(states, complete)``: the states in the order first reached,
    and whether the orbit has at most ``max_states`` states.  A complete
    closure checks that its reflection edges come in inverse pairs.  The
    partition (class indices through its edge table) and ``normalize``
    (``_step`` on codes) walk the queue; ``orbit`` (all seven moves on
    codes) walks each level in the order of ``order(state)``.
    """
    states = [start]  # the breadth-first queue: it grows while it is walked
    index = {start: 0}
    edges = set()
    op = [None]  # state index -> the state index of its opposite
    complete = True
    walked = 0  # the levels before states[walked] are walked
    while walked < len(states):
        level, walked = range(walked, len(states)), len(states)
        if order is not None:
            level = sorted(level, key=lambda i: order(states[i]))
        for i in level:
            outs = step(states[i])
            for pos, out in enumerate(outs):
                j = index.get(out)
                if j is None:
                    if len(states) >= max_states:
                        complete = False
                        continue
                    j = index[out] = len(states)
                    states.append(out)
                    op.append(None)
                if pos < len(outs) - 1:
                    edges.add((i, j))
                else:
                    op[i] = j
    if complete:
        _check_inverse_edges(edges, op)
    return states, complete


def _entries(codes, n: int) -> list:
    """The ``(spec, code)`` canonical-list entries among ``codes``, canonical
    codes of size n, sorted by spec: the first is the least."""
    table = theorem_key_table(n)
    return sorted([(table[c], c) for c in codes if c in table])


# canonical code -> (least canonical hit or None, orbit size), for every state
# of each orbit ``normalize`` closed completely in this process; it holds at
# most DEFAULT_MAX_STATES states
_closed: dict[tuple, tuple] = {}


def _remember(states: list, answer: tuple) -> None:
    """Record ``answer`` for every state of a completely closed orbit,
    emptying the memo first if the orbit would take it past its bound."""
    if len(states) > DEFAULT_MAX_STATES:
        return
    if len(_closed) + len(states) > DEFAULT_MAX_STATES:
        _closed.clear()
    _closed.update(dict.fromkeys(states, answer))


def normalize(bq: BoundQuiver, max_states: int = DEFAULT_MAX_STATES) -> FamilySpec:
    """The least canonical-family spec in the orbit of ``bq``.

    An orbit closed completely earlier in the process answers for each of its
    states without a second closure: reachability is symmetric (every
    complete closure checks its inverse edges), so the closure from any
    member is the same set, and the answer, exception and ``max_states``
    outcome are those a fresh closure would give.
    """
    require_valid(bq, require_connected=True)
    # connected, so the cycle rank is arrows - vertices + 1
    if len(bq.arrows) - len(bq.vertices) + 1 != 2:
        raise QuiverError("normalization applies to two-cycle quivers")
    start = _canonical_code(bq)
    answer = _closed.get(start)
    if answer is None:
        states, complete = _reach(start, _step, max_states)
        if not complete:
            raise StateLimitExceeded("orbit exceeded %d states" % max_states)
        answer = (next((sp for sp, _c in _entries(states, len(bq.vertices))), None), len(states))
        _remember(states, answer)
    elif answer[1] > max(max_states, 1):
        # a closure is complete exactly when the orbit has at most this many states
        raise StateLimitExceeded("orbit exceeded %d states" % max_states)
    hit, size = answer
    if hit is None:
        raise NoCanonicalHit(
            "orbit of size %d contains no canonical-family representative "
            "(candidate counterexample)" % size
        )
    return hit


@functools.lru_cache(maxsize=None)
def _orbit_partition(n: int, jobs: int = 1):
    """Partition of the two-cycle classes at size n into move orbits.

    Returns (code -> orbit index, orbit index -> member codes, orbit index ->
    least canonical hit or None).  The classes are walked in the order
    ``enumerate_classes`` lists them, so orbit indices follow the
    first-listed member of each orbit, and that member's code comes first in
    its member tuple.

    The edge table, each class's generating-move outputs as class indices
    (enumeration checked the classes), is built first on up to ``jobs``
    processes; the closures then walk it.  An output that is no enumerated
    class raises AssertionError, so no closure can exceed the class count,
    and every closure is complete.
    """
    classes = _enumerate_cached(_bounded(SizeClass(n, n + 1)), jobs)
    index = {code: i for i, code in enumerate(classes)}

    def row(code):
        reflections, opp = _generator_codes(_decode(code))
        try:
            return tuple([index[c] for c in reflections + [opp]])
        except KeyError:
            raise AssertionError("orbit escaped the enumerated classes") from None

    table = _pmap(row, classes, jobs)
    assignment: dict[tuple, int] = {}
    members: dict[int, tuple] = {}
    family: dict[int, FamilySpec | None] = {}
    for i, code in enumerate(classes):
        if code in assignment:
            continue
        states, _complete = _reach(i, table.__getitem__, len(classes))
        oid = len(members)
        codes = tuple([classes[j] for j in states])
        assignment.update(dict.fromkeys(codes, oid))
        members[oid] = codes
        family[oid] = next((sp for sp, _c in _entries(codes, n)), None)
    return assignment, members, family


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    """A verifier's lines, then ``failures: N`` and the failure lines; it
    passes exactly when it lists no failure."""

    body: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def lines(self) -> tuple[str, ...]:
        return self.body + ("failures: %d" % len(self.failures),) + self.failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        return "\n".join(self.lines + ("RESULT: %s" % ("PASS" if self.passed else "FAIL"),)) + "\n"

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def verify_completeness(n: int, jobs: int = 1) -> Report:
    """Every enumerated two-cycle class at size n normalizes to the lists,
    one list entry per orbit; the partition runs on up to ``jobs`` processes."""
    assignment, members, family = _orbit_partition(n, jobs)
    lines = []
    failures = []
    n_classes = len(assignment)
    lines.append("classes: %d" % n_classes)
    lines.append("orbits: %d" % len(members))
    tally: Counter = Counter()
    found = set()  # the list entries in some orbit
    for oid in members:
        fam = family[oid]
        size = len(members[oid])
        anchor = _compact(members[oid][0])
        lines.append("orbit %s: size=%d family=%s" % (anchor, size, fam if fam else "NONE"))
        if fam is None:
            failures.append("orbit %s reaches no canonical family" % anchor)
        else:
            tally[fam] += size
        entries = [sp for sp, _c in _entries(members[oid], n)]
        found.update(entries)
        if len(entries) > 1:
            failures.append("orbit %s holds list entries %s"
                            % (anchor, ", ".join(map(str, entries))))
    for fam in sorted(tally):
        lines.append("family %s: classes=%d" % (fam, tally[fam]))
    uncovered = sum(len(members[o]) for o in members if family[o] is None)
    if sum(tally.values()) + uncovered != n_classes:
        failures.append("family tallies do not partition the class count")
    for sp in sorted(set(theorem_key_table(n).values()) - found):
        failures.append("list entry %s matches no enumerated class" % sp)
    return Report(tuple(lines), tuple("failure: %s" % f for f in failures))


def verify_minimality(max_vertices: int, orbit_max_vertices: int = 4, jobs: int = 1) -> Report:
    """Nondegenerate canonical-list entries are pairwise inequivalent; the
    partitions run on up to ``jobs`` processes."""
    # fail before any work: the orbit checks would reach the bound only after
    # partitioning the smaller sizes
    largest = min(max_vertices, orbit_max_vertices)
    _bounded(SizeClass(largest, largest + 1))
    specs = [sp for sp in theorem_list(max_vertices) if sp.tag in ("L1", "L2")]
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
    for sp in orbit_specs:
        # the spec against the least nondegenerate entry of its orbit
        n = family_size(sp)
        assignment, members, _family = _orbit_partition(n, jobs)
        least = next(e for e, _c in _entries(members[assignment[_family_code(sp)]], n)
                     if e.tag in ("L1", "L2"))
        if least != sp:
            orbit_failures.append("orbit collision: %s and %s" % (least, sp))
    lines.append("orbit-distinct: %s (%d specs, <=%d vertices)"
                 % ("FAIL" if orbit_failures else "PASS",
                    len(orbit_specs), orbit_max_vertices))
    return Report(tuple(lines), tuple("failure: %s" % f for f in phi_failures + orbit_failures))


def _slide_check(code) -> tuple:
    """Worker: ``(relation slides, block slides, failures)`` on the form of
    ``code``.  Every relation in both directions and every arrow as a block
    anchor is tried, and each slide that matches must replay to exactly its
    one-shot rewrite."""
    bq = _form(code)
    slides = [(0, "relation (%s, %s) %s" % (f, s, d.value), shift_relation,
               shift_relation_direct, (bq, (f, s), d))
              for f, s in sorted(bq.relations) for d in ShiftDirection]
    slides += [(1, "block at %s" % beta, shift_relation_block, shift_relation_block_direct,
                (bq, beta)) for beta, _s, _t in bq.arrows]
    counts = [0, 0]
    failures = []
    for kind, label, replay, direct, args in slides:
        try:
            want = direct(*args)
        except PatternMismatch:
            continue
        counts[kind] += 1
        try:
            if replay(*args)[0] != want:
                failures.append("%s %s: the replay differs from the rewrite"
                                % (_compact(code), label))
        except MoveNotApplicable as exc:
            failures.append("%s %s: the replay stops at %s" % (_compact(code), label, exc))
    return counts[0], counts[1], tuple(failures)


def verify_slides(max_vertices: int, jobs: int = 1) -> Report:
    """Every relation slide and block slide that matches on a connected valid
    class with at most ``max_vertices`` vertices, at every arrow count,
    replays to its one-shot rewrite, compared with ``==``; the enumeration
    and the checks run on up to ``jobs`` processes."""
    _bounded(SizeClass(max_vertices, 0))  # fail before any work
    codes = [code for n in range(1, max_vertices + 1) for a in range(2 * n + 1)
             for code in _enumerate_cached(SizeClass(n, a), jobs)]
    results = _pmap(_slide_check, codes, jobs)
    failures = [f for _r, _b, fails in results for f in fails]
    lines = ["classes: %d" % len(codes),
             "relation-slides: %d" % sum([r for r, _b, _f in results]),
             "block-slides: %d" % sum([b for _r, b, _f in results])]
    return Report(tuple(lines), tuple("failure: %s" % f for f in failures))


# ---------------------------------------------------------------------------
# the table of small equivalence facts


def check_closed_form(sp: FamilySpec) -> str | None:
    """Worker: closed form versus computed invariant for one spec."""
    got = _phi(_family_ints(sp))  # checks the spec
    want = _phi_closed_form(sp)
    if want != got:
        return "%s: computed %s, formula %s" % (sp, got, want)
    return None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pmap(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]`` on up to ``jobs`` processes (at most the
    usable CPUs).

    Share ``k`` is ``items[k::jobs]``.  The parent computes share 0 and a
    forked child each other share, which it sends back through a pipe with
    ``marshal``: ``fn`` may be a closure, and its results must be
    marshallable.  A share whose fork fails or whose child fails is computed
    again in the parent, so an exception surfaces with its serial type and
    text, and no child outlives the call.  Runs serially for one job or
    where ``os.fork`` is missing, taking the items one at a time, and for
    fewer than 64 items.  The package starts no threads, so a forked child
    holds no lock another thread took.
    """
    jobs = min(jobs, _usable_cpus()) if hasattr(os, "fork") else 1
    if jobs <= 1:
        return [fn(x) for x in items]
    items = list(items)
    if len(items) < 64:
        return [fn(x) for x in items]
    children = []  # (pid, pipe) of each child not yet reaped, or None, by share
    try:
        for k in range(1, jobs):
            children.append(_fork_share(fn, items[k::jobs]))
        shares = [[fn(x) for x in items[::jobs]]]
        for k in range(1, jobs):
            data = None  # the parent computes the share of a failed fork or child
            if children[0] is not None:
                pid, pipe = children[0]
                with pipe:
                    data = pipe.read()
                if os.waitpid(pid, 0)[1]:
                    data = None
            children.pop(0)
            shares.append([fn(x) for x in items[k::jobs]] if data is None else marshal.loads(data))
    finally:
        if any(children):  # an exception left them running
            import signal  # only this failure path needs it; importing it costs about 30 KB

            for pid, pipe in filter(None, children):
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    out = [None] * len(items)
    for k, share in enumerate(shares):
        out[k::jobs] = share
    return out


def _fork_share(fn, share: list):
    """Fork a child that writes ``marshal.dumps([fn(x) for x in share])`` to
    a pipe and exits with status 0, or exits with 1 at once if anything
    fails; returns its pid and the read end of the pipe, or None when the
    fork fails (EAGAIN, ENOMEM)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps([fn(x) for x in share]))
            status = 0
        finally:
            os._exit(status)  # no cleanup, flush or traceback of the parent's
    os.close(write_end)
    return pid, open(read_end, "rb")


@dataclass(frozen=True)
class _Check:
    name: str
    instances: int
    failures: tuple[str, ...]


def _phi_pair_failures(pairs):
    out = []
    for left, right in pairs:
        pl = _phi(_family_ints(left))
        pr = _phi(_family_ints(right))
        if pl != pr:
            out.append("phi(%s)=%s differs from phi(%s)=%s" % (left, pl, right, pr))
    return out


def _sized_specs(tags, max_vertices: int) -> list[FamilySpec]:
    """Every valid spec of the given tags with at most ``max_vertices``
    vertices, by size and then in order.  A gentle quiver has at most one
    relation starting at each arrow, so at most ``n + 1`` relations."""
    return [sp for n in range(1, max_vertices + 1)
            for sp in sorted(sp for tag in tags for r in range(n + 2)
                             for sp in _specs(tag, n, r))]


def _move_sweep(sweep_vertices: int, jobs: int) -> list[_Check]:
    """Every applicable move on every two-cycle class with 2 to
    ``sweep_vertices`` vertices keeps the size and ``phi``; ``phi`` is the
    same on the opposite and splits the classes by degeneracy.

    Runs on the classes' codes: no key or named quiver is made; the
    enumeration and partitions run on up to ``jobs`` processes.
    """
    move_fails = []
    op_fails = []
    degen_fails = []
    n_moves = 0
    n_classes = 0
    for n in range(2, sweep_vertices + 1):
        assignment, _members, family = _orbit_partition(n, jobs)
        for code in _enumerate_cached(SizeClass(n, n + 1), jobs):
            q = _decode(code)
            n_classes += 1
            base_phi = _phi(q)
            if not _valid(q.opposite()):
                raise AssertionError("the opposite of %s is invalid" % _compact(code))
            if _phi(q.opposite()) != base_phi:
                op_fails.append("phi changes under opposite for %s" % _compact(code))
            total = base_phi.total
            fam = family[assignment[code]]
            if total not in (1, 3):
                degen_fails.append("phi total %d for %s" % (total, _compact(code)))
            elif fam is not None and (total == 1) != (fam.tag in ("L0", "L0p")):
                degen_fails.append(
                    "phi total %d but family %s for %s" % (total, fam, _compact(code)))
            for mv, image in _moves(q):
                n_moves += 1
                if len(image.ends) != n + 1:
                    move_fails.append("%s changed the size class" % mv)
                elif _phi(image) != base_phi:
                    move_fails.append("%s on %s changed phi" % (mv, _compact(code)))
    return [_Check("move-invariance", n_moves, tuple(move_fails)),
            _Check("phi-under-opposite", n_classes, tuple(op_fails)),
            _Check("degeneracy-split", n_classes, tuple(degen_fails))]


def verify_lemma_tables(bound: int = 8, jobs: int = 1, orbit_vertices: int = 5,
                        sweep_vertices: int = 4) -> Report:
    """The closed-form sweep plus every small equivalence fact.

    ``bound`` caps the parameter sum of the closed-form sweep; the orbit
    checks run on instances with at most ``orbit_vertices`` vertices and the
    enumerated move sweeps at ``sweep_vertices``.  The closed-form sweep,
    the enumerations and the partitions run on up to ``jobs`` processes.
    """
    for vertices in (sweep_vertices, orbit_vertices):
        # fail before any work: the sweep and the orbit checks would reach
        # the bound only after the smaller sizes
        _bounded(SizeClass(vertices, vertices + 1))
    checks: list[_Check] = []

    # the generator yields sorted, distinct specs; only _pmap holds their list
    results = _pmap(check_closed_form, _closed_form_specs(bound), jobs)
    fails = tuple(f for f in results if f)
    checks.append(_Check("closed-form-sweep", len(results), fails))

    checks.extend(_move_sweep(sweep_vertices, jobs))

    flip_pairs, swap_pairs = [], []  # the mixed-cycle flip, the cycle swap
    for sp in theorem_list(orbit_vertices):
        if sp.tag == "L1":
            p1, p2, p3, p4, r1 = sp.params
            flip_pairs.append((sp, spec("L1", p1 + p2 - r1 - 1, r1 + 1, p4, p3, p2 - 1)))
        elif sp.tag == "L2":
            p1, p2, p3, r1, r2 = sp.params
            swap_pairs.append((sp, spec("L2", p2, p1, p3, r2, r1)))
    # sliding the connector split point; a vanishing half is the plain family
    slide_ids, slide_pairs = [], []
    for sp in _sized_specs(("L2pSix",), orbit_vertices):
        p1, p2, p3, p4, r1, r2 = sp.params
        if p3 == 0:
            slide_ids.append((sp, spec("L2", p2, p1, p4, r2, r1)))
        else:
            slide_pairs.append((sp, spec("L2pSix", p1, p2, p3 - 1, p4 + 1, r1, r2)))
        if p4 == 0:
            slide_ids.append((sp, spec("L2", p1, p2, p3, r1, r2)))
    shift_pairs = [  # the double arrow absorbed into the cycle
        (sp, spec("L0", sp.params[0] + 1, sp.params[1] - 1))
        for sp in _sized_specs(("L0p",), orbit_vertices) if sp.params[1] >= 1]
    close_pairs = []  # closing the five-parameter connector
    for sp in _sized_specs(("L2pFive",), orbit_vertices):
        p1, p2, p3, r1, r2 = sp.params
        close_pairs.append((sp, spec("L2", p2, p1 + 1, p3, r2 - 1, r1 + 1)))
    for name, identities, pairs in (("mixed-cycle-flip", [], flip_pairs),
                                    ("cycle-swap", [], swap_pairs),
                                    ("connector-slide", slide_ids, slide_pairs),
                                    ("double-arrow-shift", [], shift_pairs),
                                    ("five-parameter-close", [], close_pairs)):
        # isomorphic identities, then equal phi and a shared orbit for each pair
        fails = ["%s is not isomorphic to %s" % (left, right) for left, right in identities
                 if _family_code(left) != _family_code(right)]
        fails += _phi_pair_failures(pairs)
        for left, right in pairs:
            assignment, _m, _f = _orbit_partition(family_size(left), jobs)
            if assignment[_family_code(left)] != assignment[_family_code(right)]:
                fails.append("%s and %s are not in the same orbit" % (left, right))
        checks.append(_Check(name, len(identities) + len(pairs), tuple(fails)))

    # every canonical-list algebra meets its opposite
    opp_fails = []
    opp_count = 0
    for sp in theorem_list(orbit_vertices):
        n = family_size(sp)
        opp_count += 1
        assignment, _m, _f = _orbit_partition(n, jobs)
        q = _family_ints(sp)
        op = q.opposite()
        if assignment[_code(q.n, q.ends, q.rels)] != assignment[_code(op.n, op.ends, op.rels)]:
            opp_fails.append("%s and its opposite are in different orbits" % sp)
    checks.append(_Check("opposite-in-orbit", opp_count, tuple(opp_fails)))

    # the double-arrow reduction chain, past the orbit bound: phi only
    chain_pairs = []
    for sp in _sized_specs(("G0", "G1", "G2"), orbit_vertices + 2):
        if sp.tag == "G0":
            pp, q, r = sp.params
            chain_pairs.append((sp, spec("G0", pp + 1, q - 1, r) if q > 1 else spec("L0p", pp, r)))
            continue
        pp, q, r, rp = sp.params
        if sp.tag == "G1":
            if rp >= r:
                chain_pairs.append((sp, spec("G2", q + rp - r, pp, rp - r, r)))
            if r >= rp:
                chain_pairs.append((sp, spec("G2", pp + 2 * rp - r, q, rp, r - rp)))
        else:
            if rp >= r:
                chain_pairs.append((sp, spec("G2", pp, q + r, r, rp - r)))
            if r >= rp:
                chain_pairs.append((sp, spec("G2", pp, q, r - rp, rp)))
    checks.append(_Check("double-arrow-chain", len(chain_pairs),
                         tuple(_phi_pair_failures(chain_pairs))))

    lines = ["check %s: %s (%d instances)"
             % (ch.name, "FAIL" if ch.failures else "PASS", ch.instances) for ch in checks]
    return Report(tuple(lines),
                  tuple(["failure[%s]: %s" % (ch.name, f) for ch in checks for f in ch.failures]))
