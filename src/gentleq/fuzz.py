"""Seeded random exercise of the relation-shift macros.

Every generated case is a valid host quiver with a matchable slide pattern;
the check replays the composite of primitive moves and compares it, up to
isomorphism, with the slide's stated one-shot rewrite.
"""

from __future__ import annotations

import itertools
import random

from .core import BoundQuiver, is_isomorphic, make_bound_quiver, validate
from .moves import (
    PatternMismatch,
    ShiftDirection,
    shift_relation,
    shift_relation_block,
    shift_relation_block_direct,
    shift_relation_direct,
)
from .orbit import Report, SizeClass, enumerate_classes


def _fresh_names():
    """The names n1, n2, ... for the pendant vertices and arrows of one case."""
    return ("n%d" % i for i in itertools.count(1))


def _decorate(vertices, arrows, vertex, names, mode):
    """Attach one pendant arrow at ``vertex``, named from ``names``; the
    caller decides whether it joins a relation."""
    w = next(names)
    vertices.append(w)
    aid = next(names)
    if mode == "out":
        arrows.append((aid, vertex, w))
    else:
        arrows.append((aid, w, vertex))
    return aid


def _synth_basic(rng: random.Random) -> tuple[BoundQuiver, tuple[str, str]]:
    names = _fresh_names()
    vertices = ["u", "x", "y", "v"]
    arrows = [("a1", "x", "u"), ("a2", "y", "x"), ("a3", "v", "y")]
    relations = [("a1", "a2")]
    # the short pattern constrains only the middle vertex; decorate elsewhere
    if rng.random() < 0.5:
        aid = _decorate(vertices, arrows, "u", names, "out")
        if rng.random() < 0.5:
            relations.append((aid, "a1"))
    if rng.random() < 0.5:
        aid = _decorate(vertices, arrows, "v", names, "in")
        if rng.random() < 0.5:
            relations.append(("a3", aid))
    if rng.random() < 0.3:
        aid = _decorate(vertices, arrows, "x", names, "out")
        relations.append((aid, "a2"))
    return make_bound_quiver(vertices, arrows, relations), ("a1", "a2")


def _synth_closed(rng: random.Random) -> tuple[BoundQuiver, tuple[str, str]]:
    # the two-vertex cycle where the slide wraps around
    return make_bound_quiver(
        ["x", "y"],
        [("a1", "x", "y"), ("a2", "y", "x")],
        [("a1", "a2")],
    ), ("a1", "a2")


def _synth_long(rng: random.Random) -> tuple[BoundQuiver, tuple[str, str]]:
    names = _fresh_names()
    n = rng.randint(1, 3)
    vertices = ["u", "x", "v"] + ["y%d" % i for i in range(n + 1)]
    arrows = [("a1", "x", "u"), ("a2", "y%d" % n, "x"), ("a3", "v", "y0")]
    for i in range(1, n + 1):
        arrows.append(("b%d" % i, "y%d" % i, "y%d" % (i - 1)))
    relations = [("a1", "a2")]
    if rng.random() < 0.5:
        aid = _decorate(vertices, arrows, "u", names, "out")
        if rng.random() < 0.5:
            relations.append((aid, "a1"))
    if rng.random() < 0.5:
        aid = _decorate(vertices, arrows, "v", names, "in")
        if rng.random() < 0.5:
            relations.append(("a3", aid))
    return make_bound_quiver(vertices, arrows, relations), ("a1", "a2")


def _synth_block(rng: random.Random) -> tuple[BoundQuiver, str]:
    names = _fresh_names()
    n = rng.randint(2, 4)
    vertices = ["y"] + ["x%d" % i for i in range(n + 1)]
    arrows = [("b", "y", "x0")]
    for i in range(1, n + 1):
        arrows.append(("a%d" % i, "x%d" % i, "x%d" % (i - 1)))
    relations = [("a%d" % i, "a%d" % (i + 1)) for i in range(1, n)]
    if rng.random() < 0.5:
        _decorate(vertices, arrows, "y", names, "in")
    if rng.random() < 0.5:
        # a relation here would break the slide's end condition; keep it free
        _decorate(vertices, arrows, "x%d" % n, names, "in")
    return make_bound_quiver(vertices, arrows, relations), "b"


def _pool_cases(max_vertices: int = 4):
    """All (quiver, relation, direction) slides matchable on the enumerated
    two-cycle classes."""
    cases = []
    for n in range(2, max_vertices + 1):
        for bq in enumerate_classes(SizeClass(n, n + 1), two_cycle=True):
            for rel in sorted(bq.relations):
                for direction in (ShiftDirection.RIGHT, ShiftDirection.LEFT):
                    try:
                        shift_relation_direct(bq, rel, direction)
                    except PatternMismatch:
                        continue
                    cases.append((bq, rel, direction))
    return cases


def fuzz_shift(seed: int, count: int) -> Report:
    """Replay ``count`` seeded slide patterns, composite versus direct."""
    rng = random.Random(seed)
    pool = _pool_cases()
    lines = []
    failures = []
    done = 0
    attempts = 0
    while done < count:
        attempts += 1
        if attempts > 50 * count:
            failures.append("generator stalled after %d attempts" % attempts)
            break
        kind = rng.choice(("pool", "basic", "closed", "long", "block"))
        try:
            if kind == "pool" and pool:
                bq, rel, direction = rng.choice(pool)
                got = shift_relation(bq, rel, direction)[0]
                want = shift_relation_direct(bq, rel, direction)
            elif kind == "basic":
                bq, rel = _synth_basic(rng)
                if validate(bq):
                    continue
                got = shift_relation(bq, rel, ShiftDirection.RIGHT)[0]
                want = shift_relation_direct(bq, rel, ShiftDirection.RIGHT)
            elif kind == "closed":
                bq, rel = _synth_closed(rng)
                got = shift_relation(bq, rel, ShiftDirection.RIGHT)[0]
                want = shift_relation_direct(bq, rel, ShiftDirection.RIGHT)
            elif kind == "long":
                bq, rel = _synth_long(rng)
                if validate(bq):
                    continue
                got = shift_relation(bq, rel, ShiftDirection.RIGHT)[0]
                want = shift_relation_direct(bq, rel, ShiftDirection.RIGHT)
            else:
                bq, beta = _synth_block(rng)
                if validate(bq):
                    continue
                got = shift_relation_block(bq, beta)[0]
                want = shift_relation_block_direct(bq, beta)
        except PatternMismatch:
            continue
        done += 1
        if not is_isomorphic(got, want):
            failures.append("case %d (%s): composite differs from direct rewrite"
                            % (done, kind))
    lines.append("patterns: %d" % done)
    lines.append("failures: %d" % len(failures))
    lines.extend("failure: %s" % f for f in failures)
    return Report(tuple(lines), passed=not failures and done >= count)
