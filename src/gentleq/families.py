"""Constructors and recognizers for the canonical algebra families.

Nine parameterized families: the two degenerate shapes (a cycle with a double
arrow, and its variant with the double arrow hanging off the cycle), the two
nondegenerate target shapes (one mixed cycle with two connectors, and two
oriented cycles joined by a path), two auxiliary shapes used for connector
surgery (six- and five-parameter variants), and three auxiliary double-arrow
shapes used in the degenerate reduction.  Builders follow one recipe per
shape: L2 is the six-parameter connector shape with an empty second half,
and the three double-arrow families are one shape whose arrow from vz to vy
stretches into a chain on the a side (G1) or the b side (G2).  ``recognize``
inverts the recipes up to isomorphism by looking the canonical code up in a
table of every spec of the same size, built once per size.  The canonical
lists are the closed-form specs kept by the classification's tie-breaks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    BoundQuiver,
    QuiverError,
    _arcs_connected,
    _canonical_code,
    _code,
    _Ints,
    _valid,
    make_bound_quiver,
    require_valid,
    validate,
)
from .invariant import Phi

__all__ = [
    "FamilySpec",
    "ConstraintViolation",
    "OutOfLemmaScope",
    "FAMILY_TAGS",
    "spec",
    "check_spec",
    "build_family",
    "recognize",
    "phi_formula",
    "theorem_list",
]

# Each family's shape: the parameters whose sum plus an offset is the vertex
# count, and those whose sum plus an offset is the relation count.
_SHAPE = {
    "G0": ((0, 1), 1, (2,), 2),
    "G1": ((0, 1, 3), 1, (2, 3), 2),
    "G2": ((0, 1, 3), 1, (2, 3), 2),
    "L0": ((0,), 1, (1,), 2),
    "L0p": ((0,), 2, (1,), 2),
    "L1": ((0, 1, 2, 3), -1, (1, 4), 1),
    "L2": ((0, 1, 2), -1, (3, 4), 2),
    "L2pFive": ((0, 1, 2), 0, (3, 4), 2),
    "L2pSix": ((0, 1, 2, 3), -1, (4, 5), 2),
}

FAMILY_TAGS = tuple(_SHAPE)

# every parameter counts towards the vertices or the relations
_PARAM_COUNT = {tag: len(set(size) | set(rels)) for tag, (size, _o, rels, _r) in _SHAPE.items()}


class ConstraintViolation(QuiverError):
    pass


class OutOfLemmaScope(QuiverError):
    pass


@dataclass(frozen=True, order=True)
class FamilySpec:
    tag: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.tag, ",".join(str(p) for p in self.params))


def _check_arity(tag: str, params: tuple) -> None:
    """Raise ConstraintViolation unless ``tag`` is a family with that many
    parameters."""
    if tag not in FAMILY_TAGS:
        raise ConstraintViolation("unknown family tag %r" % tag)
    if len(params) != _PARAM_COUNT[tag]:
        raise ConstraintViolation(
            "%s takes %d parameters, got %d" % (tag, _PARAM_COUNT[tag], len(params)))


def spec(tag: str, *params: int) -> FamilySpec:
    _check_arity(tag, params)
    return FamilySpec(tag, tuple(int(p) for p in params))


def check_spec(sp: FamilySpec) -> None:
    """Raise ConstraintViolation naming the first failed inequality."""
    _check_arity(sp.tag, sp.params)
    failed = _failed_inequality(sp.tag, sp.params)
    if failed is not None:
        raise ConstraintViolation("%s: needs %s" % (sp, failed))


def _failed_inequality(tag: str, p: tuple[int, ...]) -> str | None:
    """The first inequality the parameters ``p`` of a ``tag`` spec fail, or
    None when they are valid."""
    if tag in ("L0", "L0p"):
        pp, r = p
        rules = ((pp >= 1, "p >= 1"), (0 <= r <= pp - 1, "r in [0, p-1]"))
    elif tag == "L1":
        p1, p2, p3, p4, r1 = p
        rules = ((p1 >= 1 and p2 >= 1, "p1, p2 >= 1"),
                 (p3 >= 0 and p4 >= 0, "p3, p4 >= 0"),
                 (0 <= r1 <= p1 - 1, "r1 in [0, p1-1]"),
                 (p2 + p3 >= 2, "p2 + p3 >= 2"),
                 (p4 + r1 >= 1, "p4 + r1 >= 1"))
    elif tag == "L2":
        p1, p2, p3, r1, r2 = p
        rules = ((p1 >= 1 and p2 >= 1, "p1, p2 >= 1"),
                 (p3 >= 0, "p3 >= 0"),
                 (0 <= r1 <= p1 - 1, "r1 in [0, p1-1]"),
                 (0 <= r2 <= p2 - 1, "r2 in [0, p2-1]"),
                 (p3 + r1 + r2 >= 1, "p3 + r1 + r2 >= 1"))
    elif tag == "L2pSix":
        p1, p2, p3, p4, r1, r2 = p
        rules = ((p1 >= 1 and p2 >= 1, "p1, p2 >= 1"),
                 (p3 >= 0 and p4 >= 0, "p3, p4 >= 0"),
                 (0 <= r1 <= p1 - 1, "r1 in [0, p1-1]"),
                 (0 <= r2 <= p2 - 1, "r2 in [0, p2-1]"),
                 (p3 + p4 + r1 + r2 >= 1, "p3 + p4 + r1 + r2 >= 1"))
    elif tag == "L2pFive":
        p1, p2, p3, r1, r2 = p
        rules = ((p1 >= 1 and p3 >= 1, "p1, p3 >= 1"),
                 (p2 >= 2, "p2 >= 2"),
                 (0 <= r1 <= p1 - 1, "r1 in [0, p1-1]"),
                 (1 <= r2 <= p2 - 1, "r2 in [1, p2-1]"))
    elif tag == "G0":
        pp, q, r = p
        rules = ((pp >= 1 and q >= 1, "p, q >= 1"), (0 <= r <= pp - 1, "r in [0, p-1]"))
    else:  # G1, G2
        pp, q, r, rp = p
        rules = ((pp >= 1 and q >= 1, "p, q >= 1"),
                 (0 <= r <= pp - 1, "r in [0, p-1]"),
                 (rp >= 0, "r' >= 0"))
    for ok, text in rules:
        if not ok:
            return text
    return None


class _Builder:
    """Accumulates one family instance on indices: the ``(source, target)``
    of each arrow, the arrows out of and into each vertex, and the relations
    as ``(first, second)`` arrow positions, each in the order it was added.

    Names are kept as runs ``(prefix, number, count)``: ``count`` names
    ``prefix{number}``, ``prefix{number+1}``, ..., or the bare ``prefix``
    when ``number`` is None.  Only ``named`` formats them.
    """

    def __init__(self):
        self.vertex_names: list[tuple[str, int | None, int]] = []
        self.arrow_names: list[tuple[str, int | None, int]] = []
        self.ends: list[tuple[int, int]] = []
        self.outs: list[list[int]] = []
        self.ins: list[list[int]] = []
        self.rels: set[tuple[int, int]] = set()

    def vertex(self, prefix: str, k: int | None = None) -> int:
        self.vertex_names.append((prefix, k, 1))
        self.outs.append([])
        self.ins.append([])
        return len(self.outs) - 1

    def arrow(self, prefix: str, s: int, t: int, k: int | None = None) -> int:
        a = len(self.ends)
        self.arrow_names.append((prefix, k, 1))
        self.ends.append((s, t))
        self.outs[s].append(a)
        self.ins[t].append(a)
        return a

    def rel(self, first: int, second: int) -> None:
        self.rels.add((first, second))

    def chain(self, arrows) -> None:
        """Relate each arrow of ``arrows`` to the next."""
        self.rels.update(zip(arrows, arrows[1:]))

    def path(self, prefix: str, length: int, start: int, end: int, base: int = 1) -> range:
        """Arrows ``prefix{base}..prefix{base+length-1}``, numbered from the
        ``end`` vertex backwards, in that order; the interior vertex at the
        source of arrow ``prefix{k}`` is named ``PREFIX{k}``."""
        if length == 0:
            assert start == end, "a length-0 path needs identified endpoints"
            return range(0)
        v, a = len(self.outs), len(self.ends)
        arrows = range(a, a + length)
        # arrow a+i runs from vertex v+i (the last from start) to v+i-1 (the
        # first to end), so interior vertex v+i leaves by a+i and enters by a+i+1
        at = [end, *range(v, v + length - 1), start]
        self.vertex_names.append((prefix.upper(), base, length - 1))
        self.arrow_names.append((prefix, base, length))
        self.ends += zip(at[1:], at)
        self.outs += [[b] for b in arrows[:-1]]
        self.ins += [[b] for b in arrows[1:]]
        self.outs[start].append(arrows[-1])
        self.ins[end].append(a)
        return arrows

    def named(self, name: str) -> BoundQuiver:
        """The quiver with the recorded names, in the order they were added."""
        def names(runs):
            return [p if k is None else "%s%d" % (p, k + i)
                    for p, k, count in runs for i in range(count)]

        vs, ids = names(self.vertex_names), names(self.arrow_names)
        return make_bound_quiver(
            vs, [(a, vs[s], vs[t]) for a, (s, t) in zip(ids, self.ends)],
            [(ids[f], ids[s]) for f, s in self.rels], name)


def _build_l0(pp, r):
    b = _Builder()
    w = [b.vertex("w", i) for i in range(pp + 1)]
    a = [b.arrow("a", w[i], w[i - 1], i) for i in range(1, pp + 1)]
    b.rel(a[-1], b.arrow("b", w[0], w[pp]))
    b.rel(b.arrow("c", w[0], w[pp]), a[0])
    b.chain(a[:r + 1])
    return b


def _build_l0p(pp, r):
    b = _Builder()
    vl, vb, vc = b.vertex("vl"), b.vertex("vb"), b.vertex("vc")
    a = b.path("a", pp, vb, vl)
    beta = b.arrow("b", vb, vl)
    b.rel(a[-1], b.arrow("c", vc, vb))
    b.rel(beta, b.arrow("d", vc, vb))
    b.chain(a[:r + 1])
    return b


def _build_l1(p1, p2, p3, p4, r1):
    b = _Builder()
    if p3 == 0 and p4 == 0:
        left = right = b.vertex("vc")
    else:
        left = b.vertex("vl")
        right = b.vertex("vr")
    if p3 == 0:
        mid = right
    elif p4 == 0:
        mid = left
    else:
        mid = b.vertex("vm")
    a = b.path("a", p1, left, right)
    beta = b.path("b", p2, right, left)
    b.path("d", p4, left, mid)
    b.path("g", p3, right, mid)
    b.chain(a[p1 - r1 - 1:])
    b.rel(a[-1], beta[0])
    b.rel(beta[-1], a[0])
    b.chain(beta)
    return b


def _build_l2p_six(p1, p2, p3, p4, r1, r2):
    b = _Builder()
    va = b.vertex("va")
    if p3 == 0 and p4 == 0:
        vb = mid = va
    elif p3 == 0:
        vb = b.vertex("vb")
        mid = va
    elif p4 == 0:
        vb = b.vertex("vb")
        mid = vb
    else:
        vb = b.vertex("vb")
        mid = b.vertex("vm")
    a = b.path("a", p1, va, va)
    beta = b.path("b", p2, vb, vb)
    b.path("g", p3, mid, va)
    b.path("d", p4, mid, vb)
    b.rel(a[-1], a[0])
    b.chain(a[p1 - r1 - 1:])
    b.rel(beta[-1], beta[0])
    b.chain(beta[p2 - r2 - 1:])
    return b


def _build_l2p_five(p1, p2, p3, r1, r2):
    b = _Builder()
    vl, vr, vbot = b.vertex("vl"), b.vertex("vr"), b.vertex("vb")
    a = b.path("a", p1, vl, vr)
    beta = b.arrow("b", vr, vl)
    g = b.path("g", p2, vr, vbot)
    b.path("d", p3, vl, vbot)
    b.chain(a[p1 - r1 - 1:])
    b.rel(a[-1], beta)
    b.rel(beta, a[0])
    b.chain(g[:r2 + 1])
    return b


def _build_g(pp, q, r, ra=0, rb=0):
    """The double-arrow shape: the a-side and b-side arrows from vz to vy are
    chains of ``ra + 1`` and ``rb + 1`` arrows."""
    b = _Builder()
    vx, vy, vz = b.vertex("vx"), b.vertex("vy"), b.vertex("vz")
    a = [*b.path("a", pp, vy, vx), *b.path("a", ra + 1, vz, vy, base=pp + 1)]
    beta = [*b.path("b", q, vy, vx), *b.path("b", rb + 1, vz, vy, base=q + 1)]
    b.chain(a[pp - r - 1:])
    b.chain(beta[q - 1:])
    return b


_BUILDERS = {
    "L0": _build_l0,
    "L0p": _build_l0p,
    "L1": _build_l1,
    "L2": lambda p1, p2, p3, r1, r2: _build_l2p_six(p1, p2, p3, 0, r1, r2),
    "L2pSix": _build_l2p_six,
    "L2pFive": _build_l2p_five,
    "G0": _build_g,
    "G1": lambda pp, q, r, rp: _build_g(pp, q, r, ra=rp),
    "G2": lambda pp, q, r, rp: _build_g(pp, q, r, rb=rp),
}


def _family(sp: FamilySpec, named: bool):
    """A family instance, once its quiver is checked: valid, connected, with
    two independent cycles.  With ``named`` it is the bound quiver named
    after its tag, otherwise its record on indices; both list the vertices
    and arrows in the order the recipe adds them."""
    check_spec(sp)
    b = _BUILDERS[sp.tag](*sp.params)
    out = b.named(sp.tag) if named else _Ints(len(b.outs), b.ends, b.rels, (b.outs, b.ins))
    q = out._ints if named else out
    if not (_valid(q) and _arcs_connected(q.n, q.ends)):
        raise AssertionError("%s built an invalid quiver: %s"
                             % (sp, validate(b.named(sp.tag), require_connected=True)))
    assert len(q.ends) == q.n + 1, "families are two-cycle"
    return out


def _family_ints(sp: FamilySpec) -> _Ints:
    """The checked record of a family instance."""
    return _family(sp, False)


def build_family(sp: FamilySpec) -> BoundQuiver:
    """Build the bound quiver for a family instance (validated)."""
    return _family(sp, True)


def family_size(sp: FamilySpec) -> int:
    """Vertex count of the built quiver, without building it."""
    size, offset, _rels, _roffset = _SHAPE[sp.tag]
    return sum(sp.params[i] for i in size) + offset


def _compositions(total: int, minima: tuple[int, ...]):
    """All tuples of ``len(minima)`` integers, each at least its minimum,
    summing to ``total``, in lexicographic order; lazily beyond two parts, so
    memory stays linear in ``total``."""
    if len(minima) == 2:
        return [(k, total - k) for k in range(minima[0], total - minima[1] + 1)]
    if len(minima) == 1:
        return [(total,)] if total >= minima[0] else []
    if not minima:
        return [()] if total == 0 else []
    return ((k,) + rest for k in range(minima[0], total - sum(minima[1:]) + 1)
            for rest in _compositions(total - k, minima[1:]))


def _specs(tag: str, n: int, nrels: int) -> list[FamilySpec]:
    """Every valid spec of ``tag`` whose quiver has ``n`` vertices and
    ``nrels`` relations.

    The size parameters run over the compositions of ``n`` less the offset,
    the relation-only parameters over those of the relations left, and the
    inequalities of ``check_spec`` keep the valid specs.
    """
    size, offset, rels, roffset = _SHAPE[tag]
    free = [i for i in rels if i not in size]
    shared = [i for i in rels if i in size]
    params = [0] * _PARAM_COUNT[tag]
    out = []
    for part in _compositions(n - offset, (0,) * len(size)):
        for i, x in zip(size, part):
            params[i] = x
        left = nrels - roffset - sum([params[i] for i in shared])
        for rest in _compositions(left, (0,) * len(free)):
            for i, x in zip(free, rest):
                params[i] = x
            if _failed_inequality(tag, params) is None:
                out.append(FamilySpec(tag, tuple(params)))
    return out


@functools.lru_cache(maxsize=64)
def _recognize_table(n: int, a: int, r: int) -> dict[tuple, FamilySpec]:
    """Canonical code -> least spec, over every spec of this size."""
    table: dict[tuple, FamilySpec] = {}
    if a != n + 1:
        return table
    for tag in FAMILY_TAGS:
        for sp in _specs(tag, n, r):
            q = _family_ints(sp)
            code = _code(q.n, q.ends, q.rels)
            if code not in table or sp < table[code]:
                table[code] = sp
    return table


def recognize(bq: BoundQuiver) -> FamilySpec | None:
    """The least family spec isomorphic to the given quiver, if any; the
    quiver must be valid."""
    require_valid(bq)
    code = _canonical_code(bq)
    return _recognize_table(len(bq.vertices), len(bq.arrows), len(bq.relations)).get(code)


def phi_formula(sp: FamilySpec) -> Phi:
    """Closed form of the derived invariant for the four classified families."""
    check_spec(sp)
    return _phi_closed_form(sp)


def _phi_closed_form(sp: FamilySpec) -> Phi:
    """``phi_formula`` of a spec that has passed ``check_spec``."""
    p = sp.params
    if sp.tag == "L0":
        pp, _r = p
        return Phi.from_types([(pp, pp + 2)])
    if sp.tag == "L0p":
        pp, r = p
        if r != 0:
            raise OutOfLemmaScope("closed form covers %s only at r = 0" % sp.tag)
        return Phi.from_types([(pp + 1, pp + 3)])
    if sp.tag == "L1":
        p1, p2, p3, p4, r1 = p
        return Phi.from_types([
            (p1 - r1 - 1, p1 + p2),
            (p2 + p3 - 1, p3),
            (r1 + p4, p4),
        ])
    if sp.tag == "L2":
        p1, p2, p3, r1, r2 = p
        return Phi.from_types([
            (p1 - r1 - 1, p1),
            (p2 - r2 - 1, p2),
            (r1 + r2 + p3, p3),
        ])
    raise OutOfLemmaScope("no closed form for %s" % sp.tag)


def _closed_form_specs(bound: int):
    """The valid L0, L0p (at r = 0), L1 and L2 specs whose parameters sum to
    at most ``bound``, sorted and distinct: the closed-form sweep and
    ``theorem_list`` read them.  The loop bounds are the inequalities of
    ``check_spec``, so no spec is tested here."""
    for pp in range(1, bound + 1):
        for r in range(0, min(pp, bound - pp + 1)):
            yield spec("L0", pp, r)
    for pp in range(1, bound + 1):
        yield spec("L0p", pp, 0)
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound - p1 + 1):
            for p3 in range(max(0, 2 - p2), bound - p1 - p2 + 1):  # p2 + p3 >= 2
                for p4 in range(0, bound - p1 - p2 - p3 + 1):
                    # p4 + r1 >= 1
                    for r1 in range(0 if p4 else 1, min(p1, bound - p1 - p2 - p3 - p4 + 1)):
                        yield FamilySpec("L1", (p1, p2, p3, p4, r1))
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound - p1 + 1):
            for p3 in range(0, bound - p1 - p2 + 1):
                for r1 in range(0, min(p1, bound - p1 - p2 - p3 + 1)):
                    # p3 + r1 + r2 >= 1
                    for r2 in range(0 if p3 + r1 else 1, min(p2, bound - p1 - p2 - p3 - r1 + 1)):
                        yield FamilySpec("L2", (p1, p2, p3, r1, r2))


def _tie_break(sp: FamilySpec) -> bool:
    """Whether ``sp`` is the one the classification lists of its pair: an L1
    spec and its mixed-cycle flip, an L2 spec and its cycle swap."""
    if sp.tag == "L1":
        _p1, p2, p3, p4, r1 = sp.params
        return (p3, p2) > (p4, r1)
    if sp.tag == "L2":
        p1, p2, _p3, r1, r2 = sp.params
        return (p1, r1) >= (p2, r2)
    return True


def theorem_list(max_vertices: int) -> list[FamilySpec]:
    """Every canonical-list spec whose quiver has at most the given size.

    These are the closed-form specs that meet the classification's
    tie-breaks, so that no two listed specs are equivalent; the degenerate
    entries are the double-arrow families, the primed one at r = 0.  Each
    r is below the length of the cycle it sits on, so the parameters of a
    spec with at most ``max_vertices`` vertices sum to at most twice that.
    """
    if max_vertices < 2:
        raise ValueError("max_vertices must be at least 2")
    return [sp for sp in _closed_form_specs(2 * max_vertices)
            if family_size(sp) <= max_vertices and _tie_break(sp)]
