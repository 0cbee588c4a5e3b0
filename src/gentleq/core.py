"""Bound quivers with quadratic monomial relations.

A quiver is a finite directed multigraph (loops and parallel arrows allowed)
with named vertices and arrows.  A bound quiver adds a set of relations, each
an ordered pair of arrows ``(first, second)`` standing for the length-two
composite "second, then first"; composability means
``source(first) == target(second)``.

This module holds the data model, the line-oriented text format, the
gentleness/finiteness validator, and isomorphism testing via canonical
labeling.  Everything is immutable and every operation is a pure function.
Names live at the edges: the package reads a bound quiver on indices, as
one record ``_Ints`` of arrow ends, relations and the arrows out of and into
each vertex, and attaches names only to what it returns.  A bound quiver is
checked and put on its record in one pass when it is made; it computes its
``validate`` result per flag and its canonical code once, on first use, and
keeps them in a memo that is not part of ``==``, ``hash``, ``repr`` or its
pickled state.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

__all__ = [
    "BoundQuiver",
    "Violation",
    "QuiverError",
    "QuiverSyntaxError",
    "parse",
    "serialize",
    "validate",
    "require_valid",
    "is_isomorphic",
]

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


class QuiverError(Exception):
    """Base class for all errors raised by this package."""


class QuiverSyntaxError(QuiverError):
    """Malformed quiver text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class InvalidQuiverError(QuiverError):
    """A gentleness/finiteness precondition failed; carries the violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "not a valid bound quiver: "
            + "; ".join(v.condition + " " + v.witness for v in self.violations)
        )


def _check_id(token: str, what: str) -> None:
    if not _ID_RE.match(token):
        raise ValueError("invalid %s identifier %r" % (what, token))


class _Ints:
    """A bound quiver on indices: vertex count ``n``, the ``(source, target)``
    of each arrow, the relations as ``(first, second)`` arrow positions, the
    arrows out of and into each vertex (unless given as ``adjacency``) and,
    once asked for, the opposite quiver's record."""

    __slots__ = ("n", "ends", "rels", "outs", "ins", "_op")

    def __init__(self, n: int, ends, rels, adjacency=None):
        self.n, self.ends, self.rels = n, ends, rels
        if adjacency is None:
            outs, ins = [[] for _ in range(n)], [[] for _ in range(n)]
            for k, (s, t) in enumerate(ends):
                outs[s].append(k)
                ins[t].append(k)
            adjacency = outs, ins
        self.outs, self.ins = adjacency
        self._op = None

    def opposite(self) -> "_Ints":
        if self._op is None:
            # reversing every arrow swaps the arrows out of and into a vertex
            self._op = _Ints(self.n, *_reverse(self.ends, self.rels), (self.ins, self.outs))
        return self._op

    def __reduce__(self):
        return _Ints, (self.n, self.ends, self.rels)


def _reverse(ends, rels):
    """The ``(ends, rels)`` of the opposite quiver."""
    return [(t, s) for s, t in ends], {(s, f) for f, s in rels}


class _Memo:
    """What a bound quiver computes about itself once it is used: the
    ``validate`` result per ``require_connected`` flag and the canonical
    code."""

    __slots__ = ("violations", "code")

    def __init__(self, code=None):
        self.violations: dict[bool, tuple] = {}
        self.code = code


@dataclass(frozen=True)
class BoundQuiver:
    """Vertices, arrows ``(arrow id, source, target)`` and length-two
    monomial relations ``(first arrow, second arrow)``.

    Making one checks the vertices, then the arrows, then the name, then the
    relations, and keeps what it checked as its record ``_ints``.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    relations: frozenset[tuple[str, str]]
    name: str = field(default="q", compare=False)
    _ints: _Ints | None = field(default=None, init=False, repr=False, compare=False)
    _memo: _Memo | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vpos: dict[str, int] = {}
        for v in self.vertices:
            _check_id(v, "vertex")
            if v in vpos:
                raise ValueError("duplicate vertex id %r" % v)
            vpos[v] = len(vpos)
        apos: dict[str, int] = {}
        ends = []
        for a, s, t in self.arrows:
            _check_id(a, "arrow")
            if a in apos:
                raise ValueError("duplicate arrow id %r" % a)
            if s not in vpos or t not in vpos:
                raise ValueError("arrow %r references unknown vertex" % a)
            apos[a] = len(ends)
            ends.append((vpos[s], vpos[t]))
        _check_id(self.name, "quiver name")
        rels = []
        for first, second in self.relations:
            if first not in apos or second not in apos:
                raise ValueError("relation references unknown arrow (%s, %s)" % (first, second))
            f, s = apos[first], apos[second]
            if ends[f][0] != ends[s][1]:
                raise ValueError(
                    "relation (%s, %s) not composable: source(%s)=%s but target(%s)=%s"
                    % (first, second, first, self.arrows[f][1], second, self.arrows[s][2])
                )
            rels.append((f, s))
        object.__setattr__(self, "_ints", _Ints(len(vpos), tuple(ends), frozenset(rels)))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_memo", None)  # an unpickled copy falls back to the class default
        return state


def _memo_of(bq: BoundQuiver) -> _Memo:
    """The memo of ``bq``, made on first use."""
    memo = bq._memo
    if memo is None:
        memo = _Memo()
        object.__setattr__(bq, "_memo", memo)
    return memo


def make_bound_quiver(vertices, arrows, relations, name="q") -> BoundQuiver:
    """Convenience constructor from plain iterables."""
    return BoundQuiver(
        tuple(vertices),
        tuple((a, s, t) for a, s, t in arrows),
        frozenset((f, s) for f, s in relations),
        name,
    )


# ---------------------------------------------------------------------------
# text format


def parse(text: str) -> BoundQuiver:
    """Parse the line-oriented quiver format.

    Grammar (one block per file, ``#`` starts a comment, blank lines ignored)::

        quiver <name>
        vertex <id>
        arrow <id> <source-vertex> <target-vertex>
        rel <first-arrow> <second-arrow>
        end
    """
    name = None
    ended = False
    vertices: list[str] = []
    vset: set[str] = set()
    arrows: dict[str, tuple[str, str, str]] = {}  # id -> (id, source, target), in listed order
    relations: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        kw, args = words[0], words[1:]
        if ended:
            raise QuiverSyntaxError("content after 'end'", lineno)
        if kw == "quiver":
            if name is not None:
                raise QuiverSyntaxError("duplicate 'quiver' line", lineno)
            if len(args) != 1:
                raise QuiverSyntaxError("'quiver' takes one name", lineno)
            if not _ID_RE.match(args[0]):
                raise QuiverSyntaxError("invalid name %r" % args[0], lineno)
            name = args[0]
            continue
        if name is None:
            raise QuiverSyntaxError("expected 'quiver <name>' first", lineno)
        if kw == "vertex":
            if len(args) != 1:
                raise QuiverSyntaxError("'vertex' takes one id", lineno)
            if not _ID_RE.match(args[0]):
                raise QuiverSyntaxError("invalid vertex id %r" % args[0], lineno)
            if args[0] in vset:
                raise QuiverSyntaxError("duplicate vertex id %r" % args[0], lineno)
            vset.add(args[0])
            vertices.append(args[0])
        elif kw == "arrow":
            if len(args) != 3:
                raise QuiverSyntaxError("'arrow' takes id, source, target", lineno)
            a, s, t = args
            for tok in args:
                if not _ID_RE.match(tok):
                    raise QuiverSyntaxError("invalid identifier %r" % tok, lineno)
            if a in arrows:
                raise QuiverSyntaxError("duplicate arrow id %r" % a, lineno)
            if s not in vset:
                raise QuiverSyntaxError("unknown source vertex %r" % s, lineno)
            if t not in vset:
                raise QuiverSyntaxError("unknown target vertex %r" % t, lineno)
            arrows[a] = (a, s, t)
        elif kw == "rel":
            if len(args) != 2:
                raise QuiverSyntaxError("'rel' takes two arrow ids", lineno)
            f, s2 = args
            if f not in arrows:
                raise QuiverSyntaxError("unknown arrow %r" % f, lineno)
            if s2 not in arrows:
                raise QuiverSyntaxError("unknown arrow %r" % s2, lineno)
            if arrows[f][1] != arrows[s2][2]:
                raise QuiverSyntaxError(
                    "relation (%s, %s) not composable: target of %s is %s, source of %s is %s"
                    % (f, s2, s2, arrows[s2][2], f, arrows[f][1]),
                    lineno,
                )
            if (f, s2) in relations:
                raise QuiverSyntaxError("duplicate relation (%s, %s)" % (f, s2), lineno)
            relations.add((f, s2))
        elif kw == "end":
            if args:
                raise QuiverSyntaxError("'end' takes no arguments", lineno)
            ended = True
        else:
            raise QuiverSyntaxError("unknown directive %r" % kw, lineno)

    if name is None:
        raise QuiverSyntaxError("missing 'quiver <name>' header")
    if not ended:
        raise QuiverSyntaxError("missing 'end'")
    return BoundQuiver(tuple(vertices), tuple(arrows.values()), frozenset(relations), name)


def serialize(bq: BoundQuiver) -> str:
    """Deterministic text form: sections in fixed order, lines sorted."""
    lines = ["quiver %s" % bq.name]
    lines += ["vertex %s" % v for v in sorted(bq.vertices)]
    lines += ["arrow %s %s %s" % (a, s, t) for a, s, t in sorted(bq.arrows)]
    lines += ["rel %s %s" % (f, s) for f, s in sorted(bq.relations)]
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    condition: str  # G1 | G3 | G4 | FIN | CONN
    witness: str


def _first_cycle(succ, order) -> list[int] | None:
    """The first cycle a depth-first search meets in the graph ``succ``
    (node -> successor list) that starts from the nodes in ``order``, or
    None."""
    state = [0] * len(succ)  # 0 unseen, 1 on the search path, 2 done
    for start in order:
        if state[start]:
            continue
        state[start] = 1
        path, todo = [start], [iter(succ[start])]
        while todo:
            for b in todo[-1]:
                if state[b] == 1:
                    return path[path.index(b):]
                if not state[b]:
                    state[b] = 1
                    path.append(b)
                    todo.append(iter(succ[b]))
                    break
            else:
                state[path.pop()] = 2
                todo.pop()
    return None


def validate(bq: BoundQuiver, require_connected: bool = False) -> tuple[Violation, ...]:
    """Check gentleness and finite-dimensionality; empty result means valid.

    G1: every vertex has at most two outgoing and two incoming arrows.
    G3: every arrow has at most one composable continuation (either side)
        avoiding the relations.
    G4: ... and at most one hitting a relation.
    FIN: no oriented cycle of arrows avoiding the relations at every
        cyclically consecutive pair (otherwise arbitrarily long nonzero paths
        would exist).
    CONN (optional): underlying graph connected.

    Vertices are checked in their listed order and arrows in the order of
    their ids.  The FIN witness is the first cycle of a depth-first search
    that starts from the arrows in id order and takes the continuations of
    each arrow in listed order.

    The result is computed once per quiver object and flag; the witnesses
    are searched for only when the integer check ``_valid`` (or
    connectivity) fails.
    """
    verdicts = _memo_of(bq).violations
    if require_connected not in verdicts:
        q = bq._ints
        # the connected check reuses a plain verdict already found
        valid = verdicts[False] == () if False in verdicts else _valid(q)
        if valid and (not require_connected or _arcs_connected(q.n, q.ends)):
            verdicts[require_connected] = ()
        else:
            verdicts[require_connected] = _witnesses(bq, require_connected)
    return verdicts[require_connected]


def _witnesses(bq: BoundQuiver, require_connected: bool) -> tuple[Violation, ...]:
    """The named violations of ``validate``, in its order."""
    q = bq._ints
    ends, rels, outs, ins = q.ends, q.rels, q.outs, q.ins
    ids = [a for a, _s, _t in bq.arrows]
    out: list[Violation] = []
    for v, o, i in zip(bq.vertices, outs, ins):
        if len(o) > 2:
            out.append(Violation("G1", "vertex %s has %d outgoing arrows" % (v, len(o))))
        if len(i) > 2:
            out.append(Violation("G1", "vertex %s has %d incoming arrows" % (v, len(i))))
    succ = [[b for b in outs[t] if (b, a) not in rels] for a, (_s, t) in enumerate(ends)]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    for a in order:
        s, t = ends[a]
        if len(ins[s]) < 2 and len(outs[t]) < 2:
            continue  # every side list below is shorter still
        for condition, side, arrows in (
                ("G3", "free predecessors", [b for b in ins[s] if (a, b) not in rels]),
                ("G3", "free successors", succ[a]),
                ("G4", "relation predecessors", [b for b in ins[s] if (a, b) in rels]),
                ("G4", "relation successors", [b for b in outs[t] if (b, a) in rels])):
            if len(arrows) > 1:
                names = ",".join(sorted([ids[b] for b in arrows]))
                out.append(Violation(condition, "arrow %s has %s %s" % (ids[a], side, names)))
    cycle = _first_cycle(succ, order)
    if cycle is not None:
        out.append(Violation("FIN", "relation-avoiding cycle %s" % ",".join([ids[a] for a in cycle])))
    if require_connected and not _arcs_connected(q.n, ends):
        out.append(Violation("CONN", "underlying graph is disconnected"))
    return tuple(out)


def require_valid(bq: BoundQuiver, require_connected: bool = False) -> None:
    violations = validate(bq, require_connected)
    if violations:
        raise InvalidQuiverError(violations)


def _valid(q: _Ints) -> bool:
    """Whether a bound quiver on indices meets G1, G3, G4 and FIN.

    This is ``not validate(...)`` without its witnesses, for the quivers the
    package builds for itself.
    """
    ends, rels = q.ends, q.rels
    succ = [-1] * len(ends)  # the relation-free successor of each arrow
    for o, i in zip(q.outs, q.ins):
        if len(o) > 2 or len(i) > 2:
            return False
        # G3 and G4: of two arrows on one side of the vertex, each arrow on
        # the other side is related to exactly one
        if len(o) == 1:
            b = o[0]
            for a in i:
                if (b, a) not in rels:
                    succ[a] = b
        elif len(o) == 2:
            b, c = o
            for a in i:
                related = (b, a) in rels
                if related == ((c, a) in rels):
                    return False
                succ[a] = c if related else b
        if len(i) == 2:
            a, c = i
            for b in o:
                if ((b, a) in rels) == ((b, c) in rels):
                    return False
    # FIN: with one successor per arrow, a relation-avoiding cycle is a walk
    # along successors that comes back to an arrow of the walk itself
    state = [0] * len(ends)  # 0 unseen, 1 on the current walk, 2 done
    for a in range(len(ends)):
        walk = []
        while a >= 0 and not state[a]:
            state[a] = 1
            walk.append(a)
            a = succ[a]
        if a >= 0 and state[a] == 1:
            return False
        for b in walk:
            state[b] = 2
    return True


def _arcs_connected(n: int, arcs) -> bool:
    """Weak connectivity of the arc multiset on vertices 0..n-1 (true for
    n = 0), by union-find with path halving."""
    root = list(range(n))
    parts = n
    for s, t in arcs:
        while root[s] != s:
            root[s] = s = root[root[s]]
        while root[t] != t:
            root[t] = t = root[root[t]]
        if s != t:
            root[s] = t
            parts -= 1
    return parts <= 1


# ---------------------------------------------------------------------------
# canonical labeling


@functools.lru_cache(maxsize=None)
def _name(prefix: str, i: int) -> str:
    """The name ``prefix<i>``, one shared string for every canonical form."""
    return "%s%d" % (prefix, i)


def _rank(items: list) -> tuple[list[int], int]:
    """Dense order-preserving ranks of ``items`` and the number of ranks."""
    table = {x: r for r, x in enumerate(sorted(set(items)))}
    return [table[x] for x in items], len(table)


def _min_candidate(ends, rels, newpos, best):
    """The least ``(base, rels)`` under the vertex renumbering ``newpos``, or
    ``best`` when that is smaller.

    Both parts are sorted lists of pairs coded as integers, which compare as
    the pairs do: ``base`` holds the arrow ends ``s * n + t`` and ``rels`` the
    arrow positions ``first * m + second``.  Parallel arrows are
    interchangeable a priori, so with relations present every ordering of
    each bundle of two or more parallel arrows is tried.
    """
    n, m = len(newpos), len(ends)
    keyed = sorted([(newpos[s] * n + newpos[t]) * m + k for k, (s, t) in enumerate(ends)])
    base = [c // m for c in keyed]
    if best is not None and base > best[0]:
        return best
    if not rels:
        return (base, [])
    apos = [0] * m
    bundles = []
    p = 0
    while p < m:
        q = p + 1
        while q < m and base[q] == base[p]:
            q += 1
        if q == p + 1:
            apos[keyed[p] % m] = p
        else:
            bundles.append((range(p, q), [c % m for c in keyed[p:q]]))
        p = q
    for combo in itertools.product(*[itertools.permutations(b) for _r, b in bundles]):
        for (positions, _b), perm in zip(bundles, combo):
            for p, k in zip(positions, perm):
                apos[k] = p
        cand = (base, sorted([apos[f] * m + apos[s] for f, s in rels]))
        if best is None or cand < best:
            best = cand
    return best


def _code(n: int, ends, rels) -> tuple:
    """The canonical code of a bound quiver on vertices 0..n-1.

    ``ends`` lists the ``(source, target)`` of each arrow and ``rels`` the
    ``(first, second)`` arrow positions of each relation.  The code is
    ``(n, base, rels)`` of the least relabeling, in the integer coding of
    ``_min_candidate``; two bound quivers are isomorphic exactly when their
    codes are equal.  Vertices are colored by (out, in, loops, junction)
    degree and the colors refined by the sorted colors of out- and
    in-neighbors until the number of colors stops growing.  Minimization runs
    over the color-respecting vertex orderings (one, when every color is a
    single vertex) and, within each parallel-arrow bundle, over the arrow
    orderings.
    """
    out_n = [[] for _ in range(n)]
    in_n = [[] for _ in range(n)]
    loops = [0] * n
    for i, j in ends:
        out_n[i].append(j)
        in_n[j].append(i)
        if i == j:
            loops[i] += 1
    junction = [0] * n
    for f, _s in rels:
        junction[ends[f][0]] += 1
    colors, count = _rank(
        [(len(out_n[i]), len(in_n[i]), loops[i], junction[i]) for i in range(n)]
    )
    while count < n:
        new, new_count = _rank([
            (colors[i], tuple(sorted([colors[j] for j in out_n[i]])),
             tuple(sorted([colors[j] for j in in_n[i]])))
            for i in range(n)
        ])
        if new_count == count:
            break
        colors, count = new, new_count
    if count == n:
        best = _min_candidate(ends, rels, colors, None)
    else:
        cells: list[list[int]] = [[] for _ in range(count)]
        for i in range(n):
            cells[colors[i]].append(i)
        best = None
        newpos = [0] * n
        for combo in itertools.product(*[itertools.permutations(c) for c in cells]):
            for p, i in enumerate(itertools.chain.from_iterable(combo)):
                newpos[i] = p
            best = _min_candidate(ends, rels, newpos, best)
    return (n, tuple(best[0]), tuple(best[1]))


def _decode(code: tuple) -> _Ints:
    """The record of the canonical form a code stands for."""
    n, base, rels = code
    m = len(base)
    return _Ints(n, [divmod(c, n) for c in base], {divmod(c, m) for c in rels})


def _canonical_code(bq: BoundQuiver) -> tuple:
    """The canonical code of ``bq``: its names mapped to indices, then
    ``_code``; computed once per quiver object."""
    memo = _memo_of(bq)
    if memo.code is None:
        q = bq._ints
        memo.code = _code(q.n, q.ends, q.rels)
    return memo.code


def _form(code: tuple) -> BoundQuiver:
    """The canonical form a code stands for, on ``v<i>`` / ``a<k>`` names.

    The form is its own canonical labeling, so its memo starts with ``code``.
    """
    n, base, rels = code
    m = len(base)
    vn = tuple([_name("v", i) for i in range(n)])
    an = [_name("a", k) for k in range(m)]
    form = BoundQuiver(
        vn,
        tuple([(an[k], vn[c // n], vn[c % n]) for k, c in enumerate(base)]),
        frozenset([(an[c // m], an[c % m]) for c in rels]),
        "c",
    )
    object.__setattr__(form, "_memo", _Memo(code))
    return form


def _compact(code: tuple) -> str:
    """The one-line text of a code: vertex count, arcs, relations."""
    n, base, rels = code
    m = len(base)
    arcs = ",".join("%d-%d" % divmod(c, n) for c in base)
    pairs = ",".join(sorted("%d.%d" % divmod(c, m) for c in rels))
    return "%d;%s;%s" % (n, arcs, pairs)


@functools.lru_cache(maxsize=None)
def _decimal_order(m: int) -> tuple[list[int], list[int]]:
    """0..m-1 in the order of their decimal names, and the rank of each
    number in that order."""
    order = sorted(range(m), key=str)
    rank = [0] * m
    for r, k in enumerate(order):
        rank[k] = r
    return order, rank


def _serial_key(code: tuple) -> tuple:
    """A sort key that orders the codes of one size as ``serialize`` orders
    their forms.

    Those texts share the header and the vertex lines, and their arrows have
    the same names.  Arrow lines sort by the name ``a<k>``, so by k in
    decimal-string order, and then by the decimal names of the ends; relation
    lines sort by the decimal names of their arrows, and a relation list that
    begins another sorts first in both orders (``end`` before ``rel``).  Each
    decimal name is compared through its rank in ``_decimal_order``, and a
    pair of ranks below ``r`` as the number ``first * r + second``.
    """
    n, base, rels = code
    m = len(base)
    vertex = _decimal_order(n)[1]
    order, arrow = _decimal_order(m)
    return ([vertex[base[k] // n] * n + vertex[base[k] % n] for k in order],
            sorted([arrow[c // m] * m + arrow[c % m] for c in rels]))


def compact_key(bq: BoundQuiver) -> str:
    """One-line isomorphism invariant, for report lines and logs."""
    return _compact(_canonical_code(bq))


def is_isomorphic(a: BoundQuiver, b: BoundQuiver) -> bool:
    return _canonical_code(a) == _canonical_code(b)
