import errno
import importlib
import os
import random

import pytest

from gentleq.core import (
    QuiverError,
    _canonical_code,
    _code,
    _compact,
    _decode,
    _form,
    parse,
    serialize,
)
from gentleq.families import FamilySpec, build_family, family_size, spec, theorem_list
from gentleq.moves import MoveKind
from gentleq.orbit import (
    DEFAULT_MAX_STATES,
    BoundExceeded,
    SizeClass,
    NoCanonicalHit,
    StateLimitExceeded,
    _check_inverse_edges,
    _closed,
    _closed_form_specs,
    _degree_sequences,
    _enumerate_cached,
    _fill,
    _junction_choices,
    _orbit_partition,
    _pmap,
    _usable_cpus,
    _sized_specs,
    check_closed_form,
    enumerate_classes,
    normalize,
    orbit,
    theorem_key_table,
    verify_completeness,
    verify_lemma_tables,
    verify_minimality,
)

from oracle_helpers import (
    _arc_multisets,
    canonical_key,
    naive_enumerate,
    opposite,
    oracle_closed_form_specs,
    oracle_enumerate,
    oracle_junction_choices,
    oracle_normalize,
    oracle_orbit,
    oracle_orbit_of_key,
    oracle_orbit_partition,
    oracle_shapes,
    oracle_specs,
    random_relabel,
    shapes_of_size,
)


class TestEnumerate:
    def test_one_vertex_two_loops_empty(self):
        assert enumerate_classes(SizeClass(1, 2), two_cycle=True) == []

    def test_two_vertices(self, two_cycle_classes):
        classes = two_cycle_classes(2)
        keys = {canonical_key(c) for c in classes}
        assert canonical_key(build_family(spec("L0", 1, 0))) in keys
        assert canonical_key(build_family(spec("L2", 1, 1, 1, 0, 0))) in keys
        assert len(classes) == 3

    def test_outputs_validate_two_cycle(self, two_cycle_classes):
        from gentleq.core import validate
        from oracle_helpers import cycle_rank
        for bq in two_cycle_classes(3):
            assert validate(bq, require_connected=True) == ()
            assert cycle_rank(bq) == 2

    def test_matches_naive_oracle(self, two_cycle_classes):
        for n in (2, 3):
            got = {canonical_key(c) for c in two_cycle_classes(n)}
            want = set(naive_enumerate(n, n + 1, two_cycle=True))
            assert got == want

    def test_non_two_cycle_sizes(self):
        # one-cycle quivers at (2, 2)
        classes = enumerate_classes(SizeClass(2, 2))
        assert classes
        assert all(len(c.arrows) == 2 for c in classes)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_classes(SizeClass(9, 10), two_cycle=True)
        with pytest.raises(BoundExceeded):
            _orbit_partition.__wrapped__(9)

    def test_one_cache_entry_per_size(self):
        # enumerate_classes and the orbit partition share the class cache,
        # with or without the two-cycle filter
        _enumerate_cached.cache_clear()
        enumerate_classes(SizeClass(3, 4), two_cycle=True)
        _orbit_partition.__wrapped__(3)
        enumerate_classes(SizeClass(3, 4), two_cycle=False)
        info = _enumerate_cached.cache_info()
        assert (info.currsize, info.hits) == (1, 2)

    def test_orbit_names_the_submodule(self):
        import gentleq.orbit as module

        assert module is importlib.import_module("gentleq.orbit")
        assert callable(module.orbit)

    def test_one_serial_key_per_class(self, monkeypatch):
        # the degree-sequence shares come back unsorted; the merged codes
        # are sorted once
        orbit_module = importlib.import_module("gentleq.orbit")
        real = orbit_module._serial_key
        calls = []
        monkeypatch.setattr(orbit_module, "_serial_key",
                            lambda code: calls.append(1) or real(code))
        codes = _enumerate_cached.__wrapped__(SizeClass(5, 6), 1)
        assert len(codes) == len(calls) == 2600
        assert list(codes) == sorted(codes, key=real)

    def test_deterministic_order(self, two_cycle_classes):
        classes = two_cycle_classes(3)
        keys = [canonical_key(c) for c in classes]
        assert keys == sorted(keys)


ORACLE_SIZES = [(n, a) for n in range(1, 5) for a in range(2 * n + 1)] + [(5, 6)]


class TestEnumeratorOracle:
    """The degree-sorted shape stage against canonicalizing every labeling."""

    @pytest.mark.parametrize("n,a", ORACLE_SIZES)
    def test_matches_all_labelings(self, n, a):
        assert sorted(shapes_of_size(n, a)) == \
            sorted(_canonical_code(s) for s in oracle_shapes(n, a).values())
        for two_cycle in (False, True):
            got = [serialize(c) for c in enumerate_classes(SizeClass(n, a), two_cycle)]
            want = [serialize(c) for c in oracle_enumerate(n, a, two_cycle)]
            assert got == want


FILL_SIZES = [(n, a) for n in range(1, 6) for a in range(2 * n + 1)] + [(6, 7)]


class TestDegreeFill:
    """The degree-sequence fill against the cell-by-cell search it replaced."""

    @pytest.mark.parametrize("n,a", FILL_SIZES)
    def test_matches_cell_search(self, n, a):
        got = []
        for seq in _degree_sequences(n, a):
            assert list(seq) == sorted(seq)
            for arcs in _fill(seq):
                degrees = [[sum(s == v for s, _t in arcs), sum(t == v for _s, t in arcs),
                            arcs.count((v, v))] for v in range(n)]
                assert degrees == [list(d) for d in seq]
                got.append(arcs)
        assert len(set(got)) == len(got)
        assert set(got) == set(_arc_multisets(n, a))


class TestJunctionChoices:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_subset_search(self, n):
        # every shape with n vertices at every arrow count, loops included
        count = 0
        for a in range(2 * n + 1):
            for code in shapes_of_size(n, a):
                shape = _form(code)
                names = [k for k, _s, _t in shape.arrows]
                got = [{frozenset((names[f], names[s]) for f, s in choice) for choice in c}
                       for c in _junction_choices(_decode(code))]
                want = [set(c) for c in oracle_junction_choices(shape)]
                assert got == want, code
                count += 1
        assert count == {1: 3, 2: 10, 3: 52, 4: 352, 5: 3014}[n]


class TestPmap:
    def test_forks_capped_at_usable_cpus(self, forks, usable_cpus):
        usable_cpus(3)
        assert _pmap(abs, range(-100, 0), 1000) == list(range(100, 0, -1))
        assert len(forks) == 2  # three processes: the parent and two children
        assert _pmap(abs, range(100), 2) == list(range(100))
        assert len(forks) == 3
        assert _pmap(abs, range(100), 1) == list(range(100))
        assert _pmap(abs, range(63), 3) == list(range(63))
        assert len(forks) == 3

    def test_results_in_item_order(self, usable_cpus):
        usable_cpus(2)
        parent = os.getpid()
        got = _pmap(lambda x: (x * x, os.getpid()), range(200), 2)
        assert [sq for sq, _pid in got] == [x * x for x in range(200)]
        # share 0 is the parent's, share 1 a child's
        assert {pid for _sq, pid in got[::2]} == {parent}
        assert parent not in {pid for _sq, pid in got[1::2]}

    @staticmethod
    def fail_at(bad: int):
        def fn(x):
            if x == bad:
                raise ValueError("item %d is bad" % x)
            return x
        return fn

    def test_worker_exception_surfaces(self, forks, usable_cpus):
        usable_cpus(2)
        # item 65 is in share 1, the child's
        with pytest.raises(ValueError, match=r"^item 65 is bad$"):
            _pmap(self.fail_at(65), range(100), 2)
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parent_exception_leaves_no_child(self, forks, usable_cpus):
        usable_cpus(2)
        # item 64 is in share 0, the parent's; the child is still writing
        # its share of large results
        def fn(x):
            if x == 64:
                raise ValueError("item 64 is bad")
            return "x" * 10_000
        with pytest.raises(ValueError, match=r"^item 64 is bad$"):
            _pmap(fn, range(100), 2)
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_serial_without_fork(self, monkeypatch, usable_cpus):
        usable_cpus(2)
        monkeypatch.delattr(os, "fork")
        parent = os.getpid()
        assert _pmap(lambda x: (x, os.getpid()), range(100), 2) == \
            [(x, parent) for x in range(100)]

    def test_failed_fork_share_computed_in_parent(self, monkeypatch, usable_cpus):
        usable_cpus(3)
        real = os.fork
        calls = []

        def fork():  # the second fork fails: share 2 stays with the parent
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        parent = os.getpid()
        got = _pmap(lambda x: (x, os.getpid()), range(100), 3)
        assert [x for x, _pid in got] == list(range(100))
        assert len(calls) == 2
        assert {pid for _x, pid in got[0::3] + got[2::3]} == {parent}
        assert parent not in {pid for _x, pid in got[1::3]}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_serial_takes_items_one_at_a_time(self, usable_cpus):
        usable_cpus(2)
        events = []

        def items():
            for k in range(100):
                events.append(("yield", k))
                yield k

        assert _pmap(lambda x: events.append(("fn", x)) or x, items(), 1) == list(range(100))
        assert events == [e for k in range(100) for e in (("yield", k), ("fn", k))]

    def test_usable_cpus(self, monkeypatch, forks, usable_cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        usable_cpus(1)
        assert _usable_cpus() == 1
        assert _pmap(abs, range(100), 8) == list(range(100))
        assert forks == []
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1


class TestOrbit:
    def test_reflexive_and_closed(self):
        bq = build_family(spec("L0", 1, 0))
        res = orbit(bq)
        assert canonical_key(bq) in res.component
        assert res.complete
        # closure: rerunning from any member reproduces the component
        for key in sorted(res.component):
            again = orbit(parse(key))
            assert again.component == res.component

    def test_extension_lemma_membership(self):
        # the primed double-arrow family reaches the plain one
        res = orbit(build_family(spec("L0p", 2, 1)))
        assert canonical_key(build_family(spec("L0", 3, 0))) in res.component

    def test_cycle_swap_membership(self):
        res = orbit(build_family(spec("L2", 1, 2, 0, 0, 1)))
        assert canonical_key(build_family(spec("L2", 2, 1, 0, 1, 0))) in res.component

    def test_edges_have_inverse_reflections(self):
        res = orbit(build_family(spec("L0", 2, 0)))
        edges = set((k1, mv.kind, k2) for k1, mv, k2 in res.edges)
        back_kinds = {MoveKind.APR_COREFLECT, MoveKind.GEN_APR_COREFLECT}
        for k1, kind, k2 in edges:
            if kind is MoveKind.APR_REFLECT:
                assert any((k2, b, k1) in edges for b in back_kinds)

    def test_state_cap(self):
        bq = build_family(spec("L0", 3, 0))
        res = orbit(bq, max_states=2)
        assert not res.complete
        assert len(res.component) == 2

    def test_hits_recorded(self):
        bq = build_family(spec("L0", 1, 0))
        res = orbit(bq)
        assert (canonical_key(bq), spec("L0", 1, 0)) in res.canonical_hits

    def test_edges_replay(self):
        from gentleq.moves import apply_move
        res = orbit(build_family(spec("L0", 2, 1)))
        assert res.edges
        for k1, mv, k2 in res.edges:
            out, moves = apply_move(parse(k1), mv)
            assert moves == (mv,)
            assert canonical_key(parse(k1)) == k1
            assert canonical_key(out) == k2


class TestNormalize:
    def test_already_canonical(self):
        assert normalize(build_family(spec("L0", 2, 1))) == spec("L0", 2, 1)

    def test_five_parameter_minimal(self):
        bq = build_family(spec("L2pFive", 1, 2, 1, 0, 1))
        got = normalize(bq)
        assert got.tag == "L2"
        # equivalent to the stated closure of the connector, up to the swap
        # that the canonical list applies
        assert got == spec("L2", 2, 2, 1, 1, 0)

    def test_sweep_n2(self, two_cycle_classes):
        for bq in two_cycle_classes(2):
            sp = normalize(bq)
            assert sp in theorem_list(2)

    def test_state_limit(self):
        with pytest.raises(StateLimitExceeded):
            normalize(build_family(spec("L0", 3, 0)), max_states=2)

    def test_opposite_same_family(self, two_cycle_classes):
        for bq in two_cycle_classes(2):
            assert normalize(bq) == normalize(opposite(bq))

    def test_state_cap_boundary(self):
        bq = build_family(spec("L0", 3, 0))
        size = len(orbit(bq).component)
        assert size > 2
        assert normalize(bq, max_states=size) == spec("L0", 3, 0)
        with pytest.raises(StateLimitExceeded):
            normalize(bq, max_states=size - 1)


class TestNormalizeMemo:
    """A repeated ``normalize`` answers from the orbit an earlier call
    closed, exactly as a fresh closure would."""

    @staticmethod
    def outcome(q, cap):
        try:
            return normalize(q, max_states=cap)
        except QuiverError as exc:
            return type(exc), str(exc)

    def test_repeat_matches_fresh(self, two_cycle_classes, monkeypatch):
        orbit_module = importlib.import_module("gentleq.orbit")
        rng = random.Random(12)
        for n in (2, 3, 4):
            assignment, members, _family = _orbit_partition(n)
            for bq in two_cycle_classes(n):
                size = len(members[assignment[_canonical_code(bq)]])
                caps = (0, 1, size - 1, size, DEFAULT_MAX_STATES)
                inputs = (bq, opposite(bq), random_relabel(bq, rng))
                fresh = []
                for q in inputs:
                    for cap in caps:
                        _closed.clear()
                        fresh.append(self.outcome(q, cap))
                _closed.clear()
                normalize(bq)
                with monkeypatch.context() as patch:
                    patch.setattr(orbit_module, "_reach", None)  # no closure from here
                    assert [self.outcome(q, cap) for q in inputs for cap in caps] == fresh, bq

    def test_repeat_without_hit_matches_fresh(self, monkeypatch):
        # with no canonical-list entry at all, every orbit is a counterexample
        monkeypatch.setattr(importlib.import_module("gentleq.orbit"), "theorem_key_table",
                            lambda n: {})
        bq = build_family(spec("L0", 3, 0))
        size = len(orbit(bq).component)
        want = (NoCanonicalHit, "orbit of size %d contains no canonical-family "
                "representative (candidate counterexample)" % size)
        assert self.outcome(bq, DEFAULT_MAX_STATES) == want
        assert self.outcome(opposite(bq), size) == want
        assert self.outcome(bq, size - 1) == (StateLimitExceeded,
                                               "orbit exceeded %d states" % (size - 1))

    def test_repeat_closes_nothing(self, monkeypatch):
        orbit_module = importlib.import_module("gentleq.orbit")
        calls = []
        for name in ("_reach", "_check_inverse_edges"):
            real = getattr(orbit_module, name)
            monkeypatch.setattr(orbit_module, name,
                                lambda *args, _real=real, _name=name:
                                calls.append(_name) or _real(*args))
        bq = build_family(spec("L0", 3, 0))
        assert normalize(bq) == spec("L0", 3, 0)
        assert calls == ["_reach", "_check_inverse_edges"]
        assert normalize(bq) == normalize(opposite(bq)) == spec("L0", 3, 0)
        with pytest.raises(StateLimitExceeded, match="orbit exceeded 2 states"):
            normalize(bq, max_states=2)
        assert calls == ["_reach", "_check_inverse_edges"]

    def test_capped_closure_not_kept(self):
        bq = build_family(spec("L0", 3, 0))
        with pytest.raises(StateLimitExceeded):
            normalize(bq, max_states=2)
        assert _closed == {}

    def test_memo_emptied_at_bound(self, monkeypatch):
        orbit_module = importlib.import_module("gentleq.orbit")
        first, second = build_family(spec("L0", 3, 0)), build_family(spec("L0", 2, 1))
        sizes = [len(orbit(q).component) for q in (first, second)]
        code = _canonical_code(first)
        # room for either orbit, not for both
        monkeypatch.setattr(orbit_module, "DEFAULT_MAX_STATES", max(sizes) + min(sizes) - 1)
        normalize(first)
        assert len(_closed) == sizes[0] and code in _closed
        normalize(second)
        assert len(_closed) == sizes[1] and code not in _closed
        # an orbit larger than the bound is answered but not kept
        monkeypatch.setattr(orbit_module, "DEFAULT_MAX_STATES", sizes[0] - 1)
        _closed.clear()
        assert normalize(first) == spec("L0", 3, 0)
        assert _closed == {}


class TestIntegerStates:
    def test_no_named_quiver_on_the_partition_path(self, monkeypatch):
        # enumeration and closure run on codes: no BoundQuiver is built and
        # no validate runs; the integer check stands in for both
        import gentleq.core as core

        theorem_key_table(4)
        built, checked = [], []
        monkeypatch.setattr(core.BoundQuiver, "__post_init__", lambda self: built.append(1))
        for module in (core, importlib.import_module("gentleq.orbit")):
            monkeypatch.setattr(module, "validate", lambda *args: checked.append(1))
        codes = _enumerate_cached.__wrapped__(SizeClass(4, 5), 1)
        assignment, members, _family = _orbit_partition.__wrapped__(4)
        assert (len(codes), len(assignment), len(members)) == (312, 312, 30)
        assert (built, checked) == ([], [])

    def test_partition_rows_check_no_validity(self, monkeypatch):
        # enumeration checked each class; the rows only map move outputs
        import gentleq.core as core
        import gentleq.families as families
        import gentleq.moves as moves

        _enumerate_cached(SizeClass(4, 5), 1)
        theorem_key_table(4)
        real, calls = core._valid, []
        for module in (core, families, moves, importlib.import_module("gentleq.orbit")):
            monkeypatch.setattr(module, "_valid", lambda q: calls.append(1) or real(q))
        _assignment, members, _family = _orbit_partition.__wrapped__(4)
        assert (len(members), calls) == (30, [])

    def test_no_named_quiver_on_the_lemma_sweeps(self, monkeypatch):
        # the closed-form and move sweeps run on indices: no BoundQuiver, no
        # validate, no named move, and no Phi while every check passes
        import gentleq.core as core
        import gentleq.invariant as invariant

        orbit_module = importlib.import_module("gentleq.orbit")
        built, checked, phis = [], [], []
        monkeypatch.setattr(core.BoundQuiver, "__post_init__", lambda self: built.append(1))
        real_phi = invariant.Phi.__init__
        monkeypatch.setattr(invariant.Phi, "__init__",
                            lambda self, *args: phis.append(1) or real_phi(self, *args))
        for name in ("core", "families", "moves", "orbit"):
            monkeypatch.setattr(importlib.import_module("gentleq." + name), "validate",
                                lambda *args: checked.append(1))

        def no_named_move(*args, **kwargs):
            raise AssertionError("the sweep applied a named move")

        monkeypatch.setattr(importlib.import_module("gentleq.moves"), "apply_move", no_named_move)
        assert not any(check_closed_form(sp) for sp in _closed_form_specs(8))
        checks = orbit_module._move_sweep(4, 1)
        assert [(c.name, c.instances, c.failures) for c in checks] == [
            ("move-invariance", 2379, ()), ("phi-under-opposite", 353, ()),
            ("degeneracy-split", 353, ())]
        assert (built, checked, phis) == ([], [], [])

    def test_invalid_state_is_reported(self, monkeypatch):
        # a generating move that broke validity would stop the closure
        orbit_module = importlib.import_module("gentleq.orbit")
        monkeypatch.setattr(orbit_module, "_valid", lambda q: False)
        start = _canonical_code(build_family(spec("L0", 3, 0)))
        with pytest.raises(AssertionError, match="produced an invalid quiver"):
            orbit_module._reach(start, orbit_module._step, 100)


class TestGeneratorClosure:
    """Orbits closed under the generating moves against the all-move BFS."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partition_matches_all_moves(self, n):
        assignment, members, family = _orbit_partition(n)
        # the member tuple lists the first-listed class first, then the
        # rest in breadth-first order; the oracle keeps the first and a set,
        # and its capped BFS reached every orbit completely
        assert all(len(set(m)) == len(m) for m in members.values())
        members = {oid: (m[0], frozenset(m)) for oid, m in members.items()}
        assert (assignment, members, family, True) == oracle_orbit_partition(n)

    def test_normalize_matches_all_moves(self):
        rng = random.Random(5)
        specs = [sp for sp in theorem_list(5) if family_size(sp) == 5]
        assert len(specs) == 63
        for sp in specs:
            bq = build_family(sp)
            for q in (bq, random_relabel(bq, rng), opposite(bq)):
                _closed.clear()  # a fresh closure for every input
                assert normalize(q) == oracle_normalize(q), sp

    def test_inverse_edges_accepted(self):
        _check_inverse_edges({(0, 1), (1, 0), (2, 2)}, [0, 1, 2])
        # the inverse of 0 -> 1 is the same edge read through the opposite
        _check_inverse_edges({(0, 1)}, [1, 0])

    def test_missing_inverse_edge_raises(self):
        with pytest.raises(AssertionError, match="no inverse"):
            _check_inverse_edges({(0, 1), (1, 2), (2, 1)}, [0, 1, 2])

    def test_opposite_not_involution_raises(self):
        with pytest.raises(AssertionError, match="not an involution"):
            _check_inverse_edges(set(), [1, 2, 0])

    def test_every_partition_closure_checked(self, monkeypatch):
        # no closure on the class table is capped, so every orbit checks
        # its inverse edges
        checked = []
        monkeypatch.setattr(importlib.import_module("gentleq.orbit"), "_check_inverse_edges",
                            lambda edges, op: checked.append(len(op)))
        _assignment, members, _family = _orbit_partition.__wrapped__(4)
        assert checked == [len(m) for m in members.values()]

    def test_every_complete_closure_checked(self, monkeypatch):
        # the normalize closure and the audit closure each check their
        # inverse edges; a capped audit closure checks none
        checked = []
        monkeypatch.setattr(importlib.import_module("gentleq.orbit"), "_check_inverse_edges",
                            lambda edges, op: checked.append(len(op)))
        bq = build_family(spec("L0", 3, 0))
        normalize(bq)
        size = len(orbit(bq).component)
        assert checked == [size, size]
        assert not orbit(bq, size - 1).complete
        assert checked == [size, size]

    def test_audit_closure_missing_inverse_raises(self, monkeypatch):
        # a move table that loses one reflection edge at one state of a
        # complete orbit breaks the inverse pairs of the audit closure
        orbit_module = importlib.import_module("gentleq.orbit")
        real = orbit_module._moves
        bq = build_family(spec("L0", 3, 0))
        start = _canonical_code(bq)
        first_out = next(_code(o.n, o.ends, o.rels) for _mv, o in real(_decode(start)))

        def moves(q):
            for mv, out in real(q):
                if (_code(q.n, q.ends, q.rels) != start or mv.kind == MoveKind.OPPOSITE
                        or _code(out.n, out.ends, out.rels) != first_out):
                    yield mv, out

        assert orbit(bq).complete
        monkeypatch.setattr(orbit_module, "_moves", moves)
        with pytest.raises(AssertionError, match="has no inverse"):
            orbit(bq)


class TestOrbitAgainstOracle:
    """The audit BFS on codes against the named ``oracle_orbit``: every
    field equal, the order of the edges and of the representatives too."""

    @staticmethod
    def check(got, want):
        assert got == want
        assert list(got.representatives) == list(want.representatives)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_orbits(self, n):
        # from the first-listed class of each orbit, the start of the oracle
        # partition's own BFS
        _assignment, members, _family = _orbit_partition(n)
        for member in members.values():
            rep = _form(member[0])
            self.check(orbit(rep, DEFAULT_MAX_STATES),
                       oracle_orbit_of_key(serialize(rep), DEFAULT_MAX_STATES))

    @pytest.mark.parametrize("max_states", [1, 4, 7, 20])
    def test_capped_orbits(self, two_cycle_classes, max_states):
        # caps 7 and 20 cut a breadth-first level in the middle, where the
        # key order of the walk decides which states are kept
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                self.check(orbit(bq, max_states),
                           oracle_orbit(bq, max_states, theorem_key_table(n)))

    def test_theorem_list(self):
        # capped from each spec and its opposite; complete from the key the
        # normalize oracle walks, for every eighth spec with 5 vertices (all
        # 63 add about a second)
        five = [sp for sp in theorem_list(5) if family_size(sp) == 5]
        for sp in theorem_list(5):
            bq = build_family(sp)
            n = len(bq.vertices)
            for q in (bq, opposite(bq)):
                self.check(orbit(q, 4),
                           oracle_orbit(q, 4, theorem_key_table(n)))
            if sp in five[::8]:
                key = min(canonical_key(bq), canonical_key(opposite(bq)))
                self.check(orbit(parse(key), DEFAULT_MAX_STATES),
                           oracle_orbit_of_key(key, DEFAULT_MAX_STATES))


class TestVerifyCompleteness:
    def test_n2(self):
        rep = verify_completeness(2)
        assert rep.passed and rep.exit_code == 0
        assert "classes: 3" in rep.lines
        assert rep.render().strip().endswith("RESULT: PASS")

    def test_n3(self):
        rep = verify_completeness(3)
        assert rep.passed
        tally = sum(int(l.split("classes=")[1]) for l in rep.lines
                    if l.startswith("family "))
        classes = int(next(l for l in rep.lines if l.startswith("classes:")).split()[1])
        assert tally == classes


class TestCompletenessEntries:
    """Each orbit holds exactly one canonical-list entry, and each entry of
    size n lies in an orbit; a table that breaks either fails the report."""

    @pytest.fixture
    def table(self, monkeypatch):
        # a copy of the size-4 table that the partition reads; its cache is
        # cleared before and after, so no other test sees the edited table
        table = dict(theorem_key_table(4))
        monkeypatch.setattr(importlib.import_module("gentleq.orbit"), "theorem_key_table",
                            lambda n: table)
        _orbit_partition.cache_clear()
        yield table
        _orbit_partition.cache_clear()

    def test_two_entries_in_one_orbit(self, table):
        _assignment, members, family = _orbit_partition(4)
        oid, codes = next((oid, m) for oid, m in members.items() if len(m) > 1)
        # a second member, besides the orbit's own entry
        table[next(c for c in codes if c not in table)] = FamilySpec("L2", (9, 9, 9, 0, 0))
        _orbit_partition.cache_clear()
        rep = verify_completeness(4)
        assert (rep.passed, rep.exit_code) == (False, 1)
        assert rep.render().endswith("failures: 1\nfailure: orbit %s holds list entries "
                                     "%s, L2(9,9,9,0,0)\nRESULT: FAIL\n"
                                     % (_compact(codes[0]), family[oid]))

    def test_entry_matches_no_class(self, table):
        table[(4, (), ())] = FamilySpec("L2", (9, 9, 9, 0, 0))
        rep = verify_completeness(4)
        assert (rep.passed, rep.exit_code) == (False, 1)
        assert rep.lines[-2:] == ("failures: 1",
                                  "failure: list entry L2(9,9,9,0,0) matches no enumerated class")
        assert rep.render().endswith("RESULT: FAIL\n")


class TestVerifyMinimality:
    def test_small(self):
        rep = verify_minimality(6, orbit_max_vertices=3)
        assert rep.passed
        assert any(l.startswith("phi-distinct: PASS") for l in rep.lines)
        assert any(l.startswith("orbit-distinct: PASS") for l in rep.lines)

    def test_phi_collisions_are_reported(self, monkeypatch):
        # one line per shared closed form, in the order of its text, naming
        # the specs in list order
        def fake(sp):
            return [(1, 3)] if sp.tag == "L1" else [(1, 3), (2, 4)]

        for name in ("families", "orbit"):
            monkeypatch.setattr(importlib.import_module("gentleq." + name), "_closed_types", fake)
        rep = verify_minimality(5, orbit_max_vertices=2)
        specs = [sp for sp in theorem_list(5) if sp.tag in ("L1", "L2")]
        named = {tag: ", ".join(str(sp) for sp in specs if sp.tag == tag) for tag in ("L1", "L2")}
        assert rep.failures == ("failure: phi collision {(1,3):1, (2,4):1}: %s" % named["L2"],
                                "failure: phi collision {(1,3):1}: %s" % named["L1"])
        assert "phi-distinct: FAIL (%d specs, <=5 vertices)" % len(specs) in rep.lines

    def test_degenerate_families_share_phi(self):
        # the open-conjecture side: same invariant, not flagged
        from gentleq.families import phi_formula
        assert phi_formula(spec("L0", 3, 0)) == phi_formula(spec("L0", 3, 2))


class TestVerifyLemmas:
    def test_closed_form_specs_sorted_and_distinct(self):
        # the sweep counts and checks the generator's output as it comes
        for bound in (1, 2, 5, 10, 16):
            specs = list(_closed_form_specs(bound))
            assert all(a < b for a, b in zip(specs, specs[1:])), bound

    def test_closed_form_specs_match_filtered_boxes(self, monkeypatch):
        # the loop bounds are the inequalities: the generator tests no spec
        def no_test(*_args):
            raise AssertionError("the generator tested a spec")

        want = [oracle_closed_form_specs(bound) for bound in range(19)]
        monkeypatch.setattr(importlib.import_module("gentleq.families"), "_failed_inequality",
                            no_test)
        monkeypatch.setattr(importlib.import_module("gentleq.orbit"), "_failed_inequality",
                            no_test, raising=False)
        for bound in range(19):
            assert list(_closed_form_specs(bound)) == want[bound], bound
        assert (len(want[10]), len(want[16])) == (1018, 9419)

    @pytest.mark.parametrize("tags", [("L2pSix",), ("L0p",), ("L2pFive",), ("G0", "G1", "G2")])
    def test_domains_match_box_oracle(self, tags):
        for bound in range(0, 7):
            want = [sp for n in range(0, bound + 1)
                    for sp in sorted(sp for tag in tags for r in range(n + 4)
                                     for sp in oracle_specs(tag, n, r))]
            assert _sized_specs(tags, bound) == want, (tags, bound)

    def test_domain_counts(self):
        rep = verify_lemma_tables(bound=2, orbit_vertices=4, sweep_vertices=2)
        assert rep.passed, rep.render()
        count = {l.split()[1].rstrip(":"): int(l.split("(")[1].split()[0])
                 for l in rep.lines if l.startswith("check ")}
        six = _sized_specs(("L2pSix",), 4)
        # the connector halves may both vanish
        assert spec("L2pSix", 1, 2, 0, 0, 0, 1) in six
        # one identity per vanishing half, one slide per nonzero p3
        assert count["connector-slide"] == len(six) + sum(sp.params[3] == 0 for sp in six) == 120
        assert count["double-arrow-shift"] == sum(
            sp.params[1] >= 1 for sp in _sized_specs(("L0p",), 4))
        assert count["five-parameter-close"] == len(_sized_specs(("L2pFive",), 4))
        # G1 and G2 meet two rules when r = r'
        assert count["double-arrow-chain"] == sum(
            2 if sp.tag != "G0" and sp.params[2] == sp.params[3] else 1
            for sp in _sized_specs(("G0", "G1", "G2"), 6))

    def test_connector_slide_failure_order(self, monkeypatch):
        # one instance built as the wrong quiver fails its identity, then the
        # phi and the orbit check of the slide that reaches it
        orbit_module = importlib.import_module("gentleq.orbit")
        real = orbit_module._family_ints
        wrong = spec("L2pSix", 1, 1, 0, 1, 0, 0)
        monkeypatch.setattr(orbit_module, "_family_ints",
                            lambda sp: real(spec("L0", 1, 0) if sp == wrong else sp))
        rep = verify_lemma_tables(bound=2, orbit_vertices=2, sweep_vertices=2)
        assert not rep.passed
        fails = [l for l in rep.lines if l.startswith("failure[")]
        assert fails == [
            "failure[connector-slide]: L2pSix(1,1,0,1,0,0) is not isomorphic to L2(1,1,1,0,0)",
            "failure[connector-slide]: phi(L2pSix(1,1,1,0,0,0))={(0,1):2, (1,1):1} differs "
            "from phi(L2pSix(1,1,0,1,0,0))={(1,3):1}",
            "failure[connector-slide]: L2pSix(1,1,1,0,0,0) and L2pSix(1,1,0,1,0,0) "
            "are not in the same orbit",
        ]

    def test_opposite_failures_are_reported(self, monkeypatch):
        # a phi that sees the orientation fails the opposite check on each
        # class whose opposite it separates, next to that move's own failure
        def fake(q):
            return [(sum([t for _s, t in q.ends]), 0)]

        monkeypatch.setattr(importlib.import_module("gentleq.orbit"), "_types", fake)
        checks = {c.name: c for c in importlib.import_module("gentleq.orbit")._move_sweep(3, 1)}
        anchors = [_compact(code) for n in (2, 3)
                   for code in _enumerate_cached(SizeClass(n, n + 1), 1)
                   if fake(_decode(code)) != fake(_decode(code).opposite())]
        assert anchors
        assert checks["phi-under-opposite"].failures == tuple(
            "phi changes under opposite for %s" % a for a in anchors)
        assert [f for f in checks["move-invariance"].failures if f.startswith("opposite ")] == [
            "opposite on %s changed phi" % a for a in anchors]

    def test_quick_pass(self):
        rep = verify_lemma_tables(bound=5, orbit_vertices=3, sweep_vertices=3)
        assert rep.passed, rep.render()
        names = {l.split()[1].rstrip(":") for l in rep.lines if l.startswith("check ")}
        assert {"closed-form-sweep", "move-invariance", "phi-under-opposite",
                "degeneracy-split", "mixed-cycle-flip", "cycle-swap",
                "connector-slide", "double-arrow-shift", "five-parameter-close",
                "opposite-in-orbit", "double-arrow-chain"} <= names
