import random

import pytest

import gentleq.core
import gentleq.families
from gentleq.core import InvalidQuiverError, make_bound_quiver
from gentleq.families import build_family, phi_formula, spec, theorem_list
from gentleq.invariant import (
    DEGENERATE,
    NONDEGENERATE,
    PairingIncomplete,
    Phi,
    cartan_matrix,
    degeneracy_class,
    _phi,
    phi,
)
from gentleq.orbit import SizeClass, _closed_form_specs, enumerate_classes

from oracle_helpers import (
    ArrowCycle,
    _threads,
    _walk,
    euler_data,
    named_cycles,
    named_sequences,
    named_threads,
    opposite,
    oracle_cartan,
    oracle_characteristic_sequences,
    oracle_euler_data,
    oracle_maximal_antipaths,
    oracle_maximal_paths,
    oracle_pairings,
    oracle_threads,
    random_relabel,
    thread_namer,
)


def a2_quiver():
    return make_bound_quiver(["x", "y"], [("al", "y", "x")], [])


def point():
    return make_bound_quiver(["x"], [], [])


def phi_of(entries):
    return Phi.from_types([t for t, c in entries for _ in range(c)])


class TestThreads:
    def test_l0_threads(self):
        bq = build_family(spec("L0", 1, 0))
        perm, forb, _cycles = named_threads(bq)
        assert {t.render() for t in perm} == {"b.a1.c"}
        assert {t.render() for t in forb} == {"c.a1.b"}

    def test_a2_threads(self):
        bq = a2_quiver()
        perm, forb, _cycles = named_threads(bq)
        assert {t.render() for t in perm} == {"al", "e(x)", "e(y)"}
        assert {t.render() for t in forb} == {"al", "e(x)", "e(y)"}

    def test_l1_threads(self):
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        perm, forb, _cycles = named_threads(bq)
        assert {t.render() for t in perm} == {"a1", "b2.d1.b1"}
        assert {t.render() for t in forb} == {"d1", "e(B1)"}

    def test_partition_properties(self, two_cycle_classes):
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                arrows = {a for a, _s, _t in bq.arrows}
                perm, forb, cycles = named_threads(bq)
                on_perm = [a for t in perm for a in t.arrows]
                assert sorted(on_perm) == sorted(arrows)
                on_forb = [a for t in forb for a in t.arrows]
                on_cyc = [a for c in cycles for a in c.arrows]
                assert sorted(on_forb + on_cyc) == sorted(arrows)

    def test_threads_match_oracle(self, two_cycle_classes):
        for n in (2, 3):
            for bq in two_cycle_classes(n):
                perm, forb, _cycles = named_threads(bq)
                got = {t.arrows for t in perm if not t.trivial}
                assert got == oracle_maximal_paths(bq)
                got = {t.arrows for t in forb if not t.trivial}
                assert got == oracle_maximal_antipaths(bq)


class TestArrowCycles:
    def test_l2_loops(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        cycles = named_threads(bq)[2]
        assert {c.arrows for c in cycles} == {("a1",), ("b1",)}
        assert {c.type() for c in cycles} == {(0, 1)}

    def test_l1_triangle(self):
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        cycles = named_threads(bq)[2]
        assert len(cycles) == 1
        (c,) = cycles
        assert c.type() == (0, 3)
        assert set(c.arrows) == {"a1", "b1", "b2"}

    def test_relation_free(self):
        assert named_threads(a2_quiver())[2] == frozenset()


class TestCharacteristicSequences:
    def test_l0_single_pair(self):
        seqs = named_sequences(build_family(spec("L0", 1, 0)))
        assert len(seqs) == 1
        assert seqs[0].type() == (1, 3)

    def test_a2_forced_walk(self):
        seqs = named_sequences(a2_quiver())
        assert len(seqs) == 1
        assert seqs[0].type() == (3, 1)
        rendered = [(s.render(), t.render()) for s, t in seqs[0].pairs]
        want = [("al", "e(x)"), ("e(x)", "al"), ("e(y)", "e(y)")]
        rotations = [want[k:] + want[:k] for k in range(len(want))]
        assert rendered in rotations

    def test_l1_full_set(self):
        seqs = named_sequences(build_family(spec("L1", 1, 2, 0, 1, 0)))
        assert sorted(s.type() for s in seqs) == [(0, 3), (1, 0), (1, 1)]

    def test_each_thread_used_once(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            seqs = named_sequences(bq)
            sigmas = [s for cs in seqs if hasattr(cs, "pairs") for s, _t in cs.pairs]
            taus = [t for cs in seqs if hasattr(cs, "pairs") for _s, t in cs.pairs]
            assert len(sigmas) == len(set(sigmas))
            assert len(taus) == len(set(taus))
            perm, forb, _cycles = named_threads(bq)
            assert set(sigmas) == perm
            assert set(taus) == forb

    def test_isolated_vertex_has_no_pairing(self):
        bq = make_bound_quiver(["x", "y", "z"], [("a", "y", "z")], [])
        with pytest.raises(PairingIncomplete):
            named_sequences(bq)


def disjoint_union(left, right):
    def names(bq, tag):
        return (["%s%s" % (tag, v) for v in bq.vertices],
                [("%s%s" % (tag, a), "%s%s" % (tag, s), "%s%s" % (tag, t))
                 for a, s, t in bq.arrows],
                [("%s%s" % (tag, f), "%s%s" % (tag, s)) for f, s in bq.relations])

    (lv, la, lr), (rv, ra, rr) = names(left, "l"), names(right, "r")
    return make_bound_quiver(lv + rv, la + ra, lr + rr)


def assert_walk_matches_search(bq):
    want = tuple(oracle_pairings(bq)) + tuple(
        sorted(named_threads(bq)[2], key=lambda c: c.arrows))
    assert named_sequences(bq) == want
    assert _phi(bq._ints) == Phi.from_types(cs.type() for cs in want)


class TestWalkAgainstSearch:
    """The forced walk against the backtracking search over all pairings."""

    def test_small_classes(self):
        for n in range(1, 5):
            for a in range(0, 2 * n + 1):
                for bq in enumerate_classes(SizeClass(n, a)):
                    assert_walk_matches_search(bq)
                    assert_walk_matches_search(opposite(bq))

    def test_two_cycle_classes_n5(self, two_cycle_classes):
        for bq in two_cycle_classes(5):
            assert_walk_matches_search(bq)
            assert_walk_matches_search(opposite(bq))

    def test_closed_form_instances(self):
        for sp in _closed_form_specs(10):
            bq = build_family(sp)
            assert_walk_matches_search(bq)
            assert_walk_matches_search(opposite(bq))

    def test_disjoint_unions(self, two_cycle_classes):
        parts = [a2_quiver(), build_family(spec("L0", 1, 0))] + list(two_cycle_classes(3)[:6])
        for left in parts:
            for right in parts:
                assert_walk_matches_search(disjoint_union(left, right))
            with_point = disjoint_union(left, point())
            with pytest.raises(PairingIncomplete):
                oracle_pairings(with_point)
            with pytest.raises(PairingIncomplete):
                named_sequences(with_point)
            with pytest.raises(PairingIncomplete):
                _phi(with_point._ints)
        assert_walk_matches_search(disjoint_union(point(), point()))


def assert_integer_walk_matches_names(bq):
    """The integer threads and walk against the walk on names."""
    permitted, forbidden, cycles = _threads(bq._ints)
    want_permitted, want_forbidden, want_cycles = oracle_threads(bq)
    thread, vs = thread_namer(bq), bq.vertices

    def named(entries):
        return [(thread(t), vs[t[1]], vs[t[2]], t[3], t[4]) for t in entries]

    assert named(permitted) == want_permitted
    assert named(forbidden) == want_forbidden
    assert named_cycles(bq, cycles) == [ArrowCycle(c) for c in want_cycles]
    want = oracle_characteristic_sequences(bq)
    assert _phi(bq._ints) == Phi.from_types(cs.type() for cs in want)
    assert repr(named_sequences(bq)) == repr(want)


class TestIntegerWalk:
    """The walk on indices against the walk on names it replaced."""

    @staticmethod
    def variants(bq, rng):
        relabeled = random_relabel(bq, rng)
        return bq, opposite(bq), relabeled, opposite(relabeled)

    def test_small_classes(self):
        rng = random.Random(3)
        for n in range(1, 5):
            for a in range(0, 2 * n + 1):
                for bq in enumerate_classes(SizeClass(n, a)):
                    for q in self.variants(bq, rng):
                        assert_integer_walk_matches_names(q)

    def test_two_cycle_classes_n5(self, two_cycle_classes):
        rng = random.Random(4)
        for bq in two_cycle_classes(5):
            for q in self.variants(bq, rng):
                assert_integer_walk_matches_names(q)

    def test_isolated_vertex_next_to_arrows(self, two_cycle_classes):
        parts = [a2_quiver(), build_family(spec("L0", 1, 0))] + list(two_cycle_classes(3)[:6])
        for part in parts:
            with_point = disjoint_union(part, point())
            with pytest.raises(PairingIncomplete):
                oracle_characteristic_sequences(with_point)
            with pytest.raises(PairingIncomplete):
                _phi(with_point._ints)


class TestPhi:
    def test_hand_anchors(self):
        assert phi(build_family(spec("L0", 1, 0))) == phi_of([((1, 3), 1)])
        assert phi(build_family(spec("L2", 1, 1, 1, 0, 0))) == phi_of(
            [((0, 1), 2), ((1, 1), 1)])
        assert phi(build_family(spec("L1", 1, 2, 0, 1, 0))) == phi_of(
            [((0, 3), 1), ((1, 0), 1), ((1, 1), 1)])
        assert phi(a2_quiver()) == phi_of([((3, 1), 1)])
        assert phi(point()) == phi_of([((1, 0), 1)])

    def test_lines(self):
        lines = phi(build_family(spec("L0", 1, 0))).lines()
        assert lines == ["(1,3): 1", "sum: 1"]

    def test_pair_cycle_count_equals_permitted_count(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            seqs = named_sequences(bq)
            pair_n = sum(cs.type()[0] for cs in seqs if not isinstance(cs, ArrowCycle))
            assert pair_n == len(named_threads(bq)[0])

    def test_opposite_invariance(self, two_cycle_classes):
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                assert phi(bq) == phi(opposite(bq))

    def test_opposite_invariance_n5(self, two_cycle_classes):
        # the full empirical sweep backing the use of the invariant on
        # opposites; slow-ish but shared with the acceptance enumeration
        for bq in two_cycle_classes(5):
            assert phi(bq) == phi(opposite(bq))

    def test_thousand_arrows(self):
        # the walk has no recursion, so long threads cannot overflow the stack
        sp = spec("L1", 400, 400, 100, 100, 200)
        assert phi(build_family(sp)) == phi_formula(sp)

    def test_linear_quivers_share_phi(self):
        # every gentle quiver with n vertices and n-1 arrows is equivalent to
        # the equioriented line, so the invariant must coincide
        line = make_bound_quiver(
            ["x", "y", "z"], [("a", "y", "x"), ("b", "z", "y")], [])
        alt = make_bound_quiver(
            ["x", "y", "z"], [("a", "x", "y"), ("b", "z", "y")], [])
        bound = make_bound_quiver(
            ["x", "y", "z"], [("a", "y", "x"), ("b", "z", "y")], [("a", "b")])
        assert phi(line) == phi(alt) == phi(bound) == Phi.from_types([(4, 2)])

    def test_five_vertices_every_arrow_count(self):
        # the blossom walk against the sign walk of the oracle on the classes
        # that no other phi check reaches: five vertices outside the
        # two-cycle size
        def walk_phi(q):
            alternations, cycles = _walk(q)
            return Phi.from_types(
                [(len(pairs), sum(len(f[0]) for _t, f in pairs)) for pairs in alternations]
                + [(0, len(c)) for c in cycles])

        count = 0
        for a in range(0, 11):
            if a != 6:
                for bq in enumerate_classes(SizeClass(5, a)):
                    q = bq._ints
                    assert _phi(q) == walk_phi(q)
                    assert _phi(q.opposite()) == walk_phi(q.opposite())
                    count += 1
        assert count == 10798


class TestValidateOnce:
    def test_private_phi_skips_only_the_check(self, two_cycle_classes):
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                assert _phi(bq._ints) == phi(bq)
        bad = make_bound_quiver(["x"], [("al", "x", "x")], [])  # a free loop
        with pytest.raises(InvalidQuiverError):
            phi(bad)

    def test_closed_form_check_validates_once(self, monkeypatch):
        from gentleq.orbit import check_closed_form

        calls, integer_calls, spec_calls = [], [], []
        real, real_valid = gentleq.core.validate, gentleq.families._valid
        real_check = gentleq.families.check_spec
        monkeypatch.setattr(gentleq.core, "validate",
                            lambda *args: calls.append(1) or real(*args))
        monkeypatch.setattr(gentleq.families, "_valid",
                            lambda *args: integer_calls.append(1) or real_valid(*args))
        monkeypatch.setattr(gentleq.families, "check_spec",
                            lambda sp: spec_calls.append(1) or real_check(sp))
        specs = list(_closed_form_specs(5))
        assert not any(check_closed_form(sp) for sp in specs)
        # the integer check in the family builder, not again in phi, and one
        # spec check, not again in the closed form
        assert (len(calls), len(integer_calls), len(spec_calls)) == (0, len(specs), len(specs))

    def test_two_cycle_guards_check_connectivity_once(self, monkeypatch):
        from gentleq.orbit import normalize

        calls = []
        real = gentleq.core._arcs_connected
        monkeypatch.setattr(gentleq.core, "_arcs_connected",
                            lambda *args: calls.append(1) or real(*args))
        bq = build_family(spec("L0", 2, 1))
        assert degeneracy_class(bq) == DEGENERATE
        assert normalize(bq) == spec("L0", 2, 1)
        assert len(calls) == 1  # the verdict is kept on the quiver
        for guard, text in ((degeneracy_class, "degeneracy split applies to two-cycle quivers only"),
                            (normalize, "normalization applies to two-cycle quivers")):
            with pytest.raises(gentleq.core.QuiverError) as err:
                guard(a2_quiver())
            assert str(err.value) == text
        disconnected = make_bound_quiver(["x", "y"], [], [])
        for guard in (degeneracy_class, normalize):
            with pytest.raises(InvalidQuiverError, match="CONN underlying graph is disconnected"):
                guard(disconnected)


class TestDegeneracy:
    def test_examples(self):
        assert degeneracy_class(build_family(spec("L0", 2, 1))) == DEGENERATE
        assert degeneracy_class(build_family(spec("L1", 1, 2, 0, 1, 0))) == NONDEGENERATE
        assert degeneracy_class(build_family(spec("L2", 1, 1, 1, 0, 0))) == NONDEGENERATE

    def test_rank_guard(self):
        with pytest.raises(Exception):
            degeneracy_class(a2_quiver())


class TestCartan:
    def test_l0_matrix(self):
        order, rows = cartan_matrix(build_family(spec("L0", 1, 0)))
        assert order == ("w0", "w1")
        assert rows == ((2, 3), (1, 2))
        assert euler_data(build_family(spec("L0", 1, 0)))[0] == 1

    def test_point(self):
        assert cartan_matrix(point()) == (("x",), ((1,),))

    def test_a2(self):
        order, rows = cartan_matrix(a2_quiver())
        assert order == ("x", "y")
        assert rows == ((1, 0), (1, 1))

    def test_matches_oracle(self, two_cycle_classes):
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                assert cartan_matrix(bq) == oracle_cartan(bq)

    def test_euler_data_contract(self):
        # unimodular path-count matrices (the degenerate families) yield a
        # symmetrized determinant; the nondegenerate ones are not unimodular
        for r in range(0, 3):
            assert euler_data(build_family(spec("L0", 3, r))) == (1, 0)
        assert euler_data(build_family(spec("L1", 1, 2, 0, 1, 0))) is None
        assert euler_data(build_family(spec("L2", 1, 1, 1, 0, 0))) is None

    def test_euler_data_matches_inverse(self, two_cycle_classes):
        # det(C + C^T) against E + E^T from the rational inverse of C
        inputs = [bq for n in range(1, 5) for a in range(0, 2 * n + 1)
                  for bq in enumerate_classes(SizeClass(n, a))]
        inputs += two_cycle_classes(5)
        inputs += [build_family(sp) for sp in theorem_list(9)]
        unimodular = 0
        for bq in inputs:
            got = euler_data(bq)
            assert got == oracle_euler_data(bq)
            unimodular += got is not None
        assert (len(inputs), unimodular) == (4777, 2021)
