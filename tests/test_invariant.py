import pytest

from gentleq.core import make_bound_quiver, opposite
from gentleq.families import build_family, phi_formula, spec
from gentleq.invariant import (
    DEGENERATE,
    NONDEGENERATE,
    ArrowCycle,
    PairingIncomplete,
    Phi,
    arrow_cycle_sequences,
    cartan_matrix,
    characteristic_sequences,
    degeneracy_class,
    euler_data,
    forbidden_threads,
    permitted_threads,
    phi,
)
from gentleq.orbit import SizeClass, _closed_form_specs, enumerate_classes

from oracle_helpers import (
    oracle_cartan,
    oracle_maximal_antipaths,
    oracle_maximal_paths,
    oracle_pairings,
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
        perm = permitted_threads(bq)
        forb = forbidden_threads(bq)
        assert {t.render() for t in perm} == {"b.a1.c"}
        assert {t.render() for t in forb} == {"c.a1.b"}

    def test_a2_threads(self):
        bq = a2_quiver()
        perm = permitted_threads(bq)
        forb = forbidden_threads(bq)
        assert {t.render() for t in perm} == {"al", "e(x)", "e(y)"}
        assert {t.render() for t in forb} == {"al", "e(x)", "e(y)"}

    def test_l1_threads(self):
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        assert {t.render() for t in permitted_threads(bq)} == {"a1", "b2.d1.b1"}
        assert {t.render() for t in forbidden_threads(bq)} == {"d1", "e(B1)"}

    def test_partition_properties(self, two_cycle_classes):
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                arrows = {a for a, _s, _t in bq.arrows}
                on_perm = [a for t in permitted_threads(bq) for a in t.arrows]
                assert sorted(on_perm) == sorted(arrows)
                on_forb = [a for t in forbidden_threads(bq) for a in t.arrows]
                on_cyc = [a for c in arrow_cycle_sequences(bq) for a in c.arrows]
                assert sorted(on_forb + on_cyc) == sorted(arrows)

    def test_threads_match_oracle(self, two_cycle_classes):
        for n in (2, 3):
            for bq in two_cycle_classes(n):
                got = {t.arrows for t in permitted_threads(bq) if not t.trivial}
                assert got == oracle_maximal_paths(bq)
                got = {t.arrows for t in forbidden_threads(bq) if not t.trivial}
                assert got == oracle_maximal_antipaths(bq)


class TestArrowCycles:
    def test_l2_loops(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        cycles = arrow_cycle_sequences(bq)
        assert {c.arrows for c in cycles} == {("a1",), ("b1",)}
        assert {c.type() for c in cycles} == {(0, 1)}

    def test_l1_triangle(self):
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        cycles = arrow_cycle_sequences(bq)
        assert len(cycles) == 1
        (c,) = cycles
        assert c.type() == (0, 3)
        assert set(c.arrows) == {"a1", "b1", "b2"}

    def test_relation_free(self):
        assert arrow_cycle_sequences(a2_quiver()) == frozenset()


class TestCharacteristicSequences:
    def test_l0_single_pair(self):
        seqs = characteristic_sequences(build_family(spec("L0", 1, 0)))
        assert len(seqs) == 1
        assert seqs[0].type() == (1, 3)

    def test_a2_forced_walk(self):
        seqs = characteristic_sequences(a2_quiver())
        assert len(seqs) == 1
        assert seqs[0].type() == (3, 1)
        rendered = [(s.render(), t.render()) for s, t in seqs[0].pairs]
        want = [("al", "e(x)"), ("e(x)", "al"), ("e(y)", "e(y)")]
        rotations = [want[k:] + want[:k] for k in range(len(want))]
        assert rendered in rotations

    def test_l1_full_set(self):
        seqs = characteristic_sequences(build_family(spec("L1", 1, 2, 0, 1, 0)))
        assert sorted(s.type() for s in seqs) == [(0, 3), (1, 0), (1, 1)]

    def test_each_thread_used_once(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            seqs = characteristic_sequences(bq)
            sigmas = [s for cs in seqs if hasattr(cs, "pairs") for s, _t in cs.pairs]
            taus = [t for cs in seqs if hasattr(cs, "pairs") for _s, t in cs.pairs]
            assert len(sigmas) == len(set(sigmas))
            assert len(taus) == len(set(taus))
            assert set(sigmas) == permitted_threads(bq)
            assert set(taus) == forbidden_threads(bq)

    def test_isolated_vertex_has_no_pairing(self):
        bq = make_bound_quiver(["x", "y", "z"], [("a", "y", "z")], [])
        with pytest.raises(PairingIncomplete):
            characteristic_sequences(bq)


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
        sorted(arrow_cycle_sequences(bq), key=lambda c: c.arrows))
    assert characteristic_sequences(bq) == want


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
                characteristic_sequences(with_point)
        assert_walk_matches_search(disjoint_union(point(), point()))


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
            seqs = characteristic_sequences(bq)
            pair_n = sum(cs.type()[0] for cs in seqs if not isinstance(cs, ArrowCycle))
            assert pair_n == len(permitted_threads(bq))

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
