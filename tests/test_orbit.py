import pytest

from gentleq.core import canonical_key, opposite, parse, serialize
from gentleq.families import build_family, spec, theorem_list
from gentleq.moves import MoveKind
from gentleq.orbit import (
    BoundExceeded,
    SizeClass,
    StateLimitExceeded,
    _closed_form_specs,
    _shapes,
    enumerate_classes,
    normalize,
    orbit,
    theorem_key_table,
    verify_completeness,
    verify_lemma_tables,
    verify_minimality,
)

from oracle_helpers import naive_enumerate, oracle_enumerate, oracle_shapes


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
        from gentleq.core import cycle_rank, validate
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

    def test_deterministic_order(self, two_cycle_classes):
        classes = two_cycle_classes(3)
        keys = [canonical_key(c) for c in classes]
        assert keys == sorted(keys)


ORACLE_SIZES = [(n, a) for n in range(1, 5) for a in range(2 * n + 1)] + [(5, 6)]


class TestEnumeratorOracle:
    """The degree-sorted shape stage against canonicalizing every labeling."""

    @pytest.mark.parametrize("n,a", ORACLE_SIZES)
    def test_matches_all_labelings(self, n, a):
        assert sorted(serialize(s) for s in _shapes(n, a)) == \
            sorted(oracle_shapes(n, a))
        for two_cycle in (False, True):
            got = [serialize(c) for c in enumerate_classes(SizeClass(n, a), two_cycle)]
            want = [serialize(c) for c in oracle_enumerate(n, a, two_cycle)]
            assert got == want


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
        res = orbit(bq, hit_table=theorem_key_table(2))
        assert (canonical_key(bq), spec("L0", 1, 0)) in res.canonical_hits

    def test_edges_replay(self):
        from gentleq.moves import apply_move
        res = orbit(build_family(spec("L0", 2, 1)))
        assert res.edges
        for k1, mv, k2 in res.edges:
            out, receipt = apply_move(parse(k1), mv)
            assert receipt.input_key == k1
            assert receipt.output_key == k2
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


class TestVerifyCompleteness:
    def test_n2(self):
        rep = verify_completeness(2)
        assert rep.passed and not rep.limited
        assert "classes: 3" in rep.lines
        assert rep.render().strip().endswith("RESULT: PASS")

    def test_n3(self):
        rep = verify_completeness(3)
        assert rep.passed
        tally = sum(int(l.split("classes=")[1]) for l in rep.lines
                    if l.startswith("family "))
        classes = int(next(l for l in rep.lines if l.startswith("classes:")).split()[1])
        assert tally == classes


class TestVerifyMinimality:
    def test_small(self):
        rep = verify_minimality(6, orbit_max_vertices=3)
        assert rep.passed
        assert any(l.startswith("phi-distinct: PASS") for l in rep.lines)
        assert any(l.startswith("orbit-distinct: PASS") for l in rep.lines)

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

    def test_quick_pass(self):
        rep = verify_lemma_tables(bound=5, orbit_vertices=3, sweep_vertices=3)
        assert rep.passed, rep.render()
        names = {l.split()[1].rstrip(":") for l in rep.lines if l.startswith("check ")}
        assert {"closed-form-sweep", "move-invariance", "phi-under-opposite",
                "degeneracy-split", "mixed-cycle-flip", "cycle-swap",
                "connector-slide", "double-arrow-shift", "five-parameter-close",
                "opposite-in-orbit", "double-arrow-chain"} <= names
