import itertools

import pytest

from gentleq.core import is_isomorphic, validate
from gentleq.families import (
    FAMILY_TAGS,
    _PARAM_COUNT,
    ConstraintViolation,
    FamilySpec,
    OutOfLemmaScope,
    _compositions,
    _family_ints,
    _specs,
    build_family,
    check_spec,
    family_size,
    phi_formula,
    recognize,
    spec,
    theorem_list,
)
from gentleq.invariant import Phi, phi
from gentleq.orbit import _closed_form_specs

from oracle_helpers import (
    ORACLE_RECIPES,
    canonical_key,
    cycle_rank,
    oracle_recognize,
    oracle_specs,
    oracle_theorem_list,
    random_relabel,
    record_fields,
)
import random

import gentleq.families as families


def types(*pairs):
    return Phi.from_types(pairs)


class TestBuild:
    def test_l0_recipe(self):
        bq = build_family(spec("L0", 1, 0))
        assert len(bq.vertices) == 2
        assert len(bq.arrows) == 3
        assert bq.relations == frozenset({("a1", "b"), ("c", "a1")})

    def test_l1_contraction_p3_zero(self):
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        assert sorted(bq.vertices) == ["B1", "vl", "vr"]
        arrows = {(a, s, t) for a, s, t in bq.arrows}
        assert arrows == {
            ("a1", "vl", "vr"), ("b2", "vr", "B1"),
            ("b1", "B1", "vl"), ("d1", "vl", "vr"),
        }
        assert bq.relations == frozenset({("a1", "b1"), ("b1", "b2"), ("b2", "a1")})

    def test_l1_double_contraction(self):
        bq = build_family(spec("L1", 2, 2, 0, 0, 1))
        assert len(bq.vertices) == 3
        assert len(bq.arrows) == 4
        assert cycle_rank(bq) == 2

    def test_all_small_instances_validate(self):
        small = [
            spec("L0", 3, 1), spec("L0p", 2, 1),
            spec("L1", 2, 1, 2, 0, 1), spec("L1", 1, 2, 1, 1, 0),
            spec("L2", 2, 2, 0, 1, 1), spec("L2", 1, 1, 3, 0, 0),
            spec("L2pSix", 1, 1, 1, 1, 0, 0), spec("L2pSix", 2, 1, 0, 0, 1, 0),
            spec("L2pFive", 1, 2, 1, 0, 1), spec("L2pFive", 2, 3, 1, 1, 2),
            spec("G0", 2, 2, 1), spec("G1", 2, 1, 1, 2), spec("G2", 1, 2, 0, 1),
        ]
        for sp in small:
            bq = build_family(sp)
            assert validate(bq, require_connected=True) == ()
            assert len(bq.arrows) == len(bq.vertices) + 1
            assert family_size(sp) == len(bq.vertices)

    def test_six_parameter_identities(self):
        # vanishing connector halves identify with the plain two-cycle family
        assert is_isomorphic(
            build_family(spec("L2pSix", 2, 1, 1, 0, 1, 0)),
            build_family(spec("L2", 2, 1, 1, 1, 0)))
        assert is_isomorphic(
            build_family(spec("L2pSix", 2, 1, 0, 1, 1, 0)),
            build_family(spec("L2", 1, 2, 1, 0, 1)))

    def test_gamma_identities_at_zero(self):
        for pp, q, r in [(1, 1, 0), (2, 1, 1), (2, 2, 0)]:
            g0 = build_family(spec("G0", pp, q, r))
            assert is_isomorphic(build_family(spec("G1", pp, q, r, 0)), g0)
            assert is_isomorphic(build_family(spec("G2", pp, q, r, 0)), g0)

    @pytest.mark.parametrize("bad", [
        ("L0", (0, 0)),
        ("L0", (2, 2)),
        ("L1", (1, 1, 0, 1, 0)),   # p2 + p3 < 2
        ("L1", (1, 2, 0, 0, 0)),   # p4 + r1 < 1
        ("L2", (1, 1, 0, 0, 0)),   # p3 + r1 + r2 < 1
        ("L2pFive", (1, 1, 1, 0, 0)),  # p2 < 2
        ("L2pFive", (1, 2, 1, 0, 0)),  # r2 < 1
        ("G0", (1, 1, 1)),
        ("G1", (1, 1, 0, -1)),
    ])
    def test_constraint_violations(self, bad):
        tag, params = bad
        with pytest.raises(ConstraintViolation):
            build_family(spec(tag, *params))
        with pytest.raises(ConstraintViolation):
            _family_ints(spec(tag, *params))


def specs_up_to(total):
    """Every spec of every tag whose parameters sum to at most ``total``."""
    for tag in FAMILY_TAGS:
        for params in itertools.product(range(total + 1), repeat=_PARAM_COUNT[tag]):
            if sum(params) <= total:
                sp = spec(tag, *params)
                try:
                    check_spec(sp)
                except ConstraintViolation:
                    continue
                yield sp


class TestSpecs:
    def test_matches_box_oracle(self):
        total = 0
        for tag in FAMILY_TAGS:
            for n in range(0, 7):
                for r in range(0, n + 4):
                    got = _specs(tag, n, r)
                    assert sorted(got) == oracle_specs(tag, n, r), (tag, n, r)
                    assert all(family_size(sp) == n for sp in got)
                    total += len(got)
        assert total == 954

    def test_compositions_match_brute_force(self):
        # lexicographic tuples of nonnegative parts; a negative total has none
        for total in range(-1, 7):
            for parts in range(0, 5):
                want = [t for t in itertools.product(range(max(total, 0) + 1), repeat=parts)
                        if sum(t) == total]
                assert list(_compositions(total, parts)) == want, (total, parts)

    def test_at_most_one_relation_per_arrow(self):
        # the lemma domains read relation counts 0 to n + 1 only
        for tag in FAMILY_TAGS:
            for n in range(0, 7):
                assert not any(oracle_specs(tag, n, r) for r in range(n + 2, n + 6))

    @pytest.mark.parametrize("tag, params, text", [
        ("L0", (0, 0), "L0(0,0): needs p >= 1"),
        ("L1", (1, 1, 0, 1, 0), "L1(1,1,0,1,0): needs p2 + p3 >= 2"),
        ("L2pSix", (1, 1, 0, 0, 0, 0), "L2pSix(1,1,0,0,0,0): needs p3 + p4 + r1 + r2 >= 1"),
        ("L2pFive", (1, 2, 1, 0, 0), "L2pFive(1,2,1,0,0): needs r2 in [1, p2-1]"),
        ("G2", (1, 1, 0, -1), "G2(1,1,0,-1): needs r' >= 0"),
        ("L3", (1,), "unknown family tag 'L3'"),
        ("G0", (1, 1), "G0 takes 3 parameters, got 2"),
    ])
    def test_check_spec_names_the_first_failure(self, tag, params, text):
        with pytest.raises(ConstraintViolation) as info:
            check_spec(FamilySpec(tag, params))
        assert str(info.value) == text


class TestOneRecipePerShape:
    def test_recipes_match_the_separate_ones(self):
        # L2 is the connector shape with an empty second half, and G0, G1 and
        # G2 are one double-arrow shape: same vertices, arrows, relations and
        # order as a recipe of their own
        specs = [sp for tag in FAMILY_TAGS for n in range(1, 9) for r in range(n + 2)
                 for sp in _specs(tag, n, r)]
        assert {sp.tag for sp in specs} == set(FAMILY_TAGS)
        for sp in specs:
            b = ORACLE_RECIPES[sp.tag](*sp.params)
            want, got = b.named(sp.tag), build_family(sp)
            assert (got.vertices, got.arrows, got.relations, got.name) == \
                (want.vertices, want.arrows, want.relations, want.name), sp
            q = _family_ints(sp)
            assert (q.n, q.ends, q.rels, q.outs, q.ins) == \
                (len(b.outs), b.ends, b.rels, b.outs, b.ins), sp


class TestFamilyInts:
    def test_matches_named_build(self):
        specs = set(theorem_list(8)) | set(_closed_form_specs(10)) | set(specs_up_to(8))
        assert {sp.tag for sp in specs} == set(FAMILY_TAGS)
        for sp in sorted(specs):
            assert record_fields(_family_ints(sp)) == record_fields(build_family(sp)._ints), sp


class TestRecognize:
    def test_round_trip(self):
        pool = [
            spec("L0", 1, 0), spec("L0", 3, 2), spec("L0p", 2, 0),
            spec("L1", 1, 2, 0, 1, 0), spec("L1", 2, 1, 2, 0, 1),
            spec("L2", 1, 1, 1, 0, 0), spec("L2", 2, 2, 1, 1, 0),
            spec("L2pFive", 1, 2, 1, 0, 1),
            spec("G0", 2, 2, 1), spec("G1", 2, 1, 1, 2),
        ]
        for sp in pool:
            got = recognize(build_family(sp))
            assert got is not None
            assert canonical_key(build_family(got)) == canonical_key(build_family(sp))

    def test_relabeled(self):
        rng = random.Random(99)
        bq = random_relabel(build_family(spec("L2", 2, 1, 0, 1, 0)), rng)
        # with a vanishing connector the two cycles are interchangeable, so
        # two specs match; the least one wins
        got = recognize(bq)
        assert got == spec("L2", 1, 2, 0, 0, 1)
        assert is_isomorphic(build_family(got), bq)

    def test_non_family(self, two_cycle_classes):
        keys = set()
        for sp in theorem_list(3):
            keys.add(canonical_key(build_family(sp)))
        misses = [bq for bq in two_cycle_classes(3)
                  if canonical_key(bq) not in keys]
        assert misses
        assert any(recognize(bq) is None for bq in misses)

    def test_family_coincidences(self):
        # a symmetric mixed cycle admits the connector swap as an isomorphism
        got = recognize(build_family(spec("L1", 2, 2, 2, 1, 1)))
        assert got == spec("L1", 2, 2, 1, 2, 1)
        assert is_isomorphic(build_family(got),
                             build_family(spec("L1", 2, 2, 2, 1, 1)))
        # ... and the double-arrow shapes coincide across families at q = 1
        got = recognize(build_family(spec("L0p", 6, 0)))
        assert got == spec("G0", 1, 6, 0)

    def test_round_trip_larger_sizes(self):
        for sp in [spec("L0", 7, 3), spec("L0p", 5, 2),
                   spec("L1", 2, 2, 2, 1, 0), spec("L2", 3, 2, 2, 1, 1)]:
            got = recognize(build_family(sp))
            assert got is not None
            assert canonical_key(build_family(got)) == canonical_key(build_family(sp))


class TestRecognizeTable:
    def test_theorem_list_and_relabels(self):
        rng = random.Random(6)
        for sp in theorem_list(6):
            bq = build_family(sp)
            want = oracle_recognize(bq)
            assert want is not None
            assert recognize(bq) == want
            copy = random_relabel(bq, rng)
            assert recognize(copy) == oracle_recognize(copy) == want

    def test_two_cycle_classes(self, two_cycle_classes):
        got = [(recognize(bq), oracle_recognize(bq))
               for n in range(1, 5) for bq in two_cycle_classes(n)]
        assert all(a == b for a, b in got)
        assert sum(a is None for a, _b in got) > len(got) // 2


class TestPhiFormula:
    def test_examples(self):
        assert phi_formula(spec("L0", 3, 1)) == types((3, 5))
        assert phi_formula(spec("L1", 1, 2, 0, 1, 0)) == types((0, 3), (1, 0), (1, 1))
        assert phi_formula(spec("L2", 1, 1, 1, 0, 0)) == types((0, 1), (0, 1), (1, 1))
        assert phi_formula(spec("L0p", 2, 0)) == types((3, 5))

    def test_out_of_scope(self):
        with pytest.raises(OutOfLemmaScope):
            phi_formula(spec("G0", 1, 1, 0))
        with pytest.raises(OutOfLemmaScope):
            phi_formula(spec("L0p", 2, 1))
        with pytest.raises(OutOfLemmaScope):
            phi_formula(spec("L2pFive", 1, 2, 1, 0, 1))

    def test_matches_computed_small(self):
        for sp in theorem_list(4):
            if sp.tag == "L0p" and sp.params[1] != 0:
                continue
            assert phi_formula(sp) == phi(build_family(sp)), str(sp)


class TestTheoremList:
    def test_max_two(self):
        got = theorem_list(2)
        assert got == sorted([
            spec("L0", 1, 0),
            spec("L2", 1, 1, 1, 0, 0),
            spec("L2", 2, 1, 0, 1, 0),
        ])

    def test_all_entries_build(self):
        for sp in theorem_list(5):
            bq = build_family(sp)
            assert cycle_rank(bq) == 2
            assert len(bq.vertices) <= 5

    def test_no_duplicates(self):
        lst = theorem_list(6)
        assert len(lst) == len(set(lst))

    def test_side_conditions(self):
        for sp in theorem_list(6):
            if sp.tag == "L1":
                p1, p2, p3, p4, r1 = sp.params
                assert p3 > p4 or (p3 == p4 and p2 > r1)
            elif sp.tag == "L2":
                p1, p2, p3, r1, r2 = sp.params
                assert p1 > p2 or (p1 == p2 and r1 >= r2)
            elif sp.tag == "L0p":
                assert sp.params[1] == 0

    def test_min_bound(self):
        with pytest.raises(ValueError):
            theorem_list(1)

    def test_matches_the_classification_loops(self, monkeypatch):
        # a filter of the closed-form specs: no inequality is tested again
        want = {n: oracle_theorem_list(n) for n in range(2, 13)}
        real, calls = families._failed_inequality, []
        monkeypatch.setattr(families, "_failed_inequality",
                            lambda *args: calls.append(1) or real(*args))
        for n in range(2, 13):
            assert theorem_list(n) == want[n], n
        assert calls == []

    def test_generator_stops_at_the_vertex_bound(self, monkeypatch):
        # the list is the filter it replaced, and the generator yields no
        # spec that theorem_list would throw away for its size
        def oracle(n):
            return [sp for sp in _closed_form_specs(2 * n)
                    if family_size(sp) <= n and families._tie_break(sp)]

        want = {n: oracle(n) for n in range(2, 13)}
        real, sizes = families._closed_form_specs, []

        def recorded(*args):
            for sp in real(*args):
                sizes.append(family_size(sp))
                yield sp

        monkeypatch.setattr(families, "_closed_form_specs", recorded)
        for n in range(2, 13):
            sizes.clear()
            assert theorem_list(n) == want[n], n
            assert max(sizes) == n, n
