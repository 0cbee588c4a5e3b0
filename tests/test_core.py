import dataclasses
import itertools
import pickle
import random

import pytest

import gentleq.core
from gentleq.core import (
    _arcs_connected,
    _canonical_code,
    _code,
    _decode,
    _form,
    _Ints,
    _serial_key,
    _valid,
    _witnesses,
    BoundQuiver,
    QuiverError,
    QuiverSyntaxError,
    compact_key,
    is_isomorphic,
    make_bound_quiver,
    parse,
    require_valid,
    serialize,
    validate,
)
from gentleq.families import build_family, family_size, recognize, spec, theorem_list
from gentleq.invariant import cartan_matrix, phi
from gentleq.moves import Move, MoveKind, _replay, applicable_moves, apply_move
from gentleq.orbit import (
    SizeClass,
    _enumerate_cached,
    _junction_choices,
    enumerate_classes,
    normalize,
)

from oracle_helpers import (
    ArrowClass,
    CycleRankError,
    _oracle_refined_colors,
    canonical_form,
    canonical_key,
    cycle_rank,
    oracle_canonical_form,
    oracle_classify_arrows,
    oracle_connected,
    oracle_fin_fails,
    oracle_adjacency,
    oracle_free_preds,
    oracle_generator_images,
    oracle_index,
    oracle_validate,
    opposite,
    random_relabel,
    record_fields,
    shapes_of_size,
)

L0_TEXT = """\
quiver L0
vertex w0
vertex w1
arrow a1 w1 w0
arrow b w0 w1
arrow c w0 w1
rel a1 b
rel c a1
end
"""


def a2_quiver():
    return make_bound_quiver(["x", "y"], [("al", "y", "x")], [])


def two_loops(rels):
    return make_bound_quiver(["x"], [("al", "x", "x"), ("be", "x", "x")], rels)


def vertex_degrees(bq):
    """(out, in, loops, junction) of each vertex, in listed order."""
    src = {a: s for a, s, _t in bq.arrows}
    return [
        (sum(1 for _a, s, _t in bq.arrows if s == v),
         sum(1 for _a, _s, t in bq.arrows if t == v),
         sum(1 for _a, s, t in bq.arrows if s == v == t),
         sum(1 for f, _s in bq.relations if src[f] == v))
        for v in bq.vertices
    ]


class TestIdentifierCheck:
    @pytest.mark.parametrize("build, message", [
        (lambda: make_bound_quiver(["x", "b-d"], [], []),
         "invalid vertex identifier 'b-d'"),
        (lambda: make_bound_quiver(["x", "y"], [("a l", "x", "y")], []),
         "invalid arrow identifier 'a l'"),
        (lambda: make_bound_quiver(["x"], [], [], name="q!"),
         "invalid quiver name identifier 'q!'"),
        (lambda: make_bound_quiver([""], [], []),
         "invalid vertex identifier ''"),
        # a trailing newline would make a text that does not parse back
        (lambda: make_bound_quiver(["x\n", "y"], [("a", "x\n", "y")], []),
         "invalid vertex identifier 'x\\n'"),
        (lambda: make_bound_quiver(["x", "y"], [("a\n", "x", "y")], []),
         "invalid arrow identifier 'a\\n'"),
        (lambda: make_bound_quiver(["x"], [], [], name="q\n"),
         "invalid quiver name identifier 'q\\n'"),
    ])
    def test_bad_ids_raise(self, build, message):
        # twice: a rejected id is never remembered as valid
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message


class TestConstructor:
    """One pass checks the vertices (id, then duplicate), the arrows (id,
    duplicate, unknown end), the name and the relations (unknown arrow,
    composability), and reports the first fault in that order."""

    @pytest.mark.parametrize("vertices, arrows, relations, name, message", [
        (["b-d"], [], [], "q!", "invalid vertex identifier 'b-d'"),
        (["x", "x"], [("a l", "x", "x")], [], "q", "duplicate vertex id 'x'"),
        (["x", "x", "b-d"], [], [], "q", "duplicate vertex id 'x'"),
        (["b-d", "x", "x"], [], [], "q", "invalid vertex identifier 'b-d'"),
        (["x", "b-d"], [("a", "x", "y")], [("a", "a")], "q", "invalid vertex identifier 'b-d'"),
        (["x", "x"], [("a", "x", "z")], [], "q", "duplicate vertex id 'x'"),
        (["x"], [("a l", "x", "z")], [], "q", "invalid arrow identifier 'a l'"),
        (["x", "y"], [("a", "x", "y"), ("a", "x", "y")], [("a", "a")], "q",
         "duplicate arrow id 'a'"),
        (["x", "y"], [("a", "x", "y"), ("a", "y", "x")], [("a", "zz")], "q",
         "duplicate arrow id 'a'"),
        (["x"], [("a", "x", "z"), ("a l", "x", "x")], [], "q",
         "arrow 'a' references unknown vertex"),
        (["x"], [("a", "x", "z")], [], "q!", "arrow 'a' references unknown vertex"),
        (["x"], [], [("a", "b")], "q!", "invalid quiver name identifier 'q!'"),
        (["x", "y"], [("a", "x", "y"), ("b", "x", "y")], [("a", "b")], "q!",
         "invalid quiver name identifier 'q!'"),
        (["x", "y"], [("a", "x", "y")], [("a", "c")], "q",
         "relation references unknown arrow (a, c)"),
        (["x", "y"], [("a", "x", "y"), ("b", "x", "y")], [("a", "b")], "q",
         "relation (a, b) not composable: source(a)=x but target(b)=y"),
    ])
    def test_first_fault_wins(self, vertices, arrows, relations, name, message):
        with pytest.raises(ValueError) as err:
            make_bound_quiver(vertices, arrows, relations, name)
        assert str(err.value) == message

    def test_index_matches_oracle(self):
        # the record each quiver is made with, and the opposite record it
        # derives, against the names
        built = [build_family(sp) for sp in theorem_list(8)]
        pool = small_classes() + list(random_bound_quivers()) + built
        assert len(pool) == 982 + 3000 + len(built)
        for bq in pool:
            for q in (bq, opposite(bq)):
                for r in (q, parse(serialize(q)), _form(_canonical_code(q))):
                    assert record_fields(r._ints) == oracle_index(r), serialize(q)
                    assert (r._ints.outs, r._ints.ins) == oracle_adjacency(r), serialize(q)
            op = bq._ints.opposite()
            assert record_fields(op) == oracle_index(opposite(bq)), serialize(bq)
            assert (op.outs, op.ins) == oracle_adjacency(opposite(bq)), serialize(bq)


class TestParse:
    def test_l0_file(self):
        bq = parse(L0_TEXT)
        assert len(bq.vertices) == 2
        assert len(bq.arrows) == 3
        assert bq.relations == frozenset({("a1", "b"), ("c", "a1")})
        assert bq == build_family(spec("L0", 1, 0))

    def test_single_vertex_no_arrows(self):
        bq = parse("quiver t\nvertex x\nend\n")
        assert bq.vertices == ("x",)
        assert bq.arrows == ()

    def test_noncomposable_relation_rejected(self):
        text = "quiver t\nvertex x\nvertex y\narrow a x y\narrow b x y\nrel a b\nend\n"
        with pytest.raises(QuiverSyntaxError) as err:
            parse(text)
        assert "not composable" in str(err.value)
        assert err.value.line == 6

    def test_comments_and_blanks(self):
        bq = parse("# header\nquiver t # name\n\nvertex x\nend\n")
        assert bq.vertices == ("x",)

    @pytest.mark.parametrize("text,fragment", [
        ("vertex x\nend\n", "quiver"),
        ("quiver t\nvertex x\nvertex x\nend\n", "duplicate vertex"),
        ("quiver t\nvertex x\narrow a x z\nend\n", "unknown target"),
        ("quiver t\nvertex x\narrow a x x\narrow a x x\nend\n", "duplicate arrow"),
        ("quiver t\nvertex x\nrel a b\nend\n", "unknown arrow"),
        ("quiver t\nvertex x\n", "missing 'end'"),
        ("quiver t\nvertex x\nend\nvertex y\n", "after 'end'"),
        ("quiver t\nvertex x\narrow a x x\nrel a a\nrel a a\nend\n", "duplicate relation"),
        ("quiver t\nfrobnicate x\nend\n", "unknown directive"),
    ])
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(QuiverSyntaxError) as err:
            parse(text)
        assert fragment in str(err.value)


class TestSerialize:
    def test_round_trip_structure(self):
        bq = parse(L0_TEXT)
        assert parse(serialize(bq)) == bq

    def test_l2_line_counts(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        lines = serialize(bq).splitlines()
        assert sum(1 for l in lines if l.startswith("vertex ")) == 2
        assert sum(1 for l in lines if l.startswith("arrow ")) == 3
        assert sum(1 for l in lines if l.startswith("rel ")) == 2

    def test_single_vertex(self):
        bq = make_bound_quiver(["x"], [], [])
        assert serialize(bq) == "quiver q\nvertex x\nend\n"

    def test_deterministic(self):
        bq = build_family(spec("L1", 2, 2, 1, 1, 1))
        assert serialize(bq) == serialize(parse(serialize(bq)))


class TestValidate:
    def test_l0_ok(self):
        assert validate(parse(L0_TEXT)) == ()

    def test_two_loops_self_relations_fail_fin(self):
        violations = validate(two_loops([("al", "al"), ("be", "be")]))
        assert [v.condition for v in violations] == ["FIN"]
        # the witness is the alternating loop cycle
        assert set(violations[0].witness.split()[-1].split(",")) == {"al", "be"}

    def test_two_loops_cross_relations_fail_fin(self):
        violations = validate(two_loops([("al", "be"), ("be", "al")]))
        assert [v.condition for v in violations] == ["FIN"]

    def test_g1_violation(self):
        bq = make_bound_quiver(
            ["x", "y"],
            [("a", "x", "y"), ("b", "x", "y"), ("c", "x", "y")],
            [],
        )
        assert any(v.condition == "G1" for v in validate(bq))

    def test_g3_violation(self):
        # two free continuations of the same arrow
        bq = make_bound_quiver(
            ["x", "y", "z", "w"],
            [("a", "x", "y"), ("b", "y", "z"), ("c", "y", "w")],
            [],
        )
        assert any(v.condition == "G3" for v in validate(bq))

    def test_g4_violation(self):
        bq = make_bound_quiver(
            ["x", "y", "z", "w"],
            [("a", "x", "y"), ("b", "y", "z"), ("c", "y", "w")],
            [("b", "a"), ("c", "a")],
        )
        assert any(v.condition == "G4" for v in validate(bq))

    def test_conn_flag(self):
        bq = make_bound_quiver(["x", "y"], [], [])
        assert validate(bq) == ()
        assert any(v.condition == "CONN" for v in validate(bq, require_connected=True))

    def test_fin_matches_oracle_on_all_relation_sets(self, two_cycle_classes):
        # every gentle relation assignment on the small shapes, plus the
        # enumerated classes themselves
        for n in (2, 3):
            for bq in two_cycle_classes(n):
                assert not oracle_fin_fails(bq)
        bad = two_loops([("al", "al"), ("be", "be")])
        assert oracle_fin_fails(bad)
        assert any(v.condition == "FIN" for v in validate(bad))


def random_bound_quivers(seed=3, count=3000):
    """Seeded bound quivers with arbitrary degrees and relation sets, so G1,
    G3, G4 and FIN fail as well as pass."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        vs = ["v%d" % i for i in range(n)]
        arrows = [("a%d" % k, rng.choice(vs), rng.choice(vs))
                  for k in range(rng.randint(0, 7))]
        pairs = [(f, s) for f, fs, _ft in arrows for s, _ss, st in arrows if fs == st]
        rels = [p for p in pairs if rng.random() < 0.4]
        yield make_bound_quiver(vs, arrows, rels)


class TestIntegerValidity:
    """``_valid`` against the witness walk ``_witnesses``, which ``validate``
    runs only when ``_valid`` fails, and the walk against the named
    ``oracle_validate`` on the relation-stage candidates."""

    def test_relation_stage_candidates(self):
        # every candidate the enumerator's relation stage tries, kept or not
        sizes = [(n, a) for n in range(1, 5) for a in range(2 * n + 1)] + [(5, 6)]
        kept = rejected = 0
        for n, a in sizes:
            for shape in shapes_of_size(n, a):
                form = _form(shape)
                names = [k for k, _s, _t in form.arrows]
                q = _decode(shape)
                for combo in itertools.product(*_junction_choices(q)):
                    rels = {pair for choice in combo for pair in choice}
                    cand = BoundQuiver(form.vertices, form.arrows, frozenset(
                        (names[f], names[s]) for f, s in rels))
                    violations = _witnesses(cand, False)
                    assert violations == oracle_validate(cand), serialize(cand)
                    want = not violations
                    assert _valid(_Ints(n, q.ends, rels)) == want, serialize(cand)
                    assert validate(cand) == violations, serialize(cand)
                    kept += want
                    rejected += not want
        assert kept and rejected

    def test_random_bound_quivers(self):
        seen = set()
        for bq in random_bound_quivers():
            bad = _witnesses(bq, False)
            assert _valid(bq._ints) == (not bad), serialize(bq)
            assert validate(bq) == bad, serialize(bq)
            seen.update(v.condition for v in bad)
            seen.add("ok" if not bad else "bad")
        assert seen == {"G1", "G3", "G4", "FIN", "ok", "bad"}


class TestValidateAgainstOracle:
    """``validate`` on indices against the named ``oracle_validate``,
    witness texts and order included."""

    @staticmethod
    def check(bq):
        for connected in (False, True):
            got = validate(bq, require_connected=connected)
            assert got == oracle_validate(bq, require_connected=connected), serialize(bq)
        return got

    def test_classes_at_every_arrow_count(self):
        count = 0
        for n in range(1, 5):
            for a in range(2 * n + 1):
                for bq in enumerate_classes(SizeClass(n, a)):
                    assert self.check(bq) == ()
                    count += 1
        assert count == 982

    def test_random_named_quivers(self):
        # names whose text order differs from their listed order, so the
        # arrow-id order of G3, G4 and the FIN search shows in the witnesses
        rng = random.Random(7)
        pool = ["a", "b", "x", "a1", "a10", "a2", "b0", "e9", "e10", "Q", "q_1"]
        pool += ["u%d" % i for i in range(20)]
        seen = set()
        for _ in range(500):
            n, m = rng.randint(1, 6), rng.randint(0, 10)
            names = rng.sample(pool, n + m)
            vs = names[:n]
            arrows = [(a, rng.choice(vs), rng.choice(vs)) for a in names[n:]]
            pairs = [(f, s) for f, fs, _ft in arrows for s, _ss, st in arrows if fs == st]
            p = rng.random()
            bq = make_bound_quiver(vs, arrows, [q for q in pairs if rng.random() < p])
            for q in (bq, opposite(bq)):
                seen.update(v.condition for v in self.check(q))
        assert seen == {"G1", "G3", "G4", "FIN", "CONN"}


class TestConnectivity:
    # the empty quiver, one vertex and a disconnected pair included
    @pytest.mark.parametrize("vertices, arrows", [
        ([], []),
        (["x"], []),
        (["x"], [("l", "x", "x")]),
        (["x", "y"], []),
        (["x", "y"], [("a", "y", "x")]),
        (["x", "y", "z"], [("a", "z", "z"), ("b", "x", "y")]),
    ])
    def test_matches_oracle(self, vertices, arrows):
        bq = make_bound_quiver(vertices, arrows, [])
        want = oracle_connected(bq)
        assert _arcs_connected(bq._ints.n, bq._ints.ends) == want


class TestSerialKey:
    def test_orders_as_serialize(self):
        # 13 arrows put a10..a12 between a1 and a2 in the text
        big = [_canonical_code(build_family(sp)) for sp in theorem_list(12)
               if family_size(sp) == 12]
        assert len(big) > 1
        for codes in [big] + [[_canonical_code(c) for c in enumerate_classes(SizeClass(n, a))]
                              for n in (3, 4) for a in range(2 * n + 1)]:
            codes = sorted(codes)
            assert sorted(codes, key=_serial_key) == \
                sorted(codes, key=lambda c: serialize(_form(c)))


class TestCycleRank:
    """The test-side cycle rank the oracles lean on."""

    def test_l0(self):
        assert cycle_rank(parse(L0_TEXT)) == 2

    def test_single_vertex(self):
        assert cycle_rank(make_bound_quiver(["x"], [], [])) == 0

    def test_a3_tree(self):
        bq = make_bound_quiver(
            ["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z")], [])
        assert cycle_rank(bq) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(QuiverError, match="only defined for connected"):
            cycle_rank(make_bound_quiver(["x", "y"], [], []))


class TestClassifyArrows:
    """The arrow trichotomy on hand-worked cases, by the oracle on names."""

    def test_l2_connector(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        classes, connecting = oracle_classify_arrows(bq)
        assert classes == {
            "a1": ArrowClass.CYCLE,
            "b1": ArrowClass.CYCLE,
            "g1": ArrowClass.CONNECTING,
        }
        assert connecting == frozenset({"va", "vb"})

    def test_l0_all_cycle(self):
        bq = parse(L0_TEXT)
        classes, connecting = oracle_classify_arrows(bq)
        assert set(classes.values()) == {ArrowClass.CYCLE}
        assert connecting == frozenset({"w0", "w1"})

    def test_pendant_branch(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        arrows = list(bq.arrows) + [("p", "va", "w")]
        ext = make_bound_quiver(list(bq.vertices) + ["w"], arrows, bq.relations)
        classes, _ = oracle_classify_arrows(ext)
        assert classes["p"] == ArrowClass.BRANCH

    def test_wrong_rank_rejected(self):
        with pytest.raises(CycleRankError):
            oracle_classify_arrows(a2_quiver())

    def test_trichotomy_on_sweep(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            classes, _ = oracle_classify_arrows(bq)
            for a, _s, _t in bq.arrows:
                rest_arrows = [x for x in bq.arrows if x[0] != a]
                rest = BoundQuiver(bq.vertices, tuple(rest_arrows), frozenset())
                if oracle_connected(rest):
                    assert classes[a] == ArrowClass.CYCLE
                else:
                    assert classes[a] in (ArrowClass.BRANCH, ArrowClass.CONNECTING)


def with_pendant_tree(bq):
    """``bq`` with a two-arrow path hanging off its first vertex."""
    v = bq.vertices[0]
    return make_bound_quiver(
        list(bq.vertices) + ["p0", "p1"],
        list(bq.arrows) + [("t0", v, "p0"), ("t1", "p0", "p1")],
        bq.relations,
    )


class TestClassifyArrowsOracle:
    """The union-find on names over the two-cycle classes."""

    def test_two_cycle_classes_with_pendant_trees(self, two_cycle_classes):
        seen = set()
        for n in range(1, 6):
            for bq in two_cycle_classes(n):
                for q in (bq, opposite(bq)):
                    for r in (q, with_pendant_tree(q)):
                        classes, _connecting = oracle_classify_arrows(r)
                        assert list(classes) == [a for a, _s, _t in r.arrows]
                        seen.update(classes.values())
        assert seen == {ArrowClass.CYCLE, ArrowClass.BRANCH, ArrowClass.CONNECTING}


class TestOpposite:
    def test_involution(self):
        bq = parse(L0_TEXT)
        assert opposite(opposite(bq)) == bq

    def test_a2(self):
        out = opposite(a2_quiver())
        assert out.arrows == (("al", "x", "y"),)

    def test_preserves_validity_and_rank(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            assert validate(opposite(bq)) == ()
            assert cycle_rank(opposite(bq)) == 2

    def test_preserves_invalidity(self):
        bad = two_loops([("al", "al"), ("be", "be")])
        assert {v.condition for v in validate(bad)} == \
            {v.condition for v in validate(opposite(bad))}


class TestCanonicalKey:
    def test_relabel_invariance(self, two_cycle_classes):
        rng = random.Random(20240817)
        pool = list(two_cycle_classes(3)) + list(two_cycle_classes(2))
        pool.append(build_family(spec("L1", 1, 2, 0, 1, 0)))
        for bq in pool:
            key = canonical_key(bq)
            for _ in range(5):
                assert canonical_key(random_relabel(bq, rng)) == key

    def test_different_shapes_differ(self):
        assert canonical_key(parse(L0_TEXT)) != canonical_key(
            build_family(spec("L2", 1, 1, 1, 0, 0)))

    def test_two_loop_relation_sets_differ(self):
        # neither passes FIN, but the keys still separate them
        a = two_loops([("al", "al"), ("be", "be")])
        b = two_loops([("al", "be"), ("be", "al")])
        assert canonical_key(a) != canonical_key(b)

    def test_is_isomorphic_via_relabeling(self):
        rng = random.Random(7)
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        assert is_isomorphic(bq, random_relabel(bq, rng))

    def test_canonical_vertices_in_degree_order(self, two_cycle_classes):
        # every shape class's canonical form is then one of the degree-sorted
        # labelings the enumerator keeps; a generator that accepts only
        # labelings equal to their own canonical form depends on this
        rng = random.Random(20261017)
        pool = [bq for n in range(1, 6) for bq in two_cycle_classes(n)]
        pool += [bq for n in range(1, 5) for a in range(2 * n + 1)
                 for bq in enumerate_classes(SizeClass(n, a))]
        for bq in pool:
            for copy in (bq, random_relabel(bq, rng), random_relabel(bq, rng)):
                degrees = vertex_degrees(canonical_form(copy))
                assert degrees == sorted(degrees), serialize(bq)

    def test_opposite_commutes_with_keys(self, two_cycle_classes):
        for bq in two_cycle_classes(2):
            for cq in two_cycle_classes(2):
                same = canonical_key(bq) == canonical_key(cq)
                same_op = canonical_key(opposite(bq)) == canonical_key(opposite(cq))
                assert same == same_op


class TestKernelAgainstOracle:
    """The integer labeling kernel returns exactly the quiver the string-keyed
    brute-force labeling returns."""

    @staticmethod
    def check(pool):
        for bq in pool:
            got, want = canonical_form(bq), oracle_canonical_form(bq)
            assert got == want, serialize(bq)
            assert serialize(got) == serialize(want)

    def test_small_classes(self):
        self.check(bq for n in range(1, 5) for a in range(2 * n + 1)
                   for bq in enumerate_classes(SizeClass(n, a)))

    def test_two_cycle_n5_relabels_and_opposites(self, two_cycle_classes):
        rng = random.Random(5)
        pool = []
        for bq in two_cycle_classes(5):
            copy = random_relabel(bq, rng)
            pool += [bq, copy, opposite(copy)]
        self.check(pool)

    def test_generator_images(self, two_cycle_classes):
        for n in range(1, 5):
            for bq in two_cycle_classes(n):
                reflections, op = oracle_generator_images(bq)
                self.check(reflections + [op])

    def test_bundles_with_relations(self):
        # L0p and G0-G2 have parallel arrows inside relations
        self.check(build_family(sp) for sp in theorem_list(8))
        self.check(build_family(spec(tag, 2, 2, 1, 1)) for tag in ("G1", "G2"))
        self.check([build_family(spec("G0", 2, 3, 1))])

    def test_non_discrete_refinement(self):
        # two copies of a two-arrow path with its relation, and a loop
        bq = make_bound_quiver(
            ["z", "x0", "x1", "x2", "y0", "y1", "y2"],
            [("a", "x0", "x1"), ("b", "x1", "x2"), ("c", "y0", "y1"),
             ("d", "y1", "y2"), ("e", "z", "z")],
            [("b", "a"), ("d", "c")],
        )
        assert len(set(_oracle_refined_colors(bq).values())) < len(bq.vertices)
        self.check([bq, opposite(bq)])

    def test_empty_quiver(self):
        empty = make_bound_quiver([], [], [])
        self.check([empty])
        assert canonical_form(empty).vertices == ()

    def test_name_tables_grow(self):
        bq = build_family(spec("L0", 130, 3))
        self.check([bq])
        form = canonical_form(bq)
        assert form.vertices == tuple("v%d" % i for i in range(131))
        assert [a for a, _s, _t in form.arrows] == ["a%d" % k for k in range(132)]

    def test_names_shared(self):
        a = canonical_form(build_family(spec("L0", 2, 0)))
        b = canonical_form(build_family(spec("L2", 1, 1, 1, 0, 0)))
        assert a.vertices[1] is b.vertices[1]
        assert a.arrows[0][0] is b.arrows[0][0]


def fresh(bq):
    """An equal bound quiver whose record has computed nothing yet."""
    return BoundQuiver(bq.vertices, bq.arrows, bq.relations, bq.name)


def blank_record(q) -> bool:
    """Whether the record ``q`` has computed nothing about itself yet."""
    return q._op is None and q._pred is None and q.code is None and not q.verdicts


def small_classes():
    return [bq for n in range(1, 5) for a in range(2 * n + 1)
            for bq in enumerate_classes(SizeClass(n, a))]


class TestQuiverMemo:
    """Each bound quiver builds its record ``_ints`` when it is made, and the
    record computes ``validate`` per flag and the canonical code once; what
    the record keeps changes no result and no identity."""

    @staticmethod
    def outcome(f, bq):
        try:
            return f(bq)
        except QuiverError as exc:
            return type(exc), str(exc)

    def check(self, bq):
        want = {flag: validate(fresh(bq), flag) for flag in (False, True)}
        for order in ((False, True), (True, False)):
            q = fresh(bq)
            for flag in order + order:
                assert validate(q, flag) == want[flag], serialize(bq)
        q = fresh(bq)
        for f in (phi, cartan_matrix, compact_key):
            got = self.outcome(f, fresh(bq))
            for _ in range(2):
                assert self.outcome(f, q) == got, serialize(bq)

    def test_small_classes(self):
        classes = small_classes()
        assert len(classes) == 982
        for bq in classes:
            self.check(bq)
            self.check(opposite(bq))

    def test_random_bound_quivers(self):
        for bq in random_bound_quivers():
            self.check(bq)

    def test_seeds_equal_computed(self):
        # _form seeds the code it is drawn from
        for bq in small_classes() + list(random_bound_quivers(count=300)):
            for q in (bq, opposite(bq)):
                code = _canonical_code(fresh(q))
                form = _form(code)
                assert form._ints.code == _code(*oracle_index(form)) == code, serialize(q)

    def test_free_pred_matches_oracle(self):
        for bq in small_classes():
            for q in (bq, opposite(bq)):
                preds = oracle_free_preds(q)
                assert all(len(p) <= 1 for p in preds), serialize(q)
                got = q._ints.free_pred()
                assert got == [p[0] if p else -1 for p in preds], serialize(q)
                assert q._ints.free_pred() is got

    def test_free_pred_checks_g3(self):
        # a leaves x, and b and c enter x outside the relations
        bq = make_bound_quiver(["x", "y", "z", "w"],
                               [("a", "x", "w"), ("b", "y", "x"), ("c", "z", "x")], [])
        assert validate(bq)[0].witness == "arrow a has free predecessors b,c"
        with pytest.raises(AssertionError):
            bq._ints.free_pred()
        assert bq._ints._pred is None

    def test_decode_round_trip(self):
        for n in range(1, 6):
            for a in range(2 * n + 1) if n < 5 else (n, n + 1):
                for code in _enumerate_cached(SizeClass(n, a), 1):
                    q = _decode(code)
                    assert _code(q.n, q.ends, q.rels) == code

    def test_identity_ignores_memo(self):
        bq = build_family(spec("L1", 1, 2, 0, 1, 0))
        used = parse(serialize(bq))
        blank = fresh(used)
        validate(used, True)
        compact_key(used)
        applicable_moves(used)  # makes the opposite record
        assert used._ints._op is not None and blank._ints._op is None
        assert used._ints.code is not None and blank._ints.code is None
        assert used._ints.verdicts and not blank._ints.verdicts
        assert used._ints._pred is not None and blank._ints._pred is None
        assert used == blank and hash(used) == hash(blank)
        assert repr(used) == repr(blank)
        assert "_ints" not in repr(used) and "code" not in repr(used)
        assert serialize(used) == serialize(blank)
        assert pickle.dumps(used) == pickle.dumps(blank)
        back = pickle.loads(pickle.dumps(used))
        assert back == used and blank_record(back._ints)
        assert record_fields(back._ints) == record_fields(used._ints)
        assert (back._ints.outs, back._ints.ins) == (used._ints.outs, used._ints.ins)
        assert validate(back, True) == () and compact_key(back) == compact_key(used)
        renamed = dataclasses.replace(used, name="z")
        assert renamed == used and blank_record(renamed._ints)
        assert record_fields(renamed._ints) == record_fields(used._ints)
        with pytest.raises(ValueError):
            dataclasses.replace(used, _ints=None)

    def test_query_computes_each_fact_once(self, monkeypatch):
        counts = dict.fromkeys(["_code", "_valid", "_arcs_connected", "_witnesses"], 0)
        for name in counts:
            real = getattr(gentleq.core, name)

            def counted(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(gentleq.core, name, counted)
        made = []
        real_init = BoundQuiver.__post_init__
        monkeypatch.setattr(BoundQuiver, "__post_init__",
                            lambda bq: made.append(bq) or real_init(bq))
        text = serialize(build_family(spec("L1", 1, 2, 0, 1, 0)))
        for bq in (parse(text), build_family(spec("L2", 1, 1, 1, 0, 0))):
            counts.update(dict.fromkeys(counts, 0))
            made.clear()
            for _ in range(2):
                assert validate(bq) == ()
                phi(bq)
                cartan_matrix(bq)
                normalize(bq)
                recognize(bq)
            # the index was built with the quiver, and no quiver is made
            # again; the connected check reuses the plain verdict
            assert made == []
            assert counts == {"_code": 1, "_valid": 1, "_arcs_connected": 1, "_witnesses": 0}

    @staticmethod
    def count_adjacency_builds(monkeypatch) -> list:
        """Record each record made from then on that builds its own out/in
        lists (an opposite record reuses its quiver's)."""
        built = []
        real = _Ints.__init__

        def counted(q, n, ends, rels, adjacency=None):
            if adjacency is None:
                built.append(n)
            real(q, n, ends, rels, adjacency)

        monkeypatch.setattr(_Ints, "__init__", counted)
        return built

    def test_one_record_per_quiver(self, monkeypatch):
        text = serialize(build_family(spec("L1", 1, 2, 0, 1, 0)))
        built = self.count_adjacency_builds(monkeypatch)
        bq = parse(text)
        assert len(built) == 1
        for _ in range(2):
            assert validate(bq) == validate(bq, True) == ()
            phi(bq)
            cartan_matrix(bq)
        assert len(built) == 1

    def test_one_record_per_replayed_step(self, monkeypatch):
        quivers = enumerate_classes(SizeClass(3, 4), two_cycle=True)
        built = self.count_adjacency_builds(monkeypatch)
        kinds = set()
        for bq in quivers:
            for mv in applicable_moves(bq):
                kinds.add(mv.kind)
                built.clear()
                apply_move(bq, mv)
                # the step's record and the output quiver's own
                assert len(built) == 2, (mv, serialize(bq))
            built.clear()
            _replay(bq, (Move(MoveKind.OPPOSITE),) * 3)
            assert len(built) == 3 + 1
        assert kinds == set(MoveKind)

    def test_one_witness_walk_per_flag(self, monkeypatch):
        calls = []
        real = gentleq.core._witnesses
        monkeypatch.setattr(gentleq.core, "_witnesses",
                            lambda bq, flag: calls.append(flag) or real(bq, flag))
        bad = parse("quiver q\nvertex x\nvertex y\nvertex z\n"
                    "arrow a y x\narrow b z x\narrow c x z\nend\n")
        for _ in range(2):
            assert validate(bad)
            for check in (require_valid, phi, cartan_matrix, recognize, normalize):
                with pytest.raises(QuiverError):
                    check(bad)
        assert calls == [False, True]
        assert validate(bad, True) == validate(bad) == validate(fresh(bad))
