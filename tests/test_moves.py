import importlib
import random

import pytest

from gentleq import cli
from gentleq.core import (
    InvalidQuiverError,
    _canonical_code,
    _decode,
    is_isomorphic,
    make_bound_quiver,
    serialize,
    validate,
)
from gentleq.families import build_family, spec
from gentleq.invariant import phi
from gentleq.moves import (
    Move,
    MoveKind,
    MoveNotApplicable,
    PatternMismatch,
    ShiftDirection,
    _KIND_ORDER,
    _generator_codes,
    applicable_moves,
    apply_move,
    shift_relation,
    shift_relation_block,
    shift_relation_block_direct,
    shift_relation_direct,
)

from oracle_helpers import (
    canonical_key,
    opposite,
    oracle_apply_move,
    oracle_gen_apr_precondition,
    oracle_gen_apr_reflect,
    oracle_generator_images,
    oracle_hw_reflect,
    oracle_not_applicable_reason,
    random_relabel,
)


def a3_equioriented():
    return make_bound_quiver(
        ["x", "y", "z"], [("a", "y", "x"), ("b", "z", "y")], [])


def chain_with_relation():
    # z -> y -> x bound at y
    return make_bound_quiver(
        ["x", "y", "z"], [("al", "y", "x"), ("be", "z", "y")], [("al", "be")])


class TestApplicability:
    def test_l0_no_sink(self):
        bq = build_family(spec("L0", 1, 0))
        moves = applicable_moves(bq)
        kinds = {(m.kind, m.vertex) for m in moves}
        assert not any(k is MoveKind.APR_REFLECT for k, _v in kinds)
        assert (MoveKind.GEN_APR_COREFLECT, "w0") in kinds
        assert (MoveKind.GEN_APR_REFLECT, "w1") in kinds
        assert moves[-1] == Move(MoveKind.OPPOSITE)

    def test_a3_sink_source(self):
        kinds = {(m.kind, m.vertex) for m in applicable_moves(a3_equioriented())}
        assert (MoveKind.APR_REFLECT, "x") in kinds
        assert (MoveKind.HW_REFLECT, "x") in kinds
        assert (MoveKind.APR_COREFLECT, "z") in kinds
        assert (MoveKind.HW_COREFLECT, "z") in kinds
        assert not any(k is MoveKind.APR_REFLECT and v != "x" for k, v in kinds)

    def test_loop_variant(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        assert Move(MoveKind.GEN_APR_REFLECT, "va") in applicable_moves(bq)
        # the loop vertex without an outside arrow in is not reflectable
        assert Move(MoveKind.GEN_APR_REFLECT, "vb") not in applicable_moves(bq)

    def test_not_applicable_raises(self):
        with pytest.raises(MoveNotApplicable):
            apply_move(a3_equioriented(), Move(MoveKind.APR_REFLECT, "y"))


class TestApplyMove:
    def test_apr_chain_example(self):
        mv = Move(MoveKind.APR_REFLECT, "x")
        out, moves = apply_move(chain_with_relation(), mv)
        want = make_bound_quiver(
            ["x", "y", "z"], [("p", "z", "x"), ("q", "x", "y")], [])
        assert is_isomorphic(out, want)
        assert canonical_key(out) == canonical_key(want)
        assert moves == (mv,)
        assert phi(out) == phi(chain_with_relation())

    def test_hw_single_vertex_identity(self):
        bq = make_bound_quiver(["x"], [], [])
        out, _ = apply_move(bq, Move(MoveKind.HW_REFLECT, "x"))
        assert out == bq

    def test_loop_variant_on_l2(self):
        bq = build_family(spec("L2", 1, 1, 1, 0, 0))
        out, _ = apply_move(bq, Move(MoveKind.GEN_APR_REFLECT, "va"))
        assert out.relations == bq.relations
        src = {a: s for a, s, t in out.arrows}
        tgt = {a: t for a, s, t in out.arrows}
        assert (src["g1"], tgt["g1"]) == ("va", "vb")  # connector reversed
        assert (src["a1"], tgt["a1"]) == ("va", "va")
        assert is_isomorphic(out, bq)

    def test_counts_and_validity_preserved(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            for mv in applicable_moves(bq):
                out, _ = apply_move(bq, mv)
                assert len(out.vertices) == len(bq.vertices)
                assert len(out.arrows) == len(bq.arrows)
                assert validate(out, require_connected=True) == ()

    def test_phi_preserved(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            p0 = phi(bq)
            for mv in applicable_moves(bq):
                out, _ = apply_move(bq, mv)
                assert phi(out) == p0

    def test_reflection_inverses(self, two_cycle_classes):
        for bq in two_cycle_classes(3):
            for mv in applicable_moves(bq):
                if mv.kind is not MoveKind.APR_REFLECT:
                    continue
                out, _ = apply_move(bq, mv)
                # the generalized coreflection undoes the reflection; when the
                # vertex came out a source this is the plain coreflection
                back, _ = apply_move(out, Move(MoveKind.GEN_APR_COREFLECT, mv.vertex))
                assert is_isomorphic(back, bq)
                strict = Move(MoveKind.APR_COREFLECT, mv.vertex)
                if strict in applicable_moves(out):
                    back2, _ = apply_move(out, strict)
                    assert is_isomorphic(back2, bq)

    def test_apr_reflect_is_gen_apr_reflect_at_sinks(self, two_cycle_classes):
        # half of why closing orbits under the generating moves is exact
        sinks = 0
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                for v in bq.vertices:
                    if any(s == v for _a, s, _t in bq.arrows):
                        continue
                    sinks += 1
                    out, _moves = apply_move(bq, Move(MoveKind.APR_REFLECT, v))
                    gen_out, _moves = apply_move(bq, Move(MoveKind.GEN_APR_REFLECT, v))
                    assert out == gen_out
                    assert canonical_key(out) == canonical_key(gen_out)
                    assert tuple(sorted(out.arrows)) == tuple(sorted(gen_out.arrows))
        assert sinks

    def test_opposite_conjugation(self, two_cycle_classes):
        pairs = [
            (MoveKind.APR_REFLECT, MoveKind.APR_COREFLECT),
            (MoveKind.GEN_APR_REFLECT, MoveKind.GEN_APR_COREFLECT),
            (MoveKind.HW_REFLECT, MoveKind.HW_COREFLECT),
        ]
        for bq in two_cycle_classes(2):
            for refl, corefl in pairs:
                for v in bq.vertices:
                    mv = Move(refl, v)
                    if mv not in applicable_moves(opposite(bq)):
                        continue
                    left, _ = apply_move(opposite(bq), mv)
                    right, _ = apply_move(bq, Move(corefl, v))
                    assert is_isomorphic(left, opposite(right))

    def test_receipt_replay(self):
        # the returned moves replay to the output, arrow by arrow
        bq = chain_with_relation()
        mv = Move(MoveKind.APR_REFLECT, "x")
        out, moves = apply_move(bq, mv)
        assert moves == (mv,)
        assert tuple(sorted(out.arrows)) == (("al", "x", "y"), ("be", "z", "x"))
        assert out.relations == frozenset()
        assert apply_move(bq, *moves)[0] == out
        assert canonical_key(bq) != canonical_key(out)


class TestIntegerKernel:
    """The integer move kernel against the rewrites on names."""

    def test_generator_codes(self, two_cycle_classes):
        rng = random.Random(7)
        for n in range(1, 6):
            for bq in two_cycle_classes(n):
                code = _canonical_code(bq)
                reflections, opp = _generator_codes(_decode(code))
                want, want_opp = oracle_generator_images(bq)
                # a class lists its vertices v0, v1, ... in index order
                assert reflections == [_canonical_code(out) for out in want]
                assert opp == _canonical_code(want_opp)
                copy = random_relabel(bq, rng)
                for q in (copy, opposite(copy)):
                    want, want_opp = oracle_generator_images(q)
                    got, got_opp = _generator_codes(_decode(_canonical_code(q)))
                    assert sorted(got) == sorted(_canonical_code(out) for out in want)
                    assert got_opp == _canonical_code(want_opp)

    def test_named_reflections_on_relabels(self, two_cycle_classes):
        # the kernel on an arbitrary labeling, rebuilt with the original ids
        rng = random.Random(11)
        for n in range(1, 5):
            for bq in two_cycle_classes(n):
                copy = random_relabel(bq, rng)
                for q in (copy, opposite(copy)):
                    for v in q.vertices:
                        if oracle_gen_apr_precondition(q, v) is None:
                            got = apply_move(q, Move(MoveKind.GEN_APR_REFLECT, v))[0]
                            assert serialize(got) == serialize(oracle_gen_apr_reflect(q, v))
                        if not any(s == v for _a, s, _t in q.arrows):
                            got = apply_move(q, Move(MoveKind.HW_REFLECT, v))[0]
                            assert serialize(got) == serialize(oracle_hw_reflect(q, v))

    def test_apply_move_matches_oracle(self, two_cycle_classes):
        applied = 0
        for n in (2, 3, 4):
            for bq in two_cycle_classes(n):
                moves = [Move(kind, v) for v in sorted(bq.vertices) for kind in _KIND_ORDER]
                for mv in moves + [Move(MoveKind.OPPOSITE)]:
                    reason = oracle_not_applicable_reason(bq, mv)
                    if reason is not None:
                        with pytest.raises(MoveNotApplicable) as info:
                            apply_move(bq, mv)
                        assert str(info.value) == "%s: %s" % (mv, reason)
                        continue
                    out, _receipt = apply_move(bq, mv)
                    assert serialize(out) == serialize(oracle_apply_move(bq, mv))
                    applied += 1
        assert applied == 2379

    def test_invalid_input_rejected(self):
        # the kernel assumes a valid input; an invalid one is an input error
        bq = make_bound_quiver(
            ["x", "y", "z"], [("a", "y", "x"), ("b", "z", "x"), ("c", "x", "z")], [])
        for mv in (Move(MoveKind.GEN_APR_REFLECT, "x"), Move(MoveKind.GEN_APR_COREFLECT, "y")):
            with pytest.raises(InvalidQuiverError) as info:
                apply_move(bq, mv)
            assert str(info.value) == ("not a valid bound quiver: G3 arrow c has free "
                                       "predecessors a,b; FIN relation-avoiding cycle c,b")

    def test_unknown_vertex_reason(self):
        with pytest.raises(MoveNotApplicable, match="unknown vertex 'nope'"):
            apply_move(a3_equioriented(), Move(MoveKind.GEN_APR_COREFLECT, "nope"))


def linear_shift_host():
    return make_bound_quiver(
        ["u", "x", "y", "v"],
        [("a1", "x", "u"), ("a2", "y", "x"), ("a3", "v", "y")],
        [("a1", "a2")],
    )


def long_form_host():
    return make_bound_quiver(
        ["u", "x", "y2", "y1", "y0", "v"],
        [("a1", "x", "u"), ("a2", "y2", "x"), ("b2", "y2", "y1"),
         ("b1", "y1", "y0"), ("a3", "v", "y0")],
        [("a1", "a2")],
    )


class TestShiftRelation:
    def test_right_basic(self):
        bq = linear_shift_host()
        got, moves = shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got == shift_relation_direct(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got.relations == frozenset({("a2", "a3")})
        src = {a: s for a, s, t in got.arrows}
        tgt = {a: t for a, s, t in got.arrows}
        assert (src["a1"], tgt["a1"]) == ("y", "u")
        assert (src["a2"], tgt["a2"]) == ("x", "y")
        assert (src["a3"], tgt["a3"]) == ("v", "x")
        assert [m.kind for m in moves] == [MoveKind.GEN_APR_COREFLECT]

    def test_left_undoes_right(self):
        bq = linear_shift_host()
        right, _ = shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        back, _ = shift_relation(right, ("a2", "a3"), ShiftDirection.LEFT)
        assert back == bq

    def test_closed_two_cycle(self):
        bq = make_bound_quiver(
            ["x", "y"], [("a1", "x", "y"), ("a2", "y", "x")], [("a1", "a2")])
        got, _ = shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got == shift_relation_direct(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got.relations == frozenset({("a2", "a1")})

    def test_closed_triangle_u_equals_v(self):
        # the pattern's outer vertices may coincide
        bq = make_bound_quiver(
            ["u", "x", "y"],
            [("a1", "x", "u"), ("a2", "y", "x"), ("a3", "u", "y")],
            [("a1", "a2")],
        )
        assert validate(bq) == ()
        got, _ = shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got == shift_relation_direct(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got.relations == frozenset({("a2", "a3")})
        assert is_isomorphic(got, bq)  # the triangle slides onto itself

    def test_long_form(self):
        bq = long_form_host()
        got, moves = shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got == shift_relation_direct(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert got.relations == frozenset({("a2", "a3")})
        assert len(moves) > 1

    def test_pattern_absent(self):
        # middle vertex has an extra arrow hanging off
        bq = make_bound_quiver(
            ["u", "x", "y", "v", "w"],
            [("a1", "x", "u"), ("a2", "y", "x"), ("a3", "v", "y"), ("e", "y", "w")],
            [("a1", "a2"), ("e", "a3")],
        )
        assert validate(bq) == ()
        with pytest.raises(PatternMismatch):
            shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)

    def test_not_a_relation(self):
        with pytest.raises(PatternMismatch):
            shift_relation(linear_shift_host(), ("a2", "a3"), ShiftDirection.RIGHT)


def block_host(n, decorate=False):
    vertices = ["y"] + ["x%d" % i for i in range(n + 1)]
    arrows = [("b", "y", "x0")]
    for i in range(1, n + 1):
        arrows.append(("a%d" % i, "x%d" % i, "x%d" % (i - 1)))
    rels = [("a%d" % i, "a%d" % (i + 1)) for i in range(1, n)]
    if decorate:
        vertices.append("w")
        arrows.append(("c", "w", "y"))
    return make_bound_quiver(vertices, arrows, rels)


class TestShiftBlock:
    def test_n2(self):
        bq = block_host(2)
        got, moves = shift_relation_block(bq, "b")
        assert got == shift_relation_block_direct(bq, "b")
        assert got.relations == frozenset({("b", "a1")})
        kinds = [m.kind for m in moves]
        assert kinds == [MoveKind.APR_REFLECT, MoveKind.APR_REFLECT,
                         MoveKind.GEN_APR_REFLECT]

    def test_n3_decorated(self):
        bq = block_host(3, decorate=True)
        got, _ = shift_relation_block(bq, "b")
        assert got == shift_relation_block_direct(bq, "b")
        # the block keeps its head relations, loses the last one, and gains
        # the one through the anchor
        assert got.relations == frozenset({("b", "a1"), ("a1", "a2")})

    def test_end_condition(self):
        # a relation continuing past a non-bare vertex blocks the slide
        bq = make_bound_quiver(
            ["y", "x0", "x1", "x2", "w", "v2"],
            [("b", "y", "x0"), ("a1", "x1", "x0"), ("a2", "x2", "x1"),
             ("c", "w", "x2"), ("d", "v2", "x2")],
            [("a1", "a2"), ("a2", "c")],
        )
        assert validate(bq) == ()
        with pytest.raises(PatternMismatch):
            shift_relation_block(bq, "b")

    def test_anchor_not_free(self):
        bq = block_host(2)
        with pytest.raises(PatternMismatch):
            shift_relation_block(bq, "a1")


class TestReplay:
    """The slides replay their moves on indices, checking every step."""

    moves_module = importlib.import_module("gentleq.moves")

    def forbid_keys(self, monkeypatch):
        """Make every canonical labeling raise."""
        def no_key(*args):
            raise AssertionError("a named move computed a canonical key")

        core = importlib.import_module("gentleq.core")
        for module, name in ((core, "_canonical_code"), (core, "_code"),
                             (self.moves_module, "_code")):
            monkeypatch.setattr(module, name, no_key)

    def test_no_canonical_key(self, monkeypatch):
        self.forbid_keys(monkeypatch)
        bq = long_form_host()
        want = shift_relation_direct(bq, ("a1", "a2"), ShiftDirection.RIGHT)
        assert shift_relation(bq, ("a1", "a2"), ShiftDirection.RIGHT)[0] == want
        back = shift_relation(want, ("a2", "a3"), ShiftDirection.LEFT)[0]
        assert back == shift_relation_direct(want, ("a2", "a3"), ShiftDirection.LEFT) == bq
        host = block_host(3, decorate=True)
        assert shift_relation_block(host, "b")[0] == shift_relation_block_direct(host, "b")

    def test_apply_move_keys_nothing(self, monkeypatch, tmp_path, capsys):
        # a relation 12-cycle: labeling it would take factorial time
        n = 12
        cycle = make_bound_quiver(
            ["v%d" % i for i in range(n)],
            [("a%d" % i, "v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)],
            [("a%d" % ((i + 1) % n), "a%d" % i) for i in range(n)])
        family = build_family(spec("L2", 2, 1, 1, 1, 0))
        x = next(v for v in family.vertices if oracle_gen_apr_precondition(family, v) is None)
        cases = [(cycle, Move(MoveKind.OPPOSITE), opposite(cycle)),
                 (family, Move(MoveKind.GEN_APR_REFLECT, x), oracle_gen_apr_reflect(family, x))]
        self.forbid_keys(monkeypatch)
        for bq, mv, want in cases:
            assert serialize(apply_move(bq, mv)[0]) == serialize(want)
            path = tmp_path / "in.quiver"
            path.write_text(serialize(bq))
            argv = ["apply", "--move", mv.kind.value, str(path)]
            if mv.vertex is not None:
                argv[3:3] = ["--vertex", mv.vertex]
            assert cli.dispatch(argv) == 0
            assert capsys.readouterr().out == serialize(want)

    def test_every_step_is_applicable(self, monkeypatch):
        applies = self.moves_module._applies
        calls = []

        def fails_second(q, kind, x):
            calls.append(kind)
            return len(calls) != 2 and applies(q, kind, x)

        monkeypatch.setattr(self.moves_module, "_applies", fails_second)
        with pytest.raises(MoveNotApplicable, match="^apr-reflect@x1: vertex x1 is not a sink$"):
            shift_relation_block(block_host(2), "b")
        calls.clear()
        with pytest.raises(MoveNotApplicable, match="^apr-coreflect@x: vertex x is not a source$"):
            shift_relation(long_form_host(), ("a1", "a2"), ShiftDirection.RIGHT)

    def test_every_step_is_validated(self, monkeypatch):
        # every arrow a loop at the first vertex breaks G1
        monkeypatch.setattr(self.moves_module, "_image",
                            lambda q, kind, x: ([(0, 0)] * len(q.ends), set()))
        with pytest.raises(AssertionError, match="^apr-reflect@x0 produced an invalid quiver"):
            shift_relation_block(block_host(2), "b")
        with pytest.raises(AssertionError, match="^gen-apr-coreflect@y produced an invalid"):
            shift_relation(linear_shift_host(), ("a1", "a2"), ShiftDirection.RIGHT)
