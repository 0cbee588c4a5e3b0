"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also exercised by a plain ``pytest`` run.
"""

import io
import sys
import time
from collections import Counter

import pytest

from gentleq.core import parse, serialize, validate
from gentleq.families import build_family, spec
from gentleq.invariant import Phi, cartan_matrix, phi
from gentleq.moves import (
    ShiftDirection,
    applicable_moves,
    apply_move,
    shift_relation,
    shift_relation_block,
    shift_relation_block_direct,
    shift_relation_direct,
)
from gentleq.orbit import (
    SizeClass,
    check_closed_form,
    enumerate_classes,
    _closed_form_specs,
    verify_completeness,
    verify_lemma_tables,
    verify_minimality,
    verify_slides,
)

from oracle_helpers import canonical_key, naive_enumerate, oracle_cartan, slide_hosts


def report(criterion, name, ok, detail=""):
    line = "ACCEPTANCE %s %s: %s" % (criterion, name, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def lemma_report():
    return verify_lemma_tables(bound=10, orbit_vertices=5, sweep_vertices=4)


def check_line(rep, name):
    line = next(l for l in rep.lines if l.startswith("check %s:" % name))
    return "PASS" in line, line


def test_c01_closed_form_sweep():
    t0 = time.time()
    specs = sorted(set(_closed_form_specs(10)))
    failures = [f for f in (check_closed_form(sp) for sp in specs) if f]
    elapsed = time.time() - t0
    report("01", "closed-form-sweep",
           not failures and len(specs) > 500 and elapsed < 30,
           "%d specs, %.1fs" % (len(specs), elapsed))


def test_c02_hand_anchors():
    anchors = [
        (build_family(spec("L0", 1, 0)), [((1, 3), 1)]),
        (build_family(spec("L2", 1, 1, 1, 0, 0)), [((0, 1), 2), ((1, 1), 1)]),
        (build_family(spec("L1", 1, 2, 0, 1, 0)),
         [((0, 3), 1), ((1, 0), 1), ((1, 1), 1)]),
        (parse("quiver a2\nvertex x\nvertex y\narrow al y x\nend\n"),
         [((3, 1), 1)]),
    ]
    ok = all(phi(bq) == Phi(tuple(sorted(want))) for bq, want in anchors)
    report("02", "hand-anchored-phi", ok, "%d anchors" % len(anchors))


def test_c03_move_invariance():
    applications = 0
    failures = 0
    for n in (2, 3, 4):
        for bq in enumerate_classes(SizeClass(n, n + 1), two_cycle=True):
            base = phi(bq)
            for mv in applicable_moves(bq):
                out, _moves = apply_move(bq, mv)
                applications += 1
                if validate(out, require_connected=True):
                    failures += 1
                elif (len(out.vertices), len(out.arrows)) != (n, n + 1):
                    failures += 1
                elif phi(out) != base:
                    failures += 1
    report("03", "move-invariance", failures == 0,
           "%d applications, %d failures" % (applications, failures))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c04_completeness_small(n):
    rep = verify_completeness(n)
    report("04", "completeness-n%d" % n, rep.passed,
           next(l for l in rep.lines if l.startswith("classes:")))


def test_c04_completeness_n5():
    rep = verify_completeness(5)
    report("04", "completeness-n5", rep.passed,
           next(l for l in rep.lines if l.startswith("classes:")))


def test_c05_minimality():
    rep = verify_minimality(8, orbit_max_vertices=4)
    report("05", "nondegenerate-minimality", rep.passed,
           "; ".join(l for l in rep.lines if "distinct" in l))


def test_c06_degeneracy_dichotomy(lemma_report):
    ok, line = check_line(lemma_report, "degeneracy-split")
    report("06", "degeneracy-dichotomy", ok, line)


def test_c07_equivalence_lemmas(lemma_report):
    names = ["mixed-cycle-flip", "cycle-swap", "connector-slide",
             "double-arrow-shift", "five-parameter-close",
             "opposite-in-orbit", "double-arrow-chain"]
    details = []
    ok = True
    for name in names:
        good, line = check_line(lemma_report, name)
        ok = ok and good
        details.append(line.split("check ")[1])
    report("07", "equivalence-lemmas", ok, "; ".join(details))


def test_c08_shift_fuzz():
    # every slide that matches on a class with at most 5 vertices, compared
    # with ==; then the hand-built hosts, which reach 9 vertices and the
    # long form with a chain of 3 arrows, a composite no class with at most
    # 5 vertices has
    rep = verify_slides(5)
    anchors = rep.lines[:4] == ("classes: 14380", "relation-slides: 7212",
                                "block-slides: 77", "failures: 0")
    hosts = slide_hosts()
    lengths = Counter()
    hosts_ok = len(hosts) == 49
    for family, bq, slide in hosts:
        if family == "block":
            got, moves = shift_relation_block(bq, slide)
            want = shift_relation_block_direct(bq, slide)
        else:
            got, moves = shift_relation(bq, slide, ShiftDirection.RIGHT)
            want = shift_relation_direct(bq, slide, ShiftDirection.RIGHT)
        hosts_ok = hosts_ok and got == want
        lengths[family, len(moves)] += 1
    hosts_ok = hosts_ok and lengths == {
        ("basic", 1): 9, ("closed", 1): 1, ("long", 4): 9, ("long", 8): 9, ("long", 13): 9,
        ("block", 3): 4, ("block", 5): 4, ("block", 7): 4}
    report("08", "slide-replays", rep.passed and anchors and hosts_ok,
           "%s, %d hand-built hosts" % (", ".join(rep.lines[:3]), len(hosts)))


def test_c09_oracle_agreements():
    enum_ok = True
    for n in (2, 3):
        got = {canonical_key(c)
               for c in enumerate_classes(SizeClass(n, n + 1), two_cycle=True)}
        want = set(naive_enumerate(n, n + 1, two_cycle=True))
        enum_ok = enum_ok and got == want
    cartan_ok = True
    checked = 0
    for n in (2, 3, 4):
        for bq in enumerate_classes(SizeClass(n, n + 1), two_cycle=True):
            checked += 1
            if cartan_matrix(bq) != oracle_cartan(bq):
                cartan_ok = False
    l0 = build_family(spec("L0", 1, 0))
    anchor_ok = cartan_matrix(l0) == (("w0", "w1"), ((2, 3), (1, 2)))
    from gentleq.invariant import _det_int
    anchor_ok = anchor_ok and _det_int(cartan_matrix(l0)[1]) == 1
    report("09", "oracle-agreements", enum_ok and cartan_ok and anchor_ok,
           "enumeration n<=3, cartan on %d classes, frozen anchor" % checked)


def test_c10_cli_golden():
    from gentleq.cli import dispatch
    import contextlib

    def run(argv, stdin=""):
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = dispatch(argv)
        finally:
            sys.stdin = old
        return code, out.getvalue()

    l0 = serialize(build_family(spec("L0", 1, 0)))
    code, round1 = run(["apply", "--move", "opposite", "-"], stdin=l0)
    _, round2 = run(["apply", "--move", "opposite", "-"], stdin=round1)
    round_trip_ok = code == 0 and parse(round2) == parse(l0) and round2 == serialize(parse(round2))

    code, phi_out = run(["phi", "-"], stdin=l0)
    phi_ok = code == 0 and phi_out == "(1,3): 1\nsum: 1\n"

    base = ["verify", "lemmas", "--bound", "6", "--orbit-vertices", "2",
            "--sweep-vertices", "2"]
    outs = [run(base + ["--jobs", str(j)])[1] for j in (1, 1, 2, 4)]
    jobs_ok = len(set(outs)) == 1 and "RESULT: PASS" in outs[0]

    report("10", "cli-golden", round_trip_ok and phi_ok and jobs_ok,
           "round-trip, phi format, jobs-invariant reports")
