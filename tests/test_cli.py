import errno
import hashlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gentleq
import gentleq.core
from gentleq.cli import dispatch
from gentleq.core import parse, serialize
from gentleq.families import build_family, phi_formula, spec

L0_FILE = serialize(build_family(spec("L0", 1, 0)))
# two arrows into x and one out of it, with no relations
INVALID_FILE = ("quiver q\nvertex x\nvertex y\nvertex z\n"
                "arrow a y x\narrow b z x\narrow c x z\nend\n")
INVALID_ERROR = ("error: not a valid bound quiver: G3 arrow c has free predecessors "
                 "a,b; FIN relation-avoiding cycle c,b\n")
# the start of an executable: not UTF-8 text
UNDECODABLE = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0xc0, 0x100))


def child_env(hash_seed: str) -> dict:
    """A minimal child environment that still imports this ``gentleq``."""
    paths = [str(Path(gentleq.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join(paths)}


def run_cli(argv, stdin=""):
    """``dispatch(argv)`` with ``stdin`` as standard input: text, or bytes
    decoded as strict UTF-8."""
    old = sys.stdin
    if isinstance(stdin, bytes):
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="strict")
    else:
        sys.stdin = io.StringIO(stdin)
    try:
        import contextlib
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


class TestBasicCommands:
    def test_phi_golden(self, tmp_path):
        f = tmp_path / "l0.quiver"
        f.write_text(L0_FILE)
        code, out, _ = run_cli(["phi", str(f)])
        assert code == 0
        assert out == "(1,3): 1\nsum: 1\n"

    def test_phi_thousand_arrows(self, tmp_path):
        sp = spec("L1", 400, 400, 100, 100, 200)
        f = tmp_path / "big.quiver"
        f.write_text(serialize(build_family(sp)))
        code, out, _ = run_cli(["phi", str(f)])
        assert code == 0
        assert out.splitlines() == phi_formula(sp).lines()

    def test_phi_pairing_incomplete(self):
        # an isolated vertex next to an arrow leaves the walk without a pairing
        text = "quiver q\nvertex x\nvertex y\nvertex z\narrow a y z\nend\n"
        code, out, err = run_cli(["phi", "-"], stdin=text)
        assert (code, out) == (2, "")
        assert err == "error: no complete pairing of 4 permitted and 4 forbidden threads\n"
        # two isolated vertices: 2n - m less the vertices with no arrows
        text = "quiver q\nvertex x\nvertex y\nvertex z\nvertex w\narrow a y z\nend\n"
        code, out, err = run_cli(["phi", "-"], stdin=text)
        assert (code, out) == (2, "")
        assert err == "error: no complete pairing of 5 permitted and 5 forbidden threads\n"

    def test_validate_ok(self):
        code, out, _ = run_cli(["validate", "-"], stdin=L0_FILE)
        assert code == 0
        assert out == "ok\n"

    def test_validate_fin_violation(self):
        text = ("quiver t\nvertex x\narrow al x x\narrow be x x\n"
                "rel al al\nrel be be\nend\n")
        code, out, _ = run_cli(["validate", "-"], stdin=text)
        assert code == 2
        assert out.startswith("violation FIN:")

    def test_parse_error_exit(self):
        code, _, err = run_cli(["validate", "-"], stdin="quiver t\nvertex x\n")
        assert code == 65
        assert "parse error" in err

    def test_usage_error_exit(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 64

    def test_missing_file(self):
        code, _, err = run_cli(["phi", "/nonexistent/path.quiver"])
        assert code == 65

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_input(self, tmp_path, source):
        path = tmp_path / "binary"
        path.write_bytes(UNDECODABLE)
        if source == "file":
            code, out, err = run_cli(["validate", str(path)])
        else:
            code, out, err = run_cli(["validate", "-"], stdin=UNDECODABLE)
        assert (code, out) == (65, "")
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    def test_apply_pipeline(self):
        text = ("quiver t\nvertex x\nvertex y\nvertex z\n"
                "arrow al y x\narrow be z y\nrel al be\nend\n")
        code, out, _ = run_cli(["apply", "--move", "apr-reflect", "--vertex", "x", "-"],
                               stdin=text)
        assert code == 0
        bq = parse(out)
        assert len(bq.arrows) == 2
        assert bq.relations == frozenset()

    def test_apply_not_applicable(self):
        code, _, err = run_cli(["apply", "--move", "apr-reflect", "--vertex", "w0", "-"],
                               stdin=L0_FILE)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("move,vertex", [("gen-apr-reflect", "x"),
                                             ("gen-apr-coreflect", "y")])
    def test_apply_invalid_input(self, move, vertex):
        code, out, err = run_cli(["apply", "--move", move, "--vertex", vertex, "-"],
                                 stdin=INVALID_FILE)
        assert (code, out, err) == (2, "", INVALID_ERROR)

    def test_moves_invalid_input(self):
        code, out, err = run_cli(["moves", "-"], stdin=INVALID_FILE)
        assert (code, out, err) == (2, "", INVALID_ERROR)

    def test_recognize_invalid_input(self):
        code, out, err = run_cli(["family", "recognize", "-"], stdin=INVALID_FILE)
        assert (code, out, err) == (2, "", INVALID_ERROR)

    def test_shift_roundtrip(self):
        text = ("quiver t\nvertex u\nvertex x\nvertex y\nvertex v\n"
                "arrow a1 x u\narrow a2 y x\narrow a3 v y\nrel a1 a2\nend\n")
        code, out, _ = run_cli(["shift", "--first", "a1", "--second", "a2",
                                "--direction", "right", "-"], stdin=text)
        assert code == 0
        assert "rel a2 a3" in out

    def test_shift_block(self):
        text = ("quiver t\nvertex y\nvertex x0\nvertex x1\nvertex x2\n"
                "arrow b y x0\narrow a1 x1 x0\narrow a2 x2 x1\nrel a1 a2\nend\n")
        code, out, _ = run_cli(["shift", "--block", "--beta", "b", "-"], stdin=text)
        assert code == 0
        assert "rel b a1" in out

    def test_shift_pattern_mismatch_exit(self):
        code, _, err = run_cli(["shift", "--first", "a1", "--second", "b",
                                "-"], stdin=L0_FILE)
        assert code == 2

    def test_cartan_golden(self):
        code, out, _ = run_cli(["cartan", "-"], stdin=L0_FILE)
        assert code == 0
        assert out == ("vertices: w0 w1\nrow w0: 2 3\nrow w1: 1 2\n"
                       "det: 1\neuler: sym-det=0\n")

    def test_cartan_builds_the_matrix_once(self, monkeypatch):
        invariant = importlib.import_module("gentleq.invariant")
        calls = []
        real = invariant.cartan_matrix
        monkeypatch.setattr(invariant, "cartan_matrix",
                            lambda bq: calls.append(1) or real(bq))
        for text, tail in ((L0_FILE, "det: 1\neuler: sym-det=0\n"),
                           (serialize(build_family(spec("L1", 1, 2, 0, 1, 0))), "euler: none\n")):
            code, out, _ = run_cli(["cartan", "-"], stdin=text)
            assert code == 0 and out.endswith(tail)
        assert len(calls) == 2

    def test_moves_listing(self):
        code, out, _ = run_cli(["moves", "-"], stdin=L0_FILE)
        assert code == 0
        assert out.splitlines()[-1] == "opposite"

    def test_family_commands(self):
        code, out, _ = run_cli(["family", "build", "L2", "1", "1", "1", "0", "0"])
        assert code == 0
        code, out2, _ = run_cli(["family", "recognize", "-"], stdin=out)
        assert code == 0
        assert out2 == "L2(1,1,1,0,0)\n"
        code, out3, _ = run_cli(["family", "phi", "L0", "3", "1"])
        assert code == 0
        assert out3 == "(3,5): 1\nsum: 1\n"

    def test_family_constraint_error(self):
        code, _, err = run_cli(["family", "build", "L0", "0", "0"])
        assert code == 2

    def test_enumerate_golden(self):
        code, out, _ = run_cli(["enumerate", "--vertices", "2", "--two-cycle"])
        assert code == 0
        assert out.endswith("count: 3\n")

    def test_normalize(self):
        code, out, _ = run_cli(["normalize", "-"], stdin=L0_FILE)
        assert code == 0
        assert out == "L0(1,0)\n"

    def test_orbit_output(self):
        code, out, _ = run_cli(["orbit", "-"], stdin=L0_FILE)
        assert code == 0
        assert "complete: yes" in out
        assert "hit L0(1,0)" in out

    def test_orbit_state_cap_exit(self):
        big = serialize(build_family(spec("L0", 3, 0)))
        code, out, _ = run_cli(["orbit", "--max-states", "2", "-"], stdin=big)
        assert code == 2
        assert "complete: no" in out


GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"


class TestGoldenFiles:
    @pytest.mark.parametrize("args,name", [
        (["verify", "completeness", "--vertices", "2"], "completeness_n2.txt"),
        (["verify", "completeness", "--vertices", "3"], "completeness_n3.txt"),
        (["enumerate", "--vertices", "2", "--two-cycle"], "enumerate_n2.txt"),
        (["family", "build", "L1", "1", "2", "0", "1", "0"],
         "family_l1_12010.quiver"),
        (["verify", "completeness", "--vertices", "4"], "completeness_n4.txt"),
        (["enumerate", "--vertices", "4", "--two-cycle"], "enumerate_n4.txt"),
        (["verify", "completeness", "--vertices", "5"], "completeness_n5.txt"),
        (["verify", "lemmas", "--jobs", "1", "--bound", "8", "--orbit-vertices", "4"],
         "lemmas_b8.txt"),
    ])
    def test_frozen_output(self, args, name):
        _code, out, _err = run_cli(args)
        assert out == (GOLDEN / name).read_text()

    def test_completeness_n6_digest(self):
        # the whole 232-line report, pinned by its SHA-256 digest
        code, out, err = run_cli(["verify", "completeness", "--vertices", "6"])
        assert (code, err) == (0, "")
        assert out.startswith("classes: 20172\norbits: 114\n")
        assert out.endswith("failures: 0\nRESULT: PASS\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c01d245ff1e8bd50311e4a34d4447de407998f51c49a4a9872b97f29644df6d6")

    def test_frozen_family_names(self):
        # one spec per family, each running every path call of its recipe:
        # the G1/G2 chains numbered from base, and a zero-length connector in
        # L1, L2 and L2pSix
        specs = ["L0 3 1", "L0p 3 1", "L1 2 2 0 1 1", "L2 2 1 0 1 0", "L2pSix 1 2 0 1 0 1",
                 "L2pFive 2 3 1 1 1", "G0 2 1 1", "G1 2 1 1 2", "G2 2 2 1 1"]
        out = "".join(run_cli(["family", "build"] + args.split())[1] for args in specs)
        assert out == (GOLDEN / "family_build_nine.txt").read_text()

    def test_frozen_orbit(self):
        # the audit BFS behind `gentleq orbit`, edge count included
        code, out, _ = run_cli(["orbit", "-"], stdin=serialize(build_family(spec("L0", 2, 1))))
        assert code == 0
        assert out == (GOLDEN / "orbit_l0_21.txt").read_text()

    def test_frozen_orbit_labels_only_the_input(self, monkeypatch):
        # the closure keys states through gentleq.orbit's kernel; every form
        # it reports carries its code, so the printed keys label nothing
        calls = []
        real = gentleq.core._code
        monkeypatch.setattr(gentleq.core, "_code", lambda *args: calls.append(1) or real(*args))
        code, out, _ = run_cli(["orbit", "-"], stdin=serialize(build_family(spec("L0", 2, 1))))
        assert code == 0
        assert out == (GOLDEN / "orbit_l0_21.txt").read_text()
        assert len(calls) == 1  # the input's own code, before the closure

    def test_frozen_phi(self):
        _code, out, _err = run_cli(
            ["phi", str(GOLDEN / "family_l1_12010.quiver")])
        assert out == (GOLDEN / "phi_l1_12010.txt").read_text()

    def test_frozen_validate(self):
        # G1, G3, G4 and FIN at once: witness texts and their order
        code, out, err = run_cli(["validate", str(GOLDEN / "validate_g1_g3_g4_fin.quiver")])
        assert (code, err) == (2, "")
        assert out == (GOLDEN / "validate_g1_g3_g4_fin.txt").read_text()

    def test_frozen_capped_orbit(self):
        # which states a capped run keeps depends on the breadth-first order
        _code, text, _err = run_cli(["family", "build", "L2", "2", "1", "1", "0", "0"])
        code, out, err = run_cli(["orbit", "--max-states", "4", "-"], stdin=text)
        assert (code, err) == (2, "")
        assert out == (GOLDEN / "orbit_l2_21100_cap4.txt").read_text()


class TestOptionBounds:
    @pytest.mark.parametrize("args", [
        ["verify", "completeness", "--vertices", "0"],
        ["enumerate", "--vertices", "0"],
        ["enumerate", "--vertices", "2", "--arrows", "-1"],
        ["verify", "minimality", "--max-vertices", "1"],
        ["verify", "lemmas", "--orbit-vertices", "1"],
        ["verify", "completeness", "--vertices", "-1"],
        ["verify", "minimality", "--max-vertices", "0"],
        ["verify", "lemmas", "--bound", "-1"],
        ["orbit", "--max-states", "0", "-"],
        ["normalize", "--max-states", "0", "-"],
        ["verify", "minimality", "--max-vertices", "3", "--orbit-vertices", "-1"],
        ["verify", "lemmas", "--bound", "0"],
        ["verify", "lemmas", "--sweep-vertices", "1"],
        ["verify", "lemmas", "--jobs", "0"],
        ["verify", "slides", "--vertices", "0"],
    ])
    def test_out_of_range_is_usage_error(self, args):
        code, out, err = run_cli(args, stdin=L0_FILE)
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: argument --")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["verify", "completeness", "--vertices", "5"],
        ["verify", "minimality", "--max-vertices", "2"],
        ["verify", "lemmas"],
    ])
    def test_verify_takes_no_state_cap(self, args):
        # the verifiers close orbits on a finite class list, so nothing caps them
        code, out, err = run_cli(args + ["--max-states", "5"])
        assert (code, out) == (64, "")
        assert err.startswith("usage error: unrecognized arguments")


class TestVerifyCommands:
    def test_completeness(self):
        code, out, _ = run_cli(["verify", "completeness", "--vertices", "2"])
        assert code == 0
        assert out.strip().endswith("RESULT: PASS")

    def test_completeness_vertex_bound(self):
        code, out, err = run_cli(["verify", "completeness", "--vertices", "7"])
        assert (code, out) == (2, "")
        assert err == "error: vertex count 7 exceeds the bound 6\n"

    def test_lemmas_small(self):
        code, out, _ = run_cli([
            "verify", "lemmas", "--bound", "4", "--orbit-vertices", "2",
            "--sweep-vertices", "2", "--jobs", "1"])
        assert code == 0
        assert "RESULT: PASS" in out

    def test_lemmas_reports_phi_change(self, monkeypatch):
        # every move lands on the first class at (2, 3); the other two classes
        # have a different phi, so their moves must be reported, not raised
        from gentleq.core import compact_key

        orbit = importlib.import_module("gentleq.orbit")
        target = orbit.enumerate_classes(orbit.SizeClass(2, 3), two_cycle=True)[0]
        ends, rels = target._ints.ends, target._ints.rels
        monkeypatch.setattr(orbit, "_image", lambda q, kind, x: (list(ends), set(rels)))
        code, out, err = run_cli([
            "verify", "lemmas", "--bound", "4", "--orbit-vertices", "2",
            "--sweep-vertices", "2", "--jobs", "1"])
        assert (code, err) == (1, "")
        assert "check move-invariance: FAIL" in out
        changed = [l for l in out.splitlines() if l.endswith(" changed phi")]
        assert changed and all(l.startswith("failure[move-invariance]: ") for l in changed)
        assert " on %s changed phi" % compact_key(target) not in out
        assert out.endswith("RESULT: FAIL\n")

    def test_lemmas_reports_closed_form_failure(self, monkeypatch):
        orbit = importlib.import_module("gentleq.orbit")
        real = orbit._phi_closed_form
        wrong = spec("L2", 1, 1, 1, 0, 0)

        def formula(sp):
            return phi_formula(spec("L0", 1, 0)) if sp == wrong else real(sp)

        # the sweep reads the closed form of specs it has already checked
        monkeypatch.setattr(orbit, "_phi_closed_form", formula)
        code, out, err = run_cli([
            "verify", "lemmas", "--bound", "4", "--orbit-vertices", "2",
            "--sweep-vertices", "2", "--jobs", "1"])
        assert (code, err) == (1, "")
        assert "check closed-form-sweep: FAIL" in out
        assert ("failure[closed-form-sweep]: L2(1,1,1,0,0): computed "
                "{(0,1):2, (1,1):1}, formula {(1,3):1}\n") in out
        assert out.endswith("RESULT: FAIL\n")

    @pytest.mark.parametrize("option", ["--sweep-vertices", "--orbit-vertices"])
    def test_lemmas_vertex_bound_fails_fast(self, monkeypatch, option):
        orbit = importlib.import_module("gentleq.orbit")

        def no_partition(*args):
            raise AssertionError("the report started its work")

        monkeypatch.setattr(orbit, "_orbit_partition", no_partition)
        monkeypatch.setattr(orbit, "check_closed_form", no_partition)
        code, out, err = run_cli(["verify", "lemmas", option, "7", "--jobs", "1"])
        assert (code, out) == (2, "")
        assert err == "error: vertex count 7 exceeds the bound 6\n"

    @pytest.mark.parametrize("args, count", [
        (["--max-vertices", "8", "--orbit-vertices", "7"], 7),
        (["--max-vertices", "7", "--orbit-vertices", "8"], 7),
        (["--max-vertices", "9", "--orbit-vertices", "8"], 8),
    ])
    def test_minimality_vertex_bound_fails_fast(self, monkeypatch, args, count):
        orbit = importlib.import_module("gentleq.orbit")

        def no_partition(*_args):
            raise AssertionError("the report started its work")

        monkeypatch.setattr(orbit, "_orbit_partition", no_partition)
        code, out, err = run_cli(["verify", "minimality"] + args)
        assert (code, out) == (2, "")
        assert err == "error: vertex count %d exceeds the bound 6\n" % count

    def test_fuzz_shift(self):
        # the exhaustive slide check that replaced the seeded fuzz
        code, out, err = run_cli(["verify", "slides", "--vertices", "3"])
        assert (code, err) == (0, "")
        assert out == ("classes: 88\nrelation-slides: 24\nblock-slides: 1\n"
                       "failures: 0\nRESULT: PASS\n")

    def test_slides_report_failures(self, monkeypatch, usable_cpus):
        # every relation slide replays to nothing and every block slide stops
        orbit = importlib.import_module("gentleq.orbit")

        def stop(bq, beta):
            raise orbit.MoveNotApplicable("apr-reflect@v0: vertex v0 is not a sink")

        usable_cpus(1)
        monkeypatch.setattr(orbit, "shift_relation", lambda bq, rel, d: (None, ()))
        monkeypatch.setattr(orbit, "shift_relation_block", stop)
        code, out, err = run_cli(["verify", "slides", "--vertices", "3"])
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[:4] == ["classes: 88", "relation-slides: 24", "block-slides: 1",
                             "failures: 25"]
        assert lines[4] == ("failure: 2;0-1,1-0;1.0 relation (a1, a0) left: "
                            "the replay differs from the rewrite")
        assert sum(l.endswith(": the replay differs from the rewrite") for l in lines) == 24
        stops = [l for l in lines if ": the replay stops at " in l]
        assert len(stops) == 1 and " block at a" in stops[0]
        assert lines[-1] == "RESULT: FAIL"

    def test_fuzz_shift_is_gone(self):
        code, out, err = run_cli(["fuzz-shift"])
        assert (code, out) == (64, "")
        assert err.startswith("usage error:")

    def test_slides_vertex_bound_fails_fast(self, monkeypatch):
        orbit = importlib.import_module("gentleq.orbit")

        def no_enumeration(*_args):
            raise AssertionError("the report started its work")

        monkeypatch.setattr(orbit, "_enumerate_cached", no_enumeration)
        code, out, err = run_cli(["verify", "slides", "--vertices", "7"])
        assert (code, out) == (2, "")
        assert err == "error: vertex count 7 exceeds the bound 6\n"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        args = ["verify", "minimality", "--max-vertices", "5",
                "--orbit-vertices", "2"]
        out1 = run_cli(args)[1]
        out2 = run_cli(args)[1]
        assert out1 == out2

    def test_jobs_do_not_change_output(self, forks, usable_cpus):
        # bound 6 gives 95 closed-form specs, enough for _pmap to fork
        usable_cpus(2)
        base = ["verify", "lemmas", "--bound", "6", "--orbit-vertices", "2",
                "--sweep-vertices", "2"]
        out1 = run_cli(base + ["--jobs", "1"])[1]
        assert forks == []
        out2 = run_cli(base + ["--jobs", "2"])[1]
        assert forks == [1]
        assert out1 == out2
        assert "check closed-form-sweep: PASS (95 instances)" in out1

    @pytest.mark.parametrize("args", [
        ["verify", "completeness", "--vertices", "5"],
        ["verify", "minimality", "--max-vertices", "6", "--orbit-vertices", "4"],
        ["verify", "slides", "--vertices", "4"],
    ])
    def test_usable_cpus_do_not_change_output(self, forks, usable_cpus, args):
        orbit = importlib.import_module("gentleq.orbit")
        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            orbit._orbit_partition.cache_clear()
            orbit._enumerate_cached.cache_clear()
            before = len(forks)
            runs.append((run_cli(args), len(forks) - before))
        (one, forks_one), (two, forks_two) = runs
        assert one == two
        assert one[0] == 0 and one[1].endswith("RESULT: PASS\n")
        assert forks_one == 0 and forks_two > 0

    def test_failed_fork_keeps_output(self, monkeypatch, usable_cpus):
        # a fork that fails (EAGAIN) leaves its share to the parent
        orbit = importlib.import_module("gentleq.orbit")
        args = ["verify", "completeness", "--vertices", "4"]
        calls = []

        def fork():
            calls.append(1)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            orbit._orbit_partition.cache_clear()
            orbit._enumerate_cached.cache_clear()
            if cpus == 2:
                monkeypatch.setattr(os, "fork", fork)
            runs.append(run_cli(args))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].endswith("RESULT: PASS\n")
        assert calls
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_round_trip_bit_exact(self):
        code, out, _ = run_cli(["apply", "--move", "opposite", "-"], stdin=L0_FILE)
        code, out2, _ = run_cli(["apply", "--move", "opposite", "-"], stdin=out)
        assert out2 == L0_FILE.replace("quiver L0", "quiver L0")
        assert parse(out2) == parse(L0_FILE)


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        f = tmp_path / "l0.quiver"
        f.write_text(L0_FILE)
        proc = subprocess.run(
            [sys.executable, "-m", "gentleq.cli", "phi", str(f)],
            capture_output=True, text=True, env=child_env("random"))
        assert proc.returncode == 0
        assert proc.stdout == "(1,3): 1\nsum: 1\n"

    def test_cross_process_determinism(self):
        # fresh interpreters get fresh hash seeds; output must not care
        args = [sys.executable, "-m", "gentleq.cli", "verify", "lemmas",
                "--bound", "5", "--orbit-vertices", "3", "--sweep-vertices", "2",
                "--jobs", "1"]
        outs = set()
        for seed in ("1", "2"):
            proc = subprocess.run(args, capture_output=True, text=True,
                                  env=child_env(seed))
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_cross_process_enumerate(self):
        args = [sys.executable, "-m", "gentleq.cli", "enumerate",
                "--vertices", "3", "--two-cycle"]
        outs = set()
        for seed in ("7", "11"):
            proc = subprocess.run(args, capture_output=True, text=True,
                                  env=child_env(seed))
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1
