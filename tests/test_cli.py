import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gentleq
from gentleq.cli import dispatch
from gentleq.core import parse, serialize
from gentleq.families import build_family, phi_formula, spec

L0_FILE = serialize(build_family(spec("L0", 1, 0)))


def child_env(hash_seed: str) -> dict:
    """A minimal child environment that still imports this ``gentleq``."""
    paths = [str(Path(gentleq.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join(paths)}


def run_cli(argv, stdin=""):
    old = sys.stdin
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
    ])
    def test_frozen_output(self, args, name):
        _code, out, _err = run_cli(args)
        assert out == (GOLDEN / name).read_text()

    def test_frozen_phi(self):
        _code, out, _err = run_cli(
            ["phi", str(GOLDEN / "family_l1_12010.quiver")])
        assert out == (GOLDEN / "phi_l1_12010.txt").read_text()


class TestVerifyCommands:
    def test_completeness(self):
        code, out, _ = run_cli(["verify", "completeness", "--vertices", "2"])
        assert code == 0
        assert out.strip().endswith("RESULT: PASS")

    def test_lemmas_small(self):
        code, out, _ = run_cli([
            "verify", "lemmas", "--bound", "4", "--orbit-vertices", "2",
            "--sweep-vertices", "2", "--jobs", "1"])
        assert code == 0
        assert "RESULT: PASS" in out

    def test_fuzz_shift(self):
        code, out, _ = run_cli(["fuzz-shift", "--seed", "3", "--count", "25"])
        assert code == 0
        assert "patterns: 25" in out


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        args = ["verify", "minimality", "--max-vertices", "5",
                "--orbit-vertices", "2"]
        out1 = run_cli(args)[1]
        out2 = run_cli(args)[1]
        assert out1 == out2

    def test_jobs_do_not_change_output(self):
        base = ["verify", "lemmas", "--bound", "4", "--orbit-vertices", "2",
                "--sweep-vertices", "2"]
        out1 = run_cli(base + ["--jobs", "1"])[1]
        out2 = run_cli(base + ["--jobs", "2"])[1]
        assert out1 == out2

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
                "--bound", "5", "--orbit-vertices", "2", "--sweep-vertices", "2",
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
