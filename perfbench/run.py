"""gentleq benchmark: three verification workloads, timed end to end or traced.

    python3 perfbench/run.py --workload completeness-5 --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table
    python3 perfbench/run.py --workload queries-45 --smoke    # tiny sizes, one repetition

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-function costs from a traced repetition plus the work-efficiency ratios.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Every repetition runs
in a fresh interpreter (see worker.py), so the package's caches start cold,
as on every CLI run.  Repetitions continue while the next one is predicted to
end within ``--seconds``; there is always at least one.  A timing is printed
only when every answer of the run was checked and found correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUPS_PER_REP = 4
REP_TIMEOUT_S = 150
MAX_WALK = 8

# Expected answers are independent of the code under test: the class and
# orbit counts and the move and opposite instance counts are the README
# figures (353 = 3 + 38 + 312 classes at 2..4 vertices; the smoke figure
# 41 = 3 + 38); 9419 is the number of closed-form specs with parameter sum
# at most 16.  Queries are checked against the spec each input was walked from.
WORKLOADS = {
    "completeness-5": {
        "kind": "batch",
        "check": "completeness",
        "argv": ["verify", "completeness", "--vertices", "5"],
        "anchors": {"classes": 2600, "orbits": 63},
        "smoke_argv": ["verify", "completeness", "--vertices", "3"],
        "smoke_anchors": {"classes": 38, "orbits": 13},
    },
    "lemmas-b16": {
        "kind": "batch",
        "check": "lemmas",
        "argv": ["verify", "lemmas", "--jobs", "1", "--bound", "16", "--orbit-vertices", "4"],
        "anchors": {"closed-form-sweep": 9419, "move-invariance": 2379,
                    "phi-under-opposite": 353},
        "smoke_argv": ["verify", "lemmas", "--jobs", "1", "--bound", "6",
                       "--orbit-vertices", "3", "--sweep-vertices", "3"],
        "smoke_anchors": {"phi-under-opposite": 41},
    },
    "queries-45": {
        "kind": "queries",
        "sizes": (4, 5),
        "walks_per_spec": 2,
        "smoke_sizes": (3,),
        "smoke_queries": 6,
    },
}

# The functions whose costs the traced run reports, by module.
LAYER_FUNCTIONS = (
    "core.canonical_form", "core.canonical_key", "core.is_connected", "core.validate",
    "core.parse", "core.serialize", "core.opposite",
    "invariant.phi", "invariant.characteristic_sequences", "invariant.permitted_threads",
    "invariant.forbidden_threads", "invariant.cartan_matrix",
    "moves.applicable_moves", "moves.apply_move",
    "families.build_family", "families.recognize", "families.phi_formula",
    "orbit.enumerate_classes", "orbit.orbit", "orbit.normalize", "orbit.theorem_key_table",
    "orbit.verify_completeness", "orbit.verify_lemma_tables",
    "cli.dispatch",
)


# ---------------------------------------------------------------------------
# inputs


def _relabel(g, bq, rng: random.Random):
    """The same quiver under random vertex and arrow names."""
    names = rng.sample(range(100, 1000), len(bq.vertices) + len(bq.arrows))
    vmap = {v: "x%d" % names[i] for i, v in enumerate(bq.vertices)}
    amap = {a: "e%d" % names[len(vmap) + i] for i, (a, _s, _t) in enumerate(bq.arrows)}
    return g.make_bound_quiver(
        [vmap[v] for v in bq.vertices],
        [(amap[a], vmap[s], vmap[t]) for a, s, t in bq.arrows],
        [(amap[f], amap[s]) for f, s in bq.relations])


def make_queries(seed: int, sizes, walks_per_spec: int, limit: int | None = None) -> list:
    """Each canonical-list spec of the given sizes, walked by random moves.

    On the canonical lists every spec is the least entry of its own orbit
    (30 orbits at 4 vertices and 63 at 5, one spec each), so normalizing a
    walked input must give back the spec it was walked from.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gentleq as g
    from gentleq.families import family_size
    from worker import determinant

    rng = random.Random(seed)
    queries = []
    for sp in g.theorem_list(max(sizes)):
        if family_size(sp) not in sizes:
            continue
        base = g.build_family(sp)
        anchors = {"spec": str(sp), "phi": g.phi_formula(sp).lines(),
                   "cartan_det": str(determinant(g.cartan_matrix(base)[1]))}
        for _ in range(walks_per_spec):
            bq = base
            for _ in range(rng.randint(0, MAX_WALK)):
                moves = sorted(g.applicable_moves(bq), key=str)
                bq, _receipt = g.apply_move(bq, rng.choice(moves))
            queries.append(dict(anchors, text=g.serialize(_relabel(g, bq, rng))))
    rng.shuffle(queries)
    return queries[:limit]


def make_job(name: str, seed: int, smoke: bool, break_anchor: bool) -> dict:
    wl = WORKLOADS[name]
    if wl["kind"] == "batch":
        anchors = dict(wl["smoke_anchors" if smoke else "anchors"])
        if break_anchor:
            anchors = {k: v + 1 for k, v in anchors.items()}
        return {"kind": "batch", "check": wl["check"], "anchors": anchors,
                "argv": wl["smoke_argv" if smoke else "argv"]}
    if smoke:
        queries = make_queries(seed, wl["smoke_sizes"], 1, wl["smoke_queries"])
    else:
        queries = make_queries(seed, wl["sizes"], wl["walks_per_spec"])
    if break_anchor:
        for q in queries:
            q["spec"] = "not-" + q["spec"]
    return {"kind": "queries", "queries": queries}


# ---------------------------------------------------------------------------
# fresh-interpreter repetitions


def _env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _spawn(args: list, job: dict | None, hash_seed: int):
    """Run the worker to completion; returns (wall seconds, parsed result or error)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)] + args, cwd=str(ROOT), env=_env(hash_seed),
        stdin=subprocess.PIPE if job is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(
            json.dumps(job).encode() if job is not None else None, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - t0, "worker timed out after %d s" % REP_TIMEOUT_S
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, "worker exited with %d: %s" % (proc.returncode, err.decode()[-2000:])
    if job is None:
        return wall, None
    try:
        return wall, json.loads(out.decode().splitlines()[-1])
    except (ValueError, IndexError):
        return wall, "worker printed no result: %r" % out.decode()[-2000:]


def _ops(job: dict) -> int:
    return len(job["queries"]) if job["kind"] == "queries" else 1


class Run:
    """Counts operations and failures across the repetitions of one run."""

    def __init__(self, job: dict, hash_seed: int):
        self.job = job
        self.hash_seed = hash_seed
        self.attempted = 0
        self.failures: list[str] = []
        self.reps: list[dict] = []

    def repetition(self, spans_path: str | None = None) -> dict | None:
        job = dict(self.job, spans_path=spans_path)
        wall, res = _spawn([], job, self.hash_seed)
        if isinstance(res, str):
            self.attempted += _ops(self.job)
            self.failures.extend([res] * _ops(self.job))
            return None
        self.attempted += len(res["errors"])
        self.failures.extend(e for e in res["errors"] if e is not None)
        res["process_s"] = wall
        self.reps.append(res)
        return res


def tail_percentile(n: int) -> int:
    """95, or the highest whole percentile with at least ten samples beyond it."""
    if n >= 200:
        return 95
    if n > 10:
        return 100 * (n - 10) // n
    return 100


def percentile(sorted_values: list, pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct * len(sorted_values) / 100) - 1)]


def measure(name: str, seed: int, seconds: float, smoke: bool, break_anchor: bool):
    """End-to-end run: repetitions for ``seconds``, each after a few set-up timings.

    Set-up timings are interleaved with the repetitions so that both sample
    the whole run, not one moment of it.
    """
    job = make_job(name, seed, smoke, break_anchor)
    hash_seed = seed % 2**32
    run = Run(job, hash_seed)
    _spawn(["--setup"], None, hash_seed)  # compiles bytecode; not timed
    setups = []
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(1 if smoke else SETUPS_PER_REP):
            wall, err = _spawn(["--setup"], None, hash_seed)
            if err:
                run.attempted += 1
                run.failures.append(err)
            setups.append(wall)
        run.repetition()
        rounds.append(time.perf_counter() - round_start)
        if smoke or not run.reps:
            break
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    latencies = sorted(1000 * x for r in run.reps for x in r["latencies_s"])
    info = {"repetitions": len(run.reps), "setup_repetitions": len(setups),
            "latency_samples": len(latencies),
            "rep_wall_s": [r["wall_s"] for r in run.reps],
            "rep_cpu_s": [r["cpu_s"] for r in run.reps], "setup_walls_s": setups}
    if run.failures or not run.reps:
        return run, {}, info
    tail = tail_percentile(len(latencies))
    info["tail_percentile"] = tail
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in run.reps), "s"),
        "items_per_s": (statistics.median(r["items"] / r["wall_s"] for r in run.reps), "1/s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_tail_ms": (percentile(latencies, tail), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r in run.reps), "MB"),
    }
    return run, metrics, info


def trace(name: str, seed: int, smoke: bool, break_anchor: bool):
    """Traced run: one untraced and one traced repetition, per-function costs."""
    job = make_job(name, seed, smoke, break_anchor)
    run = Run(job, seed % 2**32)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s.tsv.gz" % name)
    plain = run.repetition()
    traced = run.repetition(str(spans_path))
    info = {"spans_file": str(spans_path.relative_to(ROOT))}
    if run.failures or plain is None or traced is None:
        return run, {}, info
    layers = traced["layers"]
    info["spans"] = layers["spans"]
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        st = layers["functions"].get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[fn + ".calls"] = (st["calls"], "count")
        metrics[fn + ".self_s"] = (st["self_s"], "s")
        metrics[fn + ".total_s"] = (st["total_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    for ratio, value in layers["ratios"].items():
        metrics[ratio] = (value, "ratio")
    info["all_functions"] = layers["functions"]
    return run, metrics, info


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "git_sha": _git_sha(),
            "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
            "hash_seed": seed % 2**32, "machine": platform.machine(),
            "cpus": os.cpu_count()}


# ---------------------------------------------------------------------------
# command line


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one repetition: a quick check of the checks")
    p.add_argument("--break-anchor", action="store_true",
                   help="expect a wrong answer everywhere; every operation must fail")
    args = p.parse_args(argv)
    if not (SRC / "gentleq" / "__init__.py").is_file():
        print("error: no gentleq sources under %s" % SRC, file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = provenance(args.seed)
    attempted = failed = 0
    metrics_out = {}
    for name in names:
        try:
            if args.trace:
                run, metrics, info = trace(name, args.seed, args.smoke, args.break_anchor)
            else:
                run, metrics, info = measure(name, args.seed, args.seconds, args.smoke,
                                             args.break_anchor)
        except Exception:  # the package failed while the inputs were made
            run, metrics, info = Run({}, 0), {}, {}
            run.attempted = 1
            run.failures.append(traceback.format_exc())
        attempted += run.attempted
        failed += len(run.failures)
        error_rate = len(run.failures) / run.attempted if run.attempted else 1.0
        print("# %s: %d attempted, %d failed, error_rate %.4f"
              % (name, run.attempted, len(run.failures), error_rate))
        for failure in sorted(set(run.failures))[:10]:
            print("#   failure: %s" % failure.strip().replace("\n", "\n#   "))
        for metric, (value, unit) in metrics.items():
            print("%-52s %14.6g %s" % ("%s %s" % (name, metric), value, unit))
            key = metric if len(names) == 1 else "%s.%s" % (name, metric)
            metrics_out[key] = {"value": value, "unit": unit}
        record = dict(meta, workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, smoke=args.smoke, attempted=run.attempted,
                      failed=len(run.failures), error_rate=error_rate,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      **info)
        OUT.mkdir(exist_ok=True)
        stem = "result-%s-seed%d-trace%d%s" % (name, args.seed, args.trace,
                                              "-smoke" if args.smoke else "")
        (OUT / (stem + ".json")).write_text(
            json.dumps(record, indent=1) + "\n")
        print("# meta %s" % json.dumps({k: v for k, v in record.items()
                                        if k not in ("metrics", "all_functions")}))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics_out if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
