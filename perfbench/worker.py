"""One repetition of a benchmark workload, run in a fresh interpreter.

Every repetition starts a new interpreter so that the package's in-process
caches (``_enumerate_cached``, ``_orbit_partition``, ``theorem_key_table``,
``core._INDEX_CACHE``) start empty, as they do on every CLI run.

    python3 perfbench/worker.py --setup    # import and build the lazy tables only
    python3 perfbench/worker.py < job.json # one repetition; prints one JSON line

The job names the workload kind, its inputs and its expected answers.  The
worker times the work, then checks every answer outside the timed region and
reports each operation as passed or failed with the reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import sys
import time
import traceback
from fractions import Fraction

SETUP_SIZES = range(2, 6)


def setup() -> None:
    """What a fresh process does before any work: import, build lazy tables."""
    import gentleq.cli  # noqa: F401
    from gentleq.orbit import theorem_key_table

    for n in SETUP_SIZES:
        theorem_key_table(n)


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


# ---------------------------------------------------------------------------
# batch workloads: one verify command through the CLI dispatcher

_CHECK_RE = re.compile(r"^check (\S+): (PASS|FAIL) \((\d+) instances\)$")


def check_completeness(code: int, lines: list[str], anchors: dict):
    """Returns (error or None, classes verified)."""
    if code != 0 or lines[-1:] != ["RESULT: PASS"]:
        return "exit code %d, last line %r" % (code, lines[-1:]), 0
    want = ["classes: %d" % anchors["classes"], "orbits: %d" % anchors["orbits"]]
    if lines[:2] != want:
        return "header %r, expected %r" % (lines[:2], want), 0
    orbit_lines = [ln for ln in lines if ln.startswith("orbit ")]
    if len(orbit_lines) != anchors["orbits"]:
        return "%d orbit lines, expected %d" % (len(orbit_lines), anchors["orbits"]), 0
    tallied = sum(int(ln.rsplit("=", 1)[1]) for ln in lines if ln.startswith("family "))
    if tallied != anchors["classes"]:
        return "family tallies sum to %d, expected %d" % (tallied, anchors["classes"]), 0
    if "failures: 0" not in lines:
        return "report lists failures", 0
    return None, anchors["classes"]


def check_lemmas(code: int, lines: list[str], anchors: dict):
    """Returns (error or None, report instances verified)."""
    if code != 0 or lines[-1:] != ["RESULT: PASS"]:
        return "exit code %d, last line %r" % (code, lines[-1:]), 0
    counts = {}
    for ln in lines:
        m = _CHECK_RE.match(ln)
        if m:
            if m.group(2) != "PASS":
                return "check %s failed" % m.group(1), 0
            counts[m.group(1)] = int(m.group(3))
    for name, want in anchors.items():
        if counts.get(name) != want:
            return "check %s: %s instances, expected %d" % (name, counts.get(name), want), 0
    if "failures: 0" not in lines:
        return "report lists failures", 0
    return None, sum(counts.values())


BATCH_CHECKS = {"completeness": check_completeness, "lemmas": check_lemmas}


def run_batch(job: dict, tracer) -> tuple[dict, list]:
    """Time one verify command; the answer is its exit code and report lines."""
    import gentleq.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            answer = (gentleq.cli.dispatch(job["argv"]), buf.getvalue().splitlines())
    except Exception:  # a crash is a failed operation, reported with its traceback
        answer = traceback.format_exc()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "latencies_s": [wall]}, [answer]


def check_batch(job: dict, answers: list) -> tuple[list, int]:
    """Returns (error or None per operation, items verified)."""
    (answer,) = answers
    if isinstance(answer, str):
        return [answer], 0
    error, items = BATCH_CHECKS[job["check"]](answer[0], answer[1], job["anchors"])
    return [error], items


# ---------------------------------------------------------------------------
# per-input queries through the library API


def run_queries(job: dict, tracer) -> tuple[dict, list]:
    """Time each query: parse, validate, phi, cartan_matrix, normalize, recognize."""
    import gentleq as g

    answers = []
    latencies = []
    t0 = time.perf_counter()
    for qid, query in enumerate(job["queries"], start=1):
        if tracer is not None:
            tracer.query = qid
        q0 = time.perf_counter()
        try:
            bq = g.parse(query["text"])
            answer = (bq, g.validate(bq), g.phi(bq), g.cartan_matrix(bq),
                      g.normalize(bq), g.recognize(bq))
        except Exception:  # a crash is a failed query, reported with its traceback
            answer = traceback.format_exc()
        latencies.append(time.perf_counter() - q0)
        answers.append(answer)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "latencies_s": latencies}, answers


def check_queries(job: dict, answers: list) -> tuple[list, int]:
    """Returns (error or None per query, queries verified)."""
    import gentleq as g

    errors = [check_query(g, query, answer) for query, answer in zip(job["queries"], answers)]
    return errors, sum(1 for e in errors if e is None)


def check_query(g, query: dict, answer) -> str | None:
    """Compare one query's answers with the anchors of the spec it came from."""
    if isinstance(answer, str):
        return answer
    bq, violations, phi, (order, rows), normalized, recognized = answer
    if violations:
        return "validate reported %s" % (violations,)
    if normalized is None or str(normalized) != query["spec"]:
        return "normalize gave %s, the walk started at %s" % (normalized, query["spec"])
    if phi.lines() != query["phi"]:
        return "phi %s differs from the closed form %s" % (phi.lines(), query["phi"])
    if tuple(order) != tuple(sorted(bq.vertices)) or len(rows) != len(order):
        return "cartan matrix has the wrong shape"
    if str(determinant(rows)) != query["cartan_det"]:
        return "cartan determinant %s, expected %s" % (determinant(rows), query["cartan_det"])
    if recognized is not None and not g.is_isomorphic(g.build_family(recognized), bq):
        return "recognize gave %s, which is not isomorphic to the input" % recognized
    return None


KINDS = {"batch": (run_batch, check_batch), "queries": (run_queries, check_queries)}


# ---------------------------------------------------------------------------
# traced run: per-function costs and work-efficiency ratios


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(tracer) -> dict:
    stats = tracer.summary()
    calls = {name: st["calls"] for name, st in stats.items()}
    ratios = {
        "orbit.enumerate.kept_per_canonical": _ratio(
            tracer.results["orbit.enumerate_classes"],
            tracer.nested_calls("core.canonical_form", "orbit.enumerate_classes")),
        "orbit.orbit.states_per_move": _ratio(
            tracer.results["orbit.orbit"],
            tracer.nested_calls("moves.apply_move", "orbit.orbit")),
        "core.validate.per_phi": _ratio(calls.get("core.validate", 0),
                                        calls.get("invariant.phi", 0)),
        "families.recognize.canonical_per_call": _ratio(
            tracer.nested_calls("core.canonical_form", "families.recognize"),
            calls.get("families.recognize", 0)),
        "moves.apply_move.canonical_per_call": _ratio(
            tracer.nested_calls("core.canonical_form", "moves.apply_move"),
            calls.get("moves.apply_move", 0)),
    }
    return {"functions": stats, "ratios": ratios, "spans": len(tracer.fids)}


def main() -> int:
    if sys.argv[1:] == ["--setup"]:
        setup()
        return 0
    job = json.load(sys.stdin)
    setup()
    run, check = KINDS[job["kind"]]
    tracer = None
    if job.get("spans_path"):
        from tracer import Tracer

        tracer = Tracer({"orbit.enumerate_classes": len,
                         "orbit.orbit": lambda res: len(getattr(res, "component", ()))})
        tracer.install()
    cpu0 = time.process_time()
    result, answers = run(job, tracer)
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_report(tracer)
        tracer.write(job["spans_path"])
    result["errors"], result["items"] = check(job, answers)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
