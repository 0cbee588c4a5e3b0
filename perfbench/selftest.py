"""Shows that the benchmark's checks fire: run with ``python3 perfbench/selftest.py``.

1. Every workload at smoke size passes its checks, untraced and traced.
2. With ``--break-anchor`` every operation of every workload fails
   (error_rate = 1), the result says ``correct: false``, carries no timing,
   and the exit code is 1.
3. Each anchor of a query (its spec, closed-form phi, Cartan determinant)
   catches a wrong value on its own.

Exits 0 when all of this holds and prints the first broken expectation
otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import worker

RUN = str(Path(__file__).resolve().parent / "run.py")


def _bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, RUN, "--seed", "5", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit("selftest FAILED: " + what)


def main() -> int:
    for name in sorted(run.WORKLOADS):
        for trace in ("0", "1"):
            code, res = _bench("--workload", name, "--smoke", "--trace", trace)
            _expect(code == 0 and res["correct"] and res["failed"] == 0 and res["metrics"],
                    "%s (trace %s) should pass: %s" % (name, trace, res))
        code, res = _bench("--workload", name, "--smoke", "--break-anchor")
        _expect(code == 1 and not res["correct"] and res["metrics"] == {}
                and res["failed"] == res["attempted"] >= 1,
                "%s with a wrong anchor should fail every operation: %s" % (name, res))
        print("ok %s: passes when right, error_rate 1 when an anchor is wrong" % name)

    job = run.make_job("queries-45", 5, smoke=True, break_anchor=False)
    sys.path.insert(0, str(run.SRC))
    worker.setup()
    _timing, answers = worker.run_queries(job, None)
    errors, _items = worker.check_queries(job, answers)
    _expect(errors == [None] * len(answers), "smoke queries should pass: %s" % errors)
    wrong = {"spec": "L0(1,0)", "phi": ["(9,9): 1", "sum: 1"], "cartan_det": "-7"}
    for key, value in wrong.items():
        broken = dict(job, queries=[dict(q, **{key: value}) for q in job["queries"]])
        errors, items = worker.check_queries(broken, answers)
        _expect(items == 0 and all(errors), "a wrong %s anchor should fail every query" % key)
        print("ok queries-45: a wrong %s anchor fails every query" % key)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
