"""Benchmark of the onsaw certificates, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tensor|brackets|extract \
        [--seed N] [--seconds S] [--trace 0|1]

Each round of a workload runs in a fresh single-threaded interpreter
(``worker.py``), so no state or cache carries from one round into the
next, as for a user who runs one verification per process.  Rounds
repeat while the next one is expected to end within ``--seconds``; at
least two run (one untraced and one traced with ``--trace 1``).  Set-up is timed in separate interpreters that only
import the package, eleven times per run.  Every round's verdicts are
checked, and the first round's outputs go through the independent
checks of ``checks.py`` after the timed rounds.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics (medians over rounds); with ``--trace 1``
rounds alternate untraced and traced, and it holds the per-layer metrics
of the traced rounds.  Span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("tensor", "brackets", "extract")
SETUP_SAMPLES = 11
MIN_ROUNDS = 2  # untraced rounds per run, whatever --seconds says

# Every interpreter compiles the package from source: set-up then counts
# the code that is imported, the same on every run and in every checkout.
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

PER_LAYER_COUNTS = (
    "exactnum.pp_mul.calls",
    "exactnum.sl_mul.calls",
    "rmatrix.matmul.calls",
    "loop_algebra.bracket.calls",
    "onsager.bracket.calls",
    "askey_wilson.table_bracket.calls",
    "linsolve.add_row.calls",
    "linsolve.poly_gcd.calls",
)
PER_LAYER_TIMES = (
    "rmatrix.matmul.self_s",
    "rmatrix.add.self_s",
    "loop_algebra.bracket.self_s",
    "onsager.bracket.self_s",
    "series.bracket_cross.self_s",
    "series.commutator_scalar.self_s",
    "series.convolve.self_s",
    "series.first_mismatch.self_s",
    "askey_wilson.table_bracket.self_s",
    "linsolve.add_row.self_s",
    "linsolve.solve.self_s",
)
PER_LAYER_RATIOS = ("loop_algebra.bracket.nonzero_ratio", "linsolve.pivot_ratio")


def _worker(*argv: str) -> tuple:
    """Run the worker to completion; (start time on the monotonic clock, result)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return start, json.loads(proc.stdout.splitlines()[-1])


def setup_time() -> float:
    start, out = _worker("--setup-only")
    return out["ready"] - start


def run_round(workload: str, seed: int, trace_out: str | None) -> dict:
    argv = ["--workload", workload, "--seed", str(seed)]
    if trace_out:
        argv += ["--trace-out", trace_out]
    start, out = _worker(*argv)
    out["setup_s"] = out["ready"] - start
    return out


def _outputs(rnd: dict) -> str:
    return json.dumps([[op["name"], op["data"]] for op in rnd["ops"]], sort_keys=True)


def _den_terms(rnd: dict) -> int:
    """Master-denominator terms of the ns-CYBE residual at N=5 (tensor only)."""
    for op in rnd["ops"]:
        if op["name"] == "ns-cybe N=5":
            return op["data"]["den_terms"]
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "onsaw", "__init__.py")):
        print(f"no onsaw sources under {ROOT}/src", file=sys.stderr)
        return 2

    setups = [setup_time() for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    trace_out = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    min_rounds = 1 if args.trace else MIN_ROUNDS
    t0 = time.monotonic()
    while True:
        plain.append(run_round(args.workload, args.seed, None))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, trace_out))
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(plain)
        if len(plain) >= min_rounds and elapsed + per_round > args.seconds:
            break
    rounds = plain + traced
    setups += [r["setup_s"] for r in rounds]

    for r in rounds:
        for op in r["ops"]:
            print(f"{op['s']:9.4f} s  {'ok  ' if op['passed'] else 'FAIL'}  "
                  f"{op['kind']:7s}  {op['name']}")
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(not op["passed"] for r in rounds for op in r["ops"])

    results = checks.check_round(plain[0]["ops"])
    first = _outputs(plain[0])
    results.append(("rounds agree", all(_outputs(r) == first for r in rounds[1:]),
                    f"{len(rounds)} rounds compared"))
    for name, ok, detail in results:
        print(f"check {'ok  ' if ok else 'FAIL'}  {name}: {detail}")
    correct = all(ok for _, ok, _ in results)

    med = statistics.median
    if args.trace:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name in PER_LAYER_COUNTS:
            metrics[name] = {"value": layers[0][name], "unit": "count"}
        metrics["rmatrix.den_terms"] = {"value": _den_terms(traced[0]), "unit": "count"}
        for name in PER_LAYER_TIMES:
            metrics[name] = {"value": med(lay[name] for lay in layers), "unit": "s"}
        for name in PER_LAYER_RATIOS:
            metrics[name] = {"value": layers[0][name], "unit": "ratio"}
        traced_s = med(r["verdict_s"] for r in traced)
        metrics["trace.verdict_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": traced_s / med(r["verdict_s"] for r in plain), "unit": "ratio"}
    else:
        metrics = {
            "verdict_s": {"value": med(r["verdict_s"] for r in plain), "unit": "s"},
            "cpu_s": {"value": med(r["cpu_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": med(setups), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
