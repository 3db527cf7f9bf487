"""One round of one workload, in a fresh single-threaded interpreter.

Run by ``run.py``; not meant to be run by hand.  The first thing it does
is import the whole ``onsaw`` package from ``src/`` and stamp the
monotonic clock (shared by all processes on Linux), so the parent can
time set-up from process start to a usable library.  With
``--setup-only`` it stops there.  Otherwise it builds the workload's
operations from the seed, runs them all in order as the timed region,
and prints one JSON line with times, verdicts and the data the
independent checks need.
"""

import importlib
import os
import pkgutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import onsaw  # noqa: E402

for _mod in pkgutil.iter_modules(onsaw.__path__):
    importlib.import_module(f"onsaw.{_mod.name}")
READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _serialise(data):
    from onsaw import askey_wilson as aw

    if data is None:
        return None
    return {k: aw.export_table(v) if isinstance(v, aw.StructTable) else v
            for k, v in data.items()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return

    import workloads  # the script's directory is first on sys.path

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace_out:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    clock = time.perf_counter
    t0, c0 = clock(), time.process_time()
    for op in ops:
        start = clock()
        passed, data = tracer.op(op.name, op.run) if tracer else op.run()
        results.append((op, passed, data, clock() - start))
    verdict_s, cpu_s = clock() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "ready": READY,
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [{"name": op.name, "kind": op.kind, "passed": passed, "s": s,
                 "data": _serialise(data)}
                for op, passed, data, s in results],
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
