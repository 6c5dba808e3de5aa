"""Benchmark of dunkl, run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-pipelines and verify-grid (``dunkl verify`` on two halves
of the suites, one sweep each), and library-calls (short public-API calls in
a closed loop for S seconds).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1, which also writes a Chrome trace under bench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("verify-pipelines", "verify-grid", "library-calls")

#: The import of dunkl and its CLI is timed this many times, once here and
#: the rest in child processes, and the median is reported: one start varies
#: by a quarter.
IMPORT_SAMPLES = 3
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); import dunkl; import dunkl.cli; "
    "print(time.perf_counter() - t)"
)


def _child_import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dunkl" / "__init__.py").is_file():
        print(f"error: no dunkl sources at {SRC / 'dunkl'}; run from a source checkout", file=sys.stderr)
        return 2
    # suite runs stay serial: the tracer's span stack is not thread-safe,
    # and the workloads are defined as serial runs
    os.environ["DUNKL_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import dunkl
    import dunkl.cli

    import_s = time.perf_counter() - started
    if Path(dunkl.__file__).resolve().parent != SRC / "dunkl":
        print(f"error: imported dunkl from {dunkl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # numpy and mpmath are loaded by now, so the benchmark's own modules
    # add nothing to the import time above
    import layers
    import library_calls
    import measure
    import verify_workloads
    from tracing import Tracer

    tracer = Tracer(layers.BUILDERS)
    tracer.install(layers.BUILDER_TARGETS + (layers.LAYER_TARGETS if args.trace else ()))
    OUT.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    if args.workload == "library-calls":
        setup = library_calls.build_setup(dunkl)
        builder_s = tracer.builder_seconds()
        outcome = library_calls.run(dunkl, setup, args.seed, args.seconds)
        traced_s = time.perf_counter() - t0 - outcome.check_s
        wall_s = statistics.median(outcome.round_s)
        latencies = outcome.latencies_s
        errors, attempted, failed = outcome.errors, outcome.attempted, outcome.failed
        problems = outcome.unexpected
    else:
        suites = (verify_workloads.PIPELINE_SUITES if args.workload == "verify-pipelines"
                  else verify_workloads.GRID_SUITES)
        out_path = OUT / f"report-{args.workload}.json"
        code, reports = verify_workloads.run_verify(dunkl.cli.main, suites, out_path)
        traced_s = time.perf_counter() - t0
        builder_s = tracer.builder_seconds()
        wall_s = traced_s - builder_s
        problems, errors = verify_workloads.check_reports(reports, suites)
        # one call: its per-check times were tried as calls, but the median
        # check sits in a gap between check families and moved by a fifth
        latencies = [traced_s]
        if code != 0:
            problems.insert(0, f"dunkl verify exited with {code}")
        attempted = max(len(reports), 1)
        failed = sum(1 for r in reports if not r["max_rel_err"] <= r["params"].get("tol", float("inf")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"run: {traced_s:.3f} s after import, besides the benchmark's own checks", file=sys.stderr)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"trace: {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)", file=sys.stderr)
        metrics = layers.per_layer_metrics(tracer, traced_s)
    else:
        imports = [import_s] + [_child_import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
        tail = measure.tail_percentile(len(latencies))
        print(f"calls: {len(latencies)}, tail percentile p{tail}; import samples {imports}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(imports) + builder_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "accuracy_digits": {"value": measure.accuracy_digits(errors), "unit": "digits"},
            "call_p50_us": {"value": measure.percentile(latencies, 50) * 1e6, "unit": "us"},
            "call_p99_us": {"value": measure.percentile(latencies, tail) * 1e6, "unit": "us"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
