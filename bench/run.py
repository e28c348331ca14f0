#!/usr/bin/env python3
"""nosreg benchmark: one closed-loop client drives one workload in process.

Usage, from the repository root:

    python3 bench/run.py --workload design-quick --seed 1 --seconds 20 --trace 0

``--trace 0`` serves requests back to back until the timed request intervals
add up to ``--seconds`` and prints the end-to-end metrics.  ``--trace 1``
serves a fixed number of requests (``--seconds`` times the workload's trace
rate) once untraced and once traced, prints the per-layer metrics and writes
the spans to ``.bench_out/``.  Every request's output is checked outside its
timed interval.  The last line of stdout is the JSON result.
"""

import os

# Pin native thread pools before numpy loads; child interpreters inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
# The tail is the highest percentile, capped at p99, with this many samples beyond it.
MIN_BEYOND_TAIL = 10
TAIL_CAP = 99.0
# Largest share of traced request time that may fall outside every layer span.
UNATTRIBUTED_MAX = 0.05
# Requests per --seconds in a traced run, sized so the untraced and the traced
# pass together take about --seconds.
TRACE_RATE = {"design-quick": 100.0, "search-hard": 2.0, "verify-nonlinear": 0.2}
WARMUP_INDEX = 2 ** 31   # request index outside every measured stream


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import nosreg
    except ImportError as exc:
        sys.exit(f"error: cannot import nosreg from {SRC}: {exc}")
    if Path(nosreg.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: nosreg was imported from {nosreg.__file__}, not from {SRC}")


class Tally:
    """Latencies, outcomes and the determinism digest of one pass over requests."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.certified = 0
        self.rk4_steps = 0
        self.digest = hashlib.sha256()

    def fail(self, i, what):
        self.failed += 1
        print(f"request {i} failed: {what}", file=sys.stderr)


def serve(wl, *, seconds=None, count=None, request=None) -> Tally:
    """Closed loop: build request i, time ``request(req)`` alone, check the output untimed."""
    request = request or wl.run
    tally = Tally()
    i = 0
    measured = 0.0
    while (i < count) if count is not None else (measured < seconds):
        req = wl.make(i)
        t0 = time.perf_counter()
        try:
            result = request(req)
        except Exception:
            tally.latencies.append(time.perf_counter() - t0)
            tally.fail(i, traceback.format_exc())
        else:
            tally.latencies.append(time.perf_counter() - t0)
            try:
                checked = wl.check(req, result)
            except Exception:
                tally.fail(i, traceback.format_exc())
            else:
                tally.digest.update(len(checked.record).to_bytes(8, "little") + checked.record)
                tally.certified += checked.certified
                tally.rk4_steps += checked.rk4_steps
                if checked.problems:
                    tally.fail(i, "; ".join(checked.problems))
        measured += tally.latencies[-1]
        i += 1
    return tally


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import nosreg + building the workload's objects."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def tail(latencies):
    """(percentile, value) of the latency tail.

    The percentile is 100 (1 - MIN_BEYOND_TAIL / n), capped at TAIL_CAP, so
    it moves smoothly with the sample count.  Below 2 * MIN_BEYOND_TAIL
    samples it would fall under the median, and the maximum is reported.
    """
    n = len(latencies)
    if n < 2 * MIN_BEYOND_TAIL:
        return 100.0, max(latencies)
    q = min(TAIL_CAP, 100.0 * (1.0 - MIN_BEYOND_TAIL / n))
    return q, float(np.percentile(latencies, q))


def emit(metrics: dict, attempted: int, failed: int, correct: bool) -> None:
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(wl, workload: str, seconds: float) -> None:
    setup_s = measure_setup(workload)
    tally = serve(wl, seconds=seconds)
    n = len(tally.latencies)
    busy = sum(tally.latencies)
    q, tail_s = tail(tally.latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"requests {n}, measured {busy:.3f} s, digest {tally.digest.hexdigest()}")
    # Printed but kept out of the JSON metrics; bench/README.md says why.
    print(f"requests_per_s = {n / busy!r} 1/s")
    print(f"latency_p50_ms = {statistics.median(tally.latencies) * 1e3!r} ms")
    print(f"failed_frac = {tally.failed / n!r}")
    if tally.rk4_steps:
        print(f"rk4_steps_per_s = {tally.rk4_steps / busy!r} 1/s")
    print(f"latency_tail_ms is p{q:.2f} over {n} samples")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "certified_frac": {"value": tally.certified / n, "unit": "frac"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    emit(metrics, n, tally.failed, tally.failed == 0)


def run_traced(wl, workload: str, seed: int, seconds: float, env: str) -> None:
    import tracing

    count = max(1, round(seconds * TRACE_RATE[workload]))
    plain = serve(wl, count=count)
    tracer = tracing.Tracer()
    request_span = tracer.wrap(wl.run, tracing.REQUEST_SPAN)

    def traced_request(req):
        tracer.request += 1
        return request_span(req)

    with tracing.installed(tracer):
        traced = serve(wl, count=count, request=traced_request)
    totals = tracing.layer_totals(tracer)
    totals["trace.overhead_frac"] = 1.0 - sum(plain.latencies) / sum(traced.latencies)

    problems = []
    if plain.digest.digest() != traced.digest.digest():
        problems.append("traced requests produced different outputs than untraced ones")
    if totals["trace.unattributed_frac"] > UNATTRIBUTED_MAX:
        problems.append(f"layer self times cover only {1 - totals['trace.unattributed_frac']:.1%} "
                        f"of traced request time (need {1 - UNATTRIBUTED_MAX:.0%})")
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)

    trace_path = OUT / f"trace-{workload}-seed{seed}.tsv"
    tracer.write(trace_path, f"workload={workload} seed={seed} requests={count} {env}")
    print(f"requests {count} per pass, digest {traced.digest.hexdigest()}, spans in {trace_path}")
    print(f"layer self times cover {1 - totals['trace.unattributed_frac']:.2%} of traced "
          f"request time (required >= {1 - UNATTRIBUTED_MAX:.0%}), "
          f"trace.overhead_frac = {totals['trace.overhead_frac']:.3f}")
    metrics = {name: {"value": totals.get(name, 0), "unit": unit}
               for name, unit in tracing.PER_LAYER}
    failed = plain.failed + traced.failed
    emit(metrics, 2 * count, failed, failed == 0 and not problems)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    import_library()
    import fixtures
    import workloads

    if args.workload not in workloads.WORKLOAD_CLASSES:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOAD_CLASSES)}")
    env = (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
           f"numpy={np.__version__}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; {env}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        fix = fixtures.build(args.workload, ROOT)
        wl = workloads.WORKLOAD_CLASSES[args.workload](args.seed, fix, Path(workdir))
        wl.run(wl.make(WARMUP_INDEX))
        if args.trace:
            run_traced(wl, args.workload, args.seed, args.seconds, env)
        else:
            run_untraced(wl, args.workload, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
