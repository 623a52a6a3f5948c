"""Run one workload in this (fresh) process.

Prints ``READY <ms>`` once set-up ends, so the parent can time set-up
from process launch and scale it by the median calibration unit (``ms``)
timed at its start and after each warm-up operation. Then runs the timed
phase, checks the answers and prints one JSON result line.
``--setup-only`` exits after ``READY``.

    python3 perfbench/worker.py --workload ask_dev --seed 7 --seconds 15
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import inproc  # noqa: E402
import measure  # noqa: E402
import spec  # noqa: E402


#: Calibration units timed as the worker starts, before the program loads.
START_UNITS = 20


def reporter(start_units_ms):
    """``ready(warm_up_units_ms)``, which prints ``READY`` with the median
    of these units and the warm-up's."""
    def ready(warm_up_units_ms):
        unit_ms = measure.median(start_units_ms + list(warm_up_units_ms))
        print(f"READY {unit_ms!r}", flush=True)
    return ready


def make_inproc(name):
    if name == "ask_dev":
        return inproc.Ask()
    if name == "ask_enterprise":
        return inproc.Ask(enterprise=True)
    return inproc.FeedbackSessions()


def run_inproc(args, ready):
    workload = make_inproc(args.workload)
    ready(workload.units_ms)
    if args.setup_only:
        return None
    if args.trace:
        return trace_inproc(workload, args)
    phase = workload.run(args.seconds, args.seed, calibrated=True,
                         min_passes=inproc.MIN_PASSES)
    errors, failed, ex = workload.check([phase])
    metrics, notes = measure.scaled_metrics(phase.latencies_ms,
                                            phase.units_ms)
    return {
        "errors": errors,
        "attempted": phase.ops,
        "failed": failed,
        "metrics": {**metrics, "ex_pct": ex,
                    "peak_rss_mb": measure.peak_rss_mb()},
        "notes": {**notes, "timed_s": round(phase.elapsed_s, 3)},
    }


def trace_inproc(workload, args):
    import layers
    import tracing

    half = args.seconds / 2.0
    untraced = workload.run(half, args.seed)
    recorder = tracing.Recorder()
    before = layers.snapshots()
    eval_before = workload.context.cache.stats()
    uninstall = tracing.install(recorder)
    try:
        traced = workload.run(half, args.seed + 1)
    finally:
        uninstall()
    after = layers.snapshots()
    eval_after = workload.context.cache.stats()
    errors, failed, _ex = workload.check([untraced, traced])
    deltas = {key: after[key] - before[key] for key in after}
    for key in ("hits", "misses"):
        deltas[f"eval.cache.{key}"] = eval_after[key] - eval_before[key]
    names, selfs, _root_s = tracing.rollup(recorder.spans)
    metrics = layers.layer_metrics(names, selfs, recorder.counters, deltas,
                                   traced.ops, traced.elapsed_s)
    metrics["trace.overhead_pct"] = 100.0 * (
        untraced.throughput_per_s / traced.throughput_per_s - 1.0)
    return {
        "errors": errors,
        "attempted": untraced.ops + traced.ops,
        "failed": failed,
        "metrics": metrics,
        "notes": {"traced_ops": traced.ops,
                  "traced_s": round(traced.elapsed_s, 3),
                  "largest_layer": layers.largest(selfs)},
    }


def run_serve(args, ready):
    import serveload

    # Client and server share one CPU (the server inherits it). Spread
    # over two, they slow down by far more than the calibration unit
    # shows whenever the host takes one CPU away for a while, as both
    # then queue for the other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = serveload.trace if args.trace else serveload.run
    return run(ROOT, args.seed, args.seconds, ready, args.setup_only)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    ready = reporter([calibrate.unit_ms() for _ in range(START_UNITS)])
    if args.workload == "serve_zipf":
        result = run_serve(args, ready)
    else:
        result = run_inproc(args, ready)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
