"""GenEdit benchmark: one workload per call, each run in fresh processes.

    python3 perfbench/run.py --workload ask_dev [--seed 7] [--seconds 15]
                             [--trace 0|1]
    python3 perfbench/run.py --suite [--seed 7] [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --write-spec

A workload run launches ``worker.py`` in a new interpreter, times set-up
from launch until the worker reports ``READY``, scales it by the
calibration units the worker timed during set-up (see ``calibrate.py``),
and repeats set-up in ``SETUPS - 1`` further fresh processes so
``setup_s`` is a median. It prints every metric with its unit, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``. It exits non-zero when an answer check fails.

``--suite`` runs every workload this way, prints one table, and writes
the results with the machine they ran on to ``.perfbench/results.json``.
``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import measure  # noqa: E402
import spec  # noqa: E402

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: A run must finish within this many seconds.
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def launch(args, setup_only, deadline):
    """Start a worker; returns ``(setup seconds, process, calibration
    unit ms)`` once READY."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    started = time.perf_counter()
    # Its own process group, so a kill also reaches a server it started.
    process = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    # A worker stuck in set-up prints nothing; the timer ends the wait.
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                            kill, args=(process,))
    timer.start()
    try:
        for line in process.stdout:
            if line.startswith("READY "):
                return (time.perf_counter() - started, process,
                        float(line.split()[1]))
    finally:
        timer.cancel()
    process.wait()
    raise RunFailed("worker ended before set-up finished")


def kill(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish(process, deadline):
    """Wait for a worker; returns its remaining stdout."""
    try:
        out, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        kill(process)
        process.communicate()
        raise RunFailed("worker exceeded the run deadline") from None
    if process.returncode != 0:
        raise RunFailed(f"worker exited with {process.returncode}")
    return out


def run_workload(args):
    """One workload run; returns ``(result line, report lines)``."""
    deadline = time.monotonic() + DEADLINE_S
    report = [f"machine: {json.dumps(measure.machine(), sort_keys=True)}"]
    setups = []   # (seconds as measured, calibration unit ms)
    if not args.trace:
        for _ in range(SETUPS - 1):
            seconds, process, unit = launch(args, True, deadline)
            finish(process, deadline)
            setups.append((seconds, unit))
    seconds, process, unit = launch(args, False, deadline)
    setups.append((seconds, unit))
    out = finish(process, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = dict(result["metrics"])
    if args.trace:
        units = spec.PER_LAYER
    else:
        units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
        metrics["setup_s"] = measure.median(
            [calibrate.scaled(seconds, unit) for seconds, unit in setups])
        report.append("setup_s runs as measured: " + ", ".join(
            f"{seconds:.4f}" for seconds, _ in setups))
    if set(metrics) != set(units):
        raise RunFailed(f"metrics {sorted(set(metrics) ^ set(units))} "
                        f"missing or unexpected")
    for name in units:
        report.append(f"{name} = {metrics[name]:.6g} {units[name]}")
    for key, value in result.get("notes", {}).items():
        report.append(f"note {key} = {json.dumps(value)}")
    for error in result["errors"]:
        report.append(f"CHECK FAILED: {error}")
    line = {
        "correct": not result["errors"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return line, report


def run_suite(args):
    """Every workload in its own process; one table; results file."""
    results = {"machine": measure.machine(), "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name, _why in spec.WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DEADLINE_S + 10)
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            line = json.loads(lines[-1])
        except (IndexError, ValueError):
            line = {"correct": False, "metrics": {}}
        ok = ok and done.returncode == 0 and line["correct"]
        results["workloads"][name] = line
    names = list(spec.PER_LAYER if args.trace else spec.END_TO_END)
    print(f"\n{'metric':34}" + "".join(f"{w:>18}" for w, _ in spec.WORKLOADS))
    for metric in names:
        cells = []
        for workload, _ in spec.WORKLOADS:
            entry = results["workloads"][workload]["metrics"].get(metric)
            cells.append("-" if entry is None else
                         f"{entry['value']:.5g} {entry['unit']}")
        print(f"{metric:34}" + "".join(f"{cell:>18}" for cell in cells))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"\nresults written to {os.path.relpath(path, ROOT)}; "
          f"answers {'correct' if ok else 'WRONG'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(spec.benchmark_json())
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.suite:
        return run_suite(args)
    if args.workload is None:
        parser.error("--workload, --suite or --write-spec is required")
    try:
        line, report = run_workload(args)
    except RunFailed as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
