"""Statistics and machine facts shared by every workload.

Latency is summarised as a median plus a tail: the highest percentile that
still has at least ``TAIL_BEYOND`` samples beyond it, i.e. the
``TAIL_BEYOND + 1``-th largest sample. The percentile that value stands
for depends on the sample count, so it is reported next to it. Where rare
events rather than the inputs set the tail, it is taken per batch of
consecutive samples and the batches' median is reported.

Timing metrics are scaled to a reference machine speed (see
:mod:`calibrate`); the figures as measured are reported beside them.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics

import calibrate

#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def tail(values, beyond=TAIL_BEYOND):
    """``(value, percentile)``: the highest percentile with ``beyond``
    samples above it, and which percentile that is."""
    if len(values) <= beyond:
        raise ValueError(f"{len(values)} samples leave none with "
                         f"{beyond} beyond it")
    ordered = sorted(values)
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def batched_tail(values, batches):
    """``(value, percentile)``: the median over ``batches`` consecutive
    batches of ``values`` (in the order measured) of each batch's
    :func:`tail`."""
    tails = [
        tail(values[i * len(values) // batches:
                    (i + 1) * len(values) // batches])
        for i in range(batches)
    ]
    return (statistics.median(value for value, _ in tails),
            statistics.median(percentile for _, percentile in tails))


def latency_metrics(values, concurrency=1, tail_batches=1):
    """Throughput, median and tail of per-operation times in ms, with the
    percentile the tail stands for. Throughput counts ``concurrency``
    operations in flight all the time; the tail is a
    :func:`batched_tail`."""
    tail_value, percentile = batched_tail(values, tail_batches)
    return {
        "throughput_per_s": concurrency * 1000.0 * len(values) / sum(values),
        "latency_p50_ms": median(values),
        "latency_tail_ms": tail_value,
    }, percentile


def scaled_metrics(latencies_ms, units_ms, concurrency=1, tail_batches=1):
    """``(metrics, notes)``: :func:`latency_metrics` of per-operation
    times scaled by the calibration units timed after them (see
    :func:`calibrate.scale`); the notes carry the figures as measured."""
    metrics, percentile = latency_metrics(
        calibrate.scale(latencies_ms, units_ms), concurrency, tail_batches)
    as_measured, _ = latency_metrics(latencies_ms, concurrency,
                                     tail_batches)
    return metrics, {
        "tail_percentile": round(percentile, 2),
        "samples": len(latencies_ms),
        "calibration_unit_ms": round(median(units_ms), 4),
        "as_measured": {name: round(value, 4)
                        for name, value in as_measured.items()},
    }


def machine():
    """The facts a result must carry to be compared with another one."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }


def peak_rss_mb(pid=None):
    """Peak resident memory in MB: ``VmHWM`` of ``pid``, or this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
