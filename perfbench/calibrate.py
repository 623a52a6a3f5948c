"""Machine-speed calibration for the timing metrics.

This benchmark runs on a few cores of a shared host. Other tenants slow
the whole machine down by a third or more for a minute at a time, and no
statistic over one run tells that apart from a slower program: two runs
of the same code a minute apart differ by 20 to 30 %.

So every timed operation is followed by one calibration unit: a fixed
piece of pure-Python work (building rows, indexing and sorting them, the
kind of work the program does) that no change to the program can make
faster or slower. How long the unit took says how fast the machine ran
at that moment, and the operation's time is scaled to the machine speed
at which the unit takes ``REFERENCE_MS``: ``ms * REFERENCE_MS / unit ms``,
with the median of the units timed around the operation as ``unit ms``.
Timing metrics are these scaled milliseconds; the times as measured are
reported beside them. The unit runs after the operation's clock has
stopped, so it is not part of any time it scales.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

#: The unit's time in ms on an unloaded 2-vCPU x86-64 host with CPython
#: 3.11; scaled times are milliseconds on a machine that fast.
REFERENCE_MS = 0.30
#: An operation is scaled by the median of its own unit and those of the
#: ``WINDOW`` operations on either side. Another process on the same CPU
#: (the server, on serve_zipf) now and then interrupts a single unit,
#: which would distort the one operation it scales.
WINDOW = 4

_WORDS = ("the quick brown fox jumps over the lazy dog while revenue per "
          "region grows quarter over quarter in every table of the "
          "warehouse").split()
# One unit at a time, so a thread never times another's unit.
_LOCK = threading.Lock()


def _unit():
    rows = [{"id": i, "name": _WORDS[i % len(_WORDS)] + str(i),
             "v": (i * 37) % 101} for i in range(300)]
    index = {}
    for row in rows:
        for token in row["name"].upper().split():
            index.setdefault(token[:3], []).append(row["id"])
    ranked = sorted(rows, key=lambda row: (row["v"], row["name"]))
    return (len(index), ranked[0]["id"],
            " ".join(row["name"] for row in ranked[:50]).count("E"))


def unit_ms():
    """One calibration unit's time in ms. The cycle collector is paused
    meanwhile, so the size of the program's heap does not enter it."""
    with _LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _unit()
            return (time.perf_counter() - started) * 1000.0
        finally:
            if enabled:
                gc.enable()


def scale(latencies_ms, units_ms):
    """Each operation's time, in order, scaled to the reference machine
    speed; ``units_ms[i]`` was timed right after operation ``i``."""
    if len(latencies_ms) != len(units_ms):
        raise ValueError(f"{len(latencies_ms)} operations but "
                         f"{len(units_ms)} calibration units")
    return [
        scaled(ms, statistics.median(units_ms[max(0, i - WINDOW):
                                              i + WINDOW + 1]))
        for i, ms in enumerate(latencies_ms)
    ]


def scaled(ms, unit):
    """``ms`` measured while a calibration unit took ``unit`` ms, scaled
    to the reference machine speed."""
    return ms * REFERENCE_MS / unit
