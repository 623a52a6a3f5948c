"""Open-loop load generation with a bounded number of connections.

Requests follow a seeded Poisson schedule whatever the server does. At
most ``connections`` requests are outstanding; a request whose slot is
busy when it falls due is sent late. Latency is measured from when the
request was due, so a stall is charged to every request it delays, and
the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


def poisson_offsets(rate, duration_s, rng):
    """Arrival offsets (seconds) of a Poisson process at ``rate`` over
    ``duration_s``, given that it brings its expected number of arrivals
    (``rate * duration_s``, rounded): that many uniform offsets, sorted.
    Fixing the count keeps the load of a step the same for every seed."""
    count = round(rate * duration_s)
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))


def zipf_counts(total, population, skew):
    """How often each rank is asked among ``total`` requests: rank i has
    weight ``1 / (i + 1) ** skew``, so low ranks are the hot ones. The
    expected counts are rounded by largest remainder to sum to ``total``,
    so every seed asks the same questions equally often."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(population)]
    exact = [total * weight / sum(weights) for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(population),
                          key=lambda rank: counts[rank] - exact[rank])
    for rank in by_remainder[:total - sum(counts)]:
        counts[rank] += 1
    return counts


def zipf_ranks(total, population, skew, rng):
    """``total`` ranks asked :func:`zipf_counts` times each, in an order
    shuffled by ``rng``."""
    ranks = [rank for rank, count in
             enumerate(zipf_counts(total, population, skew))
             for _ in range(count)]
    rng.shuffle(ranks)
    return ranks


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    ok: bool
    answer: object = None
    unit_ms: float = 0.0   # calibration unit timed after the response

    @property
    def latency_s(self):
        return self.done - self.due

    @property
    def lateness_s(self):
        return self.sent - self.due


@dataclass
class StepResult:
    rate: float
    duration_s: float
    start: float = 0.0
    samples: list = field(default_factory=list)

    def backlog_at(self, at):
        """Requests due by ``at`` and not yet completed at ``at``."""
        return sum(1 for s in self.samples if s.due <= at < s.done)

    def backlog_grows(self, slack, points=20):
        """Whether requests pile up: the mean backlog over the second half
        of the step exceeds that over the first half by more than
        ``slack``, each sampled at ``points`` evenly spaced instants."""
        def mean_backlog(half):
            step = self.duration_s / 2 / points
            begin = self.start + half * self.duration_s / 2
            return sum(self.backlog_at(begin + (i + 0.5) * step)
                       for i in range(points)) / points
        return mean_backlog(1) - mean_backlog(0) > slack

    @property
    def failed(self):
        return sum(1 for s in self.samples if not s.ok)


def send_on_schedule(offsets, items, send_factory, connections,
                     clock=time.monotonic):
    """``(start, samples)``: ``items[i]`` sent at ``start + offsets[i]``.

    ``send_factory()`` returns a ``send(item) -> (ok, answer)`` callable
    owning one connection; one is made per connection thread. ``send``
    reports refusals and errors as ``ok=False`` rather than raising.
    """
    samples = [None] * len(offsets)
    lock = threading.Lock()
    next_index = [0]
    start = clock()

    def worker(send):
        while True:
            with lock:
                index = next_index[0]
                if index >= len(offsets):
                    return
                next_index[0] += 1
            due = start + offsets[index]
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            ok, answer = send(items[index])
            samples[index] = Sample(due, sent, clock(), ok, answer)

    threads = [
        threading.Thread(target=worker, args=(send_factory(),), daemon=True)
        for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, samples


def saturate(items, send_factory, connections, duration_s, unit_ms=None,
             clock=time.monotonic):
    """Closed loop at full load: every connection sends its next item as
    soon as the previous answer arrives. Goes through ``items`` again and
    again and stops at the end of the first pass through them that ends
    after ``duration_s``, so every item is sent equally often. ``unit_ms``,
    when given, times a calibration unit after each response has been
    timed. Returns ``(elapsed, samples)`` with samples in the order they
    completed."""
    samples = []
    lock = threading.Lock()
    next_index = [0]
    start = clock()

    def worker(send):
        while True:
            with lock:
                index = next_index[0]
                if index % len(items) == 0 and clock() - start >= duration_s:
                    return
                next_index[0] += 1
            sent = clock()
            ok, answer = send(items[index % len(items)])
            sample = Sample(sent, sent, clock(), ok, answer)
            if unit_ms is not None:
                sample.unit_ms = unit_ms()
            with lock:
                samples.append(sample)

    threads = [
        threading.Thread(target=worker, args=(send_factory(),), daemon=True)
        for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clock() - start, samples
