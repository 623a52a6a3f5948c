"""Open-loop timing: latency from the due time, generator lateness,
backlog growth and the latency limit."""

import random
import time

import pytest

import openloop
import serveload
from openloop import Sample, StepResult


def fixed_service(seconds):
    def factory():
        def send(item):
            time.sleep(seconds)
            return True, item
        return send
    return factory


def test_late_requests_are_timed_from_when_they_were_due():
    start, samples = openloop.send_on_schedule(
        [0.0] * 4, list(range(4)), fixed_service(0.02), connections=1)
    lateness = [s.lateness_s for s in samples]
    latency = [s.latency_s for s in samples]
    for index in range(4):
        assert lateness[index] == pytest.approx(0.02 * index, abs=0.012)
        assert latency[index] == pytest.approx(0.02 * (index + 1), abs=0.012)
        assert samples[index].due == start
    assert [s.answer for s in samples] == [0, 1, 2, 3]


def test_two_connections_halve_the_lateness():
    _start, samples = openloop.send_on_schedule(
        [0.0] * 4, list(range(4)), fixed_service(0.02), connections=2)
    latest = max(s.lateness_s for s in samples)
    assert latest == pytest.approx(0.02, abs=0.012)


def test_requests_are_not_sent_early():
    offsets = [0.0, 0.03, 0.06]
    _start, samples = openloop.send_on_schedule(
        offsets, [0, 1, 2], fixed_service(0.001), connections=2)
    for sample in samples:
        assert sample.sent >= sample.due
        assert sample.lateness_s < 0.012


def test_poisson_schedule_is_seeded_with_a_fixed_count():
    first = openloop.poisson_offsets(50, 2.0, random.Random("7"))
    again = openloop.poisson_offsets(50, 2.0, random.Random("7"))
    other = openloop.poisson_offsets(50, 2.0, random.Random("8"))
    assert first == again != other
    assert len(first) == len(other) == 100
    assert all(0 <= a <= b < 2.0 for a, b in zip(first, first[1:]))


def test_zipf_counts_are_skewed_and_sum_to_the_total():
    counts = openloop.zipf_counts(560, 132, 1.2)
    assert sum(counts) == 560
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 100 and counts[-1] == 0


def test_zipf_ranks_differ_only_in_order_between_seeds():
    first = openloop.zipf_ranks(200, 50, 1.2, random.Random(1))
    other = openloop.zipf_ranks(200, 50, 1.2, random.Random(2))
    assert first != other and sorted(first) == sorted(other)


def step(samples, duration_s=1.0):
    return StepResult(rate=10.0, duration_s=duration_s, start=0.0,
                      samples=samples)


def test_backlog_that_keeps_growing_is_detected():
    # One request due every 10 ms, each served 20 ms after the previous.
    growing = [Sample(i * 0.01, 0.0, (i + 1) * 0.02, True)
               for i in range(100)]
    steady = [Sample(i * 0.01, 0.0, i * 0.01 + 0.005, True)
              for i in range(100)]
    assert step(growing).backlog_grows(slack=2)
    assert not step(steady).backlog_grows(slack=2)


def test_a_failed_request_misses_the_limit():
    fast = [Sample(i * 0.01, i * 0.01, i * 0.01 + 0.005, True)
            for i in range(100)]
    assert serveload.meets_limit(step(fast))
    fast[3] = Sample(0.03, 0.03, 0.035, False)
    assert not serveload.meets_limit(step(fast))


def test_max_rate_stops_at_the_first_miss():
    def at(rate, service_s):
        result = step([Sample(i * 0.01, i * 0.01, i * 0.01 + service_s, True)
                       for i in range(100)])
        result.rate = rate
        return result
    steps = [at(60, 0.005), at(70, 0.005), at(80, 0.2), at(90, 0.005)]
    assert serveload.max_rate(steps[0], steps[1:]) == 70


def test_saturate_keeps_every_connection_busy_for_whole_passes():
    elapsed, samples = openloop.saturate(
        list(range(5)), fixed_service(0.01), connections=2, duration_s=0.2,
        unit_ms=lambda: 0.25)
    assert elapsed >= 0.2
    assert len(samples) / elapsed == pytest.approx(200, rel=0.3)
    assert all(s.ok and s.lateness_s == 0 for s in samples)
    assert all(s.unit_ms == 0.25 for s in samples)
    answers = sorted(s.answer for s in samples)
    assert answers == sorted(list(range(5)) * (len(samples) // 5))
