"""The tail-percentile rule and calibrated timing metrics."""

import pytest

import calibrate
import measure


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    value, percentile = measure.tail(values)
    assert value == 990
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * 989 / 999)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0] * 5
    assert measure.tail(values) == measure.tail(sorted(values))


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile = measure.tail(list(range(11)))
    assert (value, percentile) == (0, 0.0)


def test_tail_refuses_fewer_than_eleven_samples():
    with pytest.raises(ValueError):
        measure.tail(list(range(10)))


def test_scaled_metrics_follow_the_machine_speed():
    latencies = [2.0, 4.0] * 20
    quiet = [calibrate.REFERENCE_MS] * 40
    slow = [calibrate.REFERENCE_MS * 1.5] * 40
    metrics, notes = measure.scaled_metrics(latencies, quiet)
    assert metrics["latency_p50_ms"] == 3.0
    assert metrics["throughput_per_s"] == pytest.approx(1000.0 / 3.0)
    assert metrics["latency_tail_ms"] == 4.0
    assert notes["as_measured"]["latency_p50_ms"] == 3.0
    # The same operations timed while the machine ran half as fast again.
    slowed, notes = measure.scaled_metrics([ms * 1.5 for ms in latencies],
                                           slow)
    assert slowed == pytest.approx(metrics)
    assert notes["as_measured"]["latency_p50_ms"] == 4.5


def test_an_interrupted_unit_does_not_distort_its_operation():
    latencies = [1.0] * 40
    units = [calibrate.REFERENCE_MS] * 40
    units[20] = calibrate.REFERENCE_MS * 3
    assert calibrate.scale(latencies, units) == pytest.approx(latencies)


def test_operations_follow_the_units_timed_around_them():
    # The machine runs half as fast for the second half of the run.
    latencies = [1.0] * 20 + [2.0] * 20
    units = [calibrate.REFERENCE_MS] * 20 + [calibrate.REFERENCE_MS * 2] * 20
    scaled = calibrate.scale(latencies, units)
    assert scaled[:16] == pytest.approx([1.0] * 16)
    assert scaled[24:] == pytest.approx([1.0] * 16)


def test_scaled_metrics_need_a_unit_per_operation():
    with pytest.raises(ValueError):
        measure.scaled_metrics([1.0] * 12, [0.3] * 11)


def test_batched_tail_ignores_a_burst_in_one_batch():
    quiet = [1.0 + (i % 50) / 100 for i in range(500)]
    burst = list(quiet)
    burst[100:200] = [value + 7.0 for value in quiet[100:200]]
    assert (measure.batched_tail(burst, 5)
            == measure.batched_tail(quiet, 5))
    assert measure.tail(burst)[0] > measure.tail(quiet)[0]


def test_one_batch_is_the_plain_tail():
    values = [float(v) for v in range(150)]
    assert measure.batched_tail(values, 1) == measure.tail(values)


def test_calibration_unit_takes_a_fraction_of_a_millisecond():
    assert 0.0 < calibrate.unit_ms() < 50.0
