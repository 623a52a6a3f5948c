"""BENCHMARK.json is generated from spec.py and keeps to its format."""

import os
import re

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert f.read() == spec.benchmark_json()


def test_names_units_and_bounds_are_well_formed():
    names = [name for name, _ in spec.WORKLOADS]
    names += list(spec.END_TO_END) + list(spec.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(why) <= 200 for _, why in spec.WORKLOADS)
    units = [unit for unit, _, _ in spec.END_TO_END.values()]
    assert all(UNIT.match(unit) for unit in units + list(
        spec.PER_LAYER.values()))
    bounds = {name: bound for name, (_, _, bound) in spec.END_TO_END.items()}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert spec.END_TO_END["setup_s"][:2] == ("s", "lower")


def test_every_span_metric_is_a_per_layer_metric():
    assert set(spec.SPAN_METRICS) <= set(spec.PER_LAYER)
