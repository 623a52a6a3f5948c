"""Operator digest trails are pinned to a golden fixture.

``tests/fixtures/operator_digests_dev.json`` maps every dev question id to
the ``(operator, digest)`` trail GenEdit records for it. The run ledger's
first-divergence report (``python -m repro diff``) compares these digests
across runs, so a change to a digest *payload* — not to any answer — would
make every old ledger record look divergent. ``make ledger-smoke`` only
diffs two runs of the same code and cannot see that; this test can.

Regenerate the fixture (only when a payload change is intended) with::

    PYTHONPATH=src python tests/test_operator_digests.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.pipeline.base import _digest_id

FIXTURE = (
    pathlib.Path(__file__).parent / "fixtures" / "operator_digests_dev.json"
)


def digest_trails(generations):
    """question_id -> [[operator, digest], ...]."""
    return {
        question_id: [list(pair) for pair in result.operator_digests]
        for question_id, result in generations.items()
    }


def test_dev_digest_trails_match_fixture(dev_generations):
    expected = json.loads(FIXTURE.read_text())
    actual = digest_trails(dev_generations)
    assert len(expected) == 132
    assert actual.keys() == expected.keys()
    changed = sorted(
        question_id for question_id in expected
        if actual[question_id] != expected[question_id]
    )
    assert not changed, (
        f"{len(changed)} digest trail(s) differ from the fixture, first "
        f"{changed[0]}: {actual[changed[0]]} != {expected[changed[0]]}"
    )


class _Unprintable:
    def __repr__(self):
        raise AssertionError("repr must not be built when an id exists")


class TestDigestId:
    def test_id_used_without_building_repr(self):
        item = _Unprintable()
        item.element_id = "SPORTS_ORGS.ORG_NAME"
        assert _digest_id(item, "element_id") == "SPORTS_ORGS.ORG_NAME"

    def test_missing_id_falls_back_to_repr(self):
        assert _digest_id(("a", 1), "example_id") == repr(("a", 1))

    def test_empty_id_is_kept(self):
        class Item:
            instruction_id = ""

        assert _digest_id(Item(), "instruction_id") == ""


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_operator_digests.py --write")
    from conftest import generate_dev
    from repro.bench.harness import ExperimentContext

    generations = generate_dev(ExperimentContext())
    FIXTURE.write_text(
        json.dumps(digest_trails(generations), indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
