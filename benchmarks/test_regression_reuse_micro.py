"""Regression micro-op: a submission against a warm live-version memo.

Every Feedback Solver submission runs the golden queries against the live
and the staged knowledge set. The live side only changes when an approver
merges an edit, so its outcomes are memoized per knowledge-set version
(``KnowledgeSet.derived``). This benchmark times ``run_regression`` on
``sports_holdings`` with three golden queries and one staged instruction,
twice: first against a freshly restored, index-warmed live set whose memo
is cold (both sides generate), then against the same live set with its
memo warm (only the staged side generates). Both runs must produce equal
reports. Seven rounds each time one cold and one warm run back to back;
the table (:func:`~repro.bench.harness.format_table`) shows each side's
best time and the median of the per-round ratios, which is gated at
>=1.5x so ``make perf-smoke`` fails if the live side starts regenerating
again. Pairing the runs keeps a burst of machine noise from landing on
one side only; the expected ratio is about 2x (six generations vs three).
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.bench.harness import format_table
from repro.feedback import GoldenQuery, run_regression
from repro.knowledge import Instruction, KnowledgeSet

#: Minimum cold/warm speedup.
REUSE_GATE = 1.5

#: Timed rounds, each one cold run and one warm run.
REPEATS = 7

_QUERY = "How many organisations are in Canada by revenue this quarter?"


def _warm_indexes(knowledge):
    for search in (
        knowledge.search_examples,
        knowledge.search_instructions,
        knowledge.search_schema,
        knowledge.search_intents,
    ):
        search(_QUERY)
    return knowledge


def _staged(live):
    staged = live.clone()
    staged.add_instruction(Instruction(
        "ins-reuse-micro", "'outlay' refers to the EXPENSES column",
        kind="term_definition", term="outlay", sql_pattern="EXPENSES",
        tables=("SPORTS_FINANCIALS",),
    ))
    return staged


def _timed(setup, run):
    """Wall time of ``run(*setup())``; ``setup`` is not timed, and the
    collector is paused while ``run`` is (setup leaves garbage)."""
    args = setup()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        run(*args)
        return time.perf_counter() - started
    finally:
        gc.enable()


def test_warm_live_memo_beats_cold(context):
    database = context.profiles["sports_holdings"].database
    snapshot = context.knowledge_sets["sports_holdings"].snapshot()
    golden = [
        GoldenQuery(entry.question, entry.sql)
        for entry in context.workload.training_logs["sports_holdings"][:3]
    ]

    def regression(live, staged):
        return run_regression(database, live, staged, golden)

    def cold():
        live = _warm_indexes(KnowledgeSet(snapshot["name"]).restore(snapshot))
        return live, _staged(live)

    warm_live = _warm_indexes(
        KnowledgeSet(snapshot["name"]).restore(snapshot)
    )
    expected = regression(warm_live, _staged(warm_live))

    def warm():
        return warm_live, _staged(warm_live)

    assert regression(*cold()) == expected
    assert regression(*warm()) == expected
    # Each round times a cold run and a warm one back to back, so a burst
    # of machine noise lands on both sides of that round's ratio.
    rounds = [
        (_timed(cold, regression), _timed(warm, regression))
        for _ in range(REPEATS)
    ]
    before_s = min(cold_s for cold_s, _warm_s in rounds)
    after_s = min(warm_s for _cold_s, warm_s in rounds)
    ratio = statistics.median(cold_s / warm_s for cold_s, warm_s in rounds)

    print()
    print(format_table(
        "run_regression, 3 golden queries (best-of-7 ms, median ratio)",
        ["op", "cold_ms", "warm_ms", "ratio"],
        [("cold vs warm live memo", before_s * 1e3, after_s * 1e3, ratio)],
    ))
    assert ratio >= REUSE_GATE, (
        f"warm-memo regression only {ratio:.2f}x over a cold one "
        f"(gate {REUSE_GATE}x; per-round ratios "
        f"{[round(c / w, 2) for c, w in rounds]})"
    )
