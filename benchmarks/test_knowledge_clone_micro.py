"""Knowledge-set clone micro-op: copy-on-write clone vs a full rebuild.

The Feedback Solver stages every edit into ``KnowledgeSet.clone()`` and
searches the copy straight away. This benchmark times that step on the
``sports_holdings`` set — a clone plus one search on each of the four
indexes — against rebuilding the same set from a snapshot
(``KnowledgeSet(name).restore(snapshot())``) plus the same searches, which
re-tokenizes and re-embeds every document. Both sides must return the same
hits. The ratio is printed with :func:`~repro.bench.harness.format_table`
and gated at >=5x so ``make perf-smoke`` fails if clones start rebuilding
indexes again. Timings take the best of several repeats; the margin on a
quiet machine is far above the gate.
"""

from __future__ import annotations

import time

from repro.bench.harness import format_table
from repro.knowledge import KnowledgeSet

#: Minimum rebuild/clone speedup.
CLONE_GATE = 5.0

_QUERY = "How many organisations are in Canada by revenue this quarter?"


def _search_all(knowledge):
    return [
        [(hit.doc_id, hit.score) for hit in search(_QUERY)]
        for search in (
            knowledge.search_examples,
            knowledge.search_instructions,
            knowledge.search_schema,
            knowledge.search_intents,
        )
    ]


def _best_of(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_clone_beats_rebuild(context):
    live = context.knowledge_sets["sports_holdings"]
    expected = _search_all(live)  # warm the live indexes

    def rebuild():
        return _search_all(KnowledgeSet(live.name).restore(live.snapshot()))

    def clone():
        return _search_all(live.clone())

    assert rebuild() == expected
    assert clone() == expected
    before_s = _best_of(rebuild)
    after_s = _best_of(clone)
    ratio = before_s / after_s

    print()
    print(format_table(
        "Knowledge-set clone + first search (best-of-7, ms)",
        ["op", "before_ms", "after_ms", "ratio"],
        [("clone + search", before_s * 1e3, after_s * 1e3, ratio)],
    ))
    assert ratio >= CLONE_GATE, (
        f"clone + search only {ratio:.2f}x over a rebuild "
        f"(gate {CLONE_GATE}x)"
    )
