"""Generate's bookkeeping micro-op: the digest trail and plan lint.

Every ``GenEditPipeline.generate`` call digests each operator's output for
the run ledger (:func:`~repro.pipeline.base.operator_output_digest`) and
lints the CoT plan (:func:`~repro.pipeline.plan_lint.lint_plan`). Both are
observability, not operator work, and ROADMAP.md's aim 4 caps
observability at 3% of the work it observes. This benchmark runs the 132
dev questions through one pipeline per database, then re-times the two
pieces over the same finished contexts: the whole digest trail (every
entry of ``_DIGEST_PAYLOADS``) and ``lint_plan`` as the ``lint_plan``
operator calls it. Seven rounds each time one ``generate`` pass and both pieces
back to back, so machine noise lands on every side of a round's shares;
the median per-round share of each is gated at <=3% so ``make
perf-smoke`` fails if digests start building ``repr``s or plan lint
starts re-parsing again. Before those fixes the shares were about 9%
and 12%.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.bench.harness import format_table
from repro.pipeline.base import _DIGEST_PAYLOADS, operator_output_digest
from repro.pipeline.pipeline import GenEditPipeline
from repro.pipeline.plan_lint import lint_plan

#: Maximum share of a ``generate`` pass for each bookkeeping piece.
SHARE_GATE = 0.03

#: Timed rounds, each one generate pass plus both bookkeeping passes.
REPEATS = 7


def _timed(run, *args):
    """``(wall seconds, result)`` of ``run(*args)``, collector paused."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        result = run(*args)
        return time.perf_counter() - started, result
    finally:
        gc.enable()


def test_bookkeeping_share_of_generate(context):
    questions = context.workload.questions
    pipelines = {
        name: GenEditPipeline(
            context.profiles[name].database, context.knowledge_sets[name]
        )
        for name in sorted({question.database for question in questions})
    }

    def generate_pass():
        return [
            pipelines[question.database].generate(question.question).context
            for question in questions
        ]

    def digest_trails(contexts):
        return [
            [operator_output_digest(name, run) for name in _DIGEST_PAYLOADS]
            for run in contexts
        ]

    def plan_lints(contexts):
        return [
            lint_plan(run.plan, run.database, run.schema_elements or None)
            for run in contexts
            if run.plan is not None
        ]

    generate_pass()  # warm indexes, parse caches and element memos
    rounds = []
    for _ in range(REPEATS):
        generate_s, contexts = _timed(generate_pass)
        digest_s, trails = _timed(digest_trails, contexts)
        lint_s, findings = _timed(plan_lints, contexts)
        assert len(trails) == len(questions)
        # The re-lint must reproduce what the lint_plan operator found.
        assert findings == [
            run.plan_findings for run in contexts if run.plan is not None
        ]
        rounds.append((generate_s, digest_s, lint_s))
    digest_share = statistics.median(d / g for g, d, _l in rounds)
    lint_share = statistics.median(l / g for g, _d, l in rounds)

    print()
    print(format_table(
        "generate bookkeeping, 132 dev questions (best-of-7 ms, "
        "median share)",
        ["piece", "piece_ms", "generate_ms", "share_pct"],
        [
            ("digest trail", min(d for _g, d, _l in rounds) * 1e3,
             min(g for g, _d, _l in rounds) * 1e3, 100 * digest_share),
            ("lint_plan", min(l for _g, _d, l in rounds) * 1e3,
             min(g for g, _d, _l in rounds) * 1e3, 100 * lint_share),
        ],
    ))
    for piece, share, index in (
        ("digest trail", digest_share, 1), ("lint_plan", lint_share, 2),
    ):
        assert share <= SHARE_GATE, (
            f"{piece} takes {100 * share:.1f}% of generate (gate "
            f"{100 * SHARE_GATE:.0f}%; per-round shares "
            f"{[round(100 * r[index] / r[0], 1) for r in rounds]})"
        )
