"""Regression testing of staged knowledge-set edits (§4.2.1, §6).

Submitted edits "go through regression testing. If they pass, they are
pending for approval." The regression suite is a set of *golden queries* —
questions with verified SQL — that must not get worse under the staged
knowledge set.

Besides the EX comparison, each result records the error-level diagnostic
codes the staged pipeline's SQL introduces over the live pipeline's
(``new_error_codes``) — a static early-warning that an edit pushed
generation toward broken SQL even when execution accuracy happens to
survive. Lint flags are advisory: they do not affect :attr:`RegressionReport.passed`,
which the review queue gates on.

When a *baseline* run record from the ledger (DESIGN.md §6d) is supplied,
the "before" side is read straight out of the record for every golden
query the baseline already evaluated: recorded correctness and lint codes
stand in for a fresh live-pipeline generation, the live pipeline is built
lazily only for baseline misses, and the report cites the baseline run id.

Both sides' golden outcomes are also memoized per knowledge-set version
(:meth:`~repro.knowledge.store.KnowledgeSet.derived`): the live set only
changes when an approver merges an edit, so every submission in between
reuses the live answers the first one computed, and an unedited staged
set reuses the live set's. The ledger baseline covers what was recorded
in an earlier process; the memo covers this one. The knowledge gate reads
each side's lint findings through the same memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.metrics import execution_match
from ..obs.metrics import get_metrics
from ..obs.tracing import Tracer
from ..pipeline.config import DEFAULT_CONFIG
from ..pipeline.pipeline import GenEditPipeline
from ..sql.diagnostics import DiagnosticsEngine


@dataclass(frozen=True)
class GoldenQuery:
    """A verified (question, SQL) pair used as a regression anchor."""

    question: str
    gold_sql: str
    label: str = ""


@dataclass
class RegressionResult:
    question: str
    correct_before: bool
    correct_after: bool
    new_error_codes: tuple = ()  # GE0xx codes introduced by the staged SQL

    @property
    def regressed(self):
        return self.correct_before and not self.correct_after

    @property
    def improved(self):
        return not self.correct_before and self.correct_after

    @property
    def lint_flagged(self):
        """True when the staged SQL has error diagnostics the live SQL lacks."""
        return bool(self.new_error_codes)


@dataclass
class RegressionReport:
    results: list = field(default_factory=list)
    #: Ledger run id the "before" side was read from ("" = live pipeline).
    baseline_run_id: str = ""
    #: Golden queries whose before-state came from the baseline record.
    baseline_hits: int = 0

    @property
    def passed(self):
        return not any(result.regressed for result in self.results)

    @property
    def regressions(self):
        return [result for result in self.results if result.regressed]

    @property
    def improvements(self):
        return [result for result in self.results if result.improved]

    @property
    def lint_flags(self):
        return [result for result in self.results if result.lint_flagged]

    def summary(self):
        total = len(self.results)
        regressed = len(self.regressions)
        improved = len(self.improvements)
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status}: {total} golden queries, {regressed} regression(s), "
            f"{improved} improvement(s)"
        )
        flagged = len(self.lint_flags)
        if flagged:
            line += f", {flagged} lint flag(s)"
        if self.baseline_run_id:
            line += (
                f" [baseline run {self.baseline_run_id}: "
                f"{self.baseline_hits} reused]"
            )
        return line


def run_regression(database, live_knowledge, staged_knowledge,
                   golden_queries, config=None, tracer=None, baseline=None):
    """Compare golden-query accuracy before/after the staged edits.

    The run is traced: a ``regression`` root span with one
    ``regression.golden`` child per golden query (annotated with
    regressed/improved and any new lint codes) lands on ``tracer`` — the
    feedback solver passes its session tracer; standalone calls get a
    private one.

    ``baseline`` is an optional ledger run record (the dict shape of
    ``record.json``): golden queries the baseline already evaluated reuse
    its recorded correctness and lint codes for the "before" side, so the
    live pipeline only runs for baseline misses — and the report names the
    run it was compared against.

    Outcomes not in the baseline come from each knowledge set's version
    memo (see :func:`_golden_outcome`), so a pipeline is built and run
    only for memo misses.
    """
    config = config or DEFAULT_CONFIG
    baseline_outcomes = {}
    baseline_run_id = ""
    if baseline is not None:
        from ..obs.ledger import outcomes_by_question

        baseline_outcomes = outcomes_by_question(baseline)
        baseline_run_id = baseline.get("run_id", "")
    pipelines = {}

    def pipeline(knowledge):
        # Built lazily: with a warm memo or a full-coverage baseline, the
        # live side's never exists.
        if knowledge not in pipelines:
            pipelines[knowledge] = GenEditPipeline(
                database, knowledge, config=config
            )
        return pipelines[knowledge]

    engine = DiagnosticsEngine(database)
    report = RegressionReport(baseline_run_id=baseline_run_id)
    reused_total = 0
    tracer = tracer or Tracer()
    with tracer.span("regression", golden=len(golden_queries)) as root:
        for golden in golden_queries:
            with tracer.span(
                "regression.golden", question=golden.question
            ) as span:
                reused = []
                recorded = baseline_outcomes.get(golden.question)
                if recorded is not None:
                    report.baseline_hits += 1
                    span.set_attr("baseline", baseline_run_id)
                    correct_before = bool(recorded["correct"])
                    codes_before = frozenset(recorded.get("lint_codes", ()))
                else:
                    correct_before, codes_before, hit = _golden_outcome(
                        database, live_knowledge, config, golden, engine,
                        pipeline,
                    )
                    if hit:
                        reused.append("before")
                correct_after, codes_after, hit = _golden_outcome(
                    database, staged_knowledge, config, golden, engine,
                    pipeline,
                )
                if hit:
                    reused.append("after")
                result = RegressionResult(
                    question=golden.question,
                    correct_before=correct_before,
                    correct_after=correct_after,
                    new_error_codes=tuple(sorted(codes_after - codes_before)),
                )
                if reused:
                    reused_total += len(reused)
                    span.set_attr("reused", " ".join(reused))
                span.set_attr("regressed", result.regressed)
                span.set_attr("improved", result.improved)
                if result.new_error_codes:
                    span.set_attr(
                        "new_error_codes", " ".join(result.new_error_codes)
                    )
                report.results.append(result)
        root.set_attr("passed", report.passed)
    metrics = get_metrics()
    metrics.inc("regression.runs")
    metrics.inc("regression.regressions", len(report.regressions))
    metrics.inc("regression.improvements", len(report.improvements))
    if report.baseline_hits:
        metrics.inc("regression.baseline_hits", report.baseline_hits)
    if reused_total:
        metrics.inc("regression.reused", reused_total)
    return report


def _golden_outcome(database, knowledge, config, golden, engine, pipeline):
    """``(correct, error codes, reused)`` for ``knowledge``'s answer to
    ``golden``.

    The outcome is memoized on ``knowledge``'s version together with
    everything else it depends on; ``pipeline(knowledge)`` is asked for a
    pipeline only on a miss, and ``reused`` says whether this was a hit.
    """
    def compute():
        sql = pipeline(knowledge).generate(golden.question).sql
        return (
            execution_match(database, sql, golden.gold_sql),
            _error_codes(engine, sql),
        )

    key = ("golden", database, database.version, repr(config),
           golden.question, golden.gold_sql)
    (correct, codes), reused = _memoized(knowledge, key, compute)
    return correct, codes, reused


def _memoized(knowledge, key, compute):
    """``knowledge.derived(key, compute)`` and whether it was a hit."""
    computed = False

    def run():
        nonlocal computed
        computed = True
        return compute()

    return knowledge.derived(key, run), not computed


def _error_codes(engine, sql):
    """The error-level diagnostic codes for ``sql`` ('' lints clean)."""
    if not sql:
        return frozenset()
    return frozenset(
        diag.code for diag in engine.run_sql(sql) if diag.is_error
    )


# -- knowledge gate ----------------------------------------------------------


@dataclass
class KnowledgeGateReport:
    """Static gate over a staged knowledge set (DESIGN.md §6f).

    Where :class:`RegressionReport` compares *behaviour* on golden
    queries, this gate compares *artifacts*: the staged knowledge set is
    linted with the ``GK0xx`` rules and any error-level finding absent
    from the live set fails the gate. Findings are keyed by (code,
    component kind, component id), so pre-existing debt on untouched
    components never blocks a submission — only what the edit introduces.
    """

    new_findings: list = field(default_factory=list)
    live_errors: int = 0
    staged_errors: int = 0

    @property
    def passed(self):
        return not self.new_findings

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status}: knowledge gate, "
            f"{len(self.new_findings)} new error finding(s)"
        )
        if self.new_findings:
            codes = sorted({f.code for f in self.new_findings})
            line += f" ({', '.join(codes)})"
        return line


def run_knowledge_gate(database, live_knowledge, staged_knowledge,
                       tracer=None):
    """Lint live vs. staged knowledge; fail on new error-level findings.

    Each side's findings are memoized on its knowledge-set version, so the
    live set is linted once per version, not once per submission.
    """
    from ..knowledge.lint import finding_keys, lint_knowledge

    reused = 0

    def findings(knowledge):
        nonlocal reused
        result, hit = _memoized(
            knowledge, ("lint", database, database.version),
            lambda: tuple(lint_knowledge(knowledge, database)),
        )
        reused += hit
        return result

    tracer = tracer or Tracer()
    with tracer.span("knowledge_gate") as span:
        live_findings = findings(live_knowledge)
        staged_findings = findings(staged_knowledge)
        live_keys = finding_keys(live_findings)
        new_findings = sorted(
            (
                finding for finding in staged_findings
                if finding.is_error
                and (finding.code, finding.component_kind,
                     finding.component_id) not in live_keys
            ),
            key=lambda finding: (
                finding.code, finding.component_kind, finding.component_id
            ),
        )
        report = KnowledgeGateReport(
            new_findings=new_findings,
            live_errors=sum(1 for f in live_findings if f.is_error),
            staged_errors=sum(1 for f in staged_findings if f.is_error),
        )
        span.set_attr("passed", report.passed)
        if new_findings:
            span.set_attr(
                "codes",
                " ".join(sorted({f.code for f in new_findings})),
            )
    metrics = get_metrics()
    metrics.inc("knowledge_gate.runs")
    if reused:
        metrics.inc("knowledge_gate.reused", reused)
    if not report.passed:
        metrics.inc("knowledge_gate.rejections")
    return report
