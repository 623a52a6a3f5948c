"""In-process closed-loop workloads: one client, next operation only after
the previous one returns.

Each workload builds its inputs, runs one untimed warm-up pass so caches
fill, then runs whole shuffled passes until the requested time has passed
and at least ``MIN_PASSES`` are done. For end-to-end figures a
calibration unit follows every operation (see :mod:`calibrate`). Answers
are checked after the timed phase: every timed answer must equal the
warm-up answer for the same input, and the warm-up answers must score as
Table 1's seed says.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import calibrate
from spec import DATA_SEED, DEV_CORRECT, ENTERPRISE_CORRECT, \
    FEEDBACK_SESSIONS

#: Timed passes an end-to-end run makes at least, however long they take.
MIN_PASSES = 3


@dataclass
class Phase:
    """One timed phase: per-operation latencies and answers."""

    elapsed_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    units_ms: list = field(default_factory=list)   # calibration, per op
    answers: list = field(default_factory=list)   # (key, answer)
    failed: int = 0

    @property
    def ops(self):
        return len(self.latencies_ms)

    @property
    def throughput_per_s(self):
        return self.ops / self.elapsed_s if self.elapsed_s else 0.0


class ClosedLoop:
    """Base: ``items`` are the inputs, ``key`` and ``op`` map one."""

    items = ()

    def key(self, item):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def warm_up(self):
        """One pass that fills caches and records the reference answers,
        with a calibration unit after each operation (``units_ms``), as
        set-up time is scaled by them."""
        self.reference = {}
        self.units_ms = []
        for item in self.items:
            self.reference[self.key(item)] = self.op(item)
            self.units_ms.append(calibrate.unit_ms())

    def run(self, seconds, seed, calibrated=False, min_passes=1):
        """Whole passes in a seeded order until ``seconds`` have passed
        and ``min_passes`` are done; ``calibrated`` runs a calibration
        unit after each operation."""
        phase = Phase()
        rng = random.Random(seed)
        clock = time.perf_counter
        started = clock()
        passes = 0
        while True:
            order = list(self.items)
            rng.shuffle(order)
            for item in order:
                before = clock()
                try:
                    answer = self.op(item)
                except Exception as error:  # counted, reported, not fatal
                    answer = f"raised {type(error).__name__}: {error}"
                    phase.failed += 1
                phase.latencies_ms.append((clock() - before) * 1000.0)
                phase.answers.append((self.key(item), answer))
                if calibrated:
                    phase.units_ms.append(calibrate.unit_ms())
            passes += 1
            if clock() - started >= seconds and passes >= min_passes:
                break
        phase.elapsed_s = clock() - started
        return phase

    def check(self, phases):
        """``(errors, failed operations, ex_pct)`` after the timed phases."""
        errors = []
        failed = 0
        for phase in phases:
            for key, answer in phase.answers:
                if answer != self.reference.get(key):
                    failed += 1
                    if len(errors) < 20:
                        errors.append(f"{key}: answer {answer!r} differs "
                                      f"from warm-up {self.reference.get(key)!r}")
        correct, expected = self.score()
        if correct != expected:
            errors.append(f"{correct} of {len(self.reference)} correct, "
                          f"expected {expected}")
        return errors, failed, 100.0 * correct / len(self.reference)


class Ask(ClosedLoop):
    """Questions through one ``GenEditPipeline`` per database."""

    def __init__(self, enterprise=False):
        from repro.bench.harness import ExperimentContext
        from repro.pipeline.pipeline import GenEditPipeline

        self.context = ExperimentContext(DATA_SEED)
        profiles = self.context.profiles
        knowledge = self.context.knowledge_sets
        if enterprise:
            from repro.bench.enterprise import build_enterprise_workload

            self.items = build_enterprise_workload(DATA_SEED).questions
            self.expected = ENTERPRISE_CORRECT
        else:
            self.items = self.context.workload.questions
            self.expected = DEV_CORRECT
        self.pipelines = {
            name: GenEditPipeline(profiles[name].database, knowledge[name])
            for name in sorted({q.database for q in self.items})
        }
        self.warm_up()

    def key(self, question):
        return question.question_id

    def op(self, question):
        return self.pipelines[question.database].generate(
            question.question).sql

    def score(self):
        from repro.bench.metrics import execution_match

        profiles = self.context.profiles
        correct = sum(
            execution_match(profiles[q.database].database,
                            self.reference[q.question_id], q.gold_sql,
                            cache=self.context.cache)
            for q in self.items
        )
        return correct, self.expected


@dataclass
class Session:
    question: object
    rounds: list
    golden: list


class FeedbackSessions(ClosedLoop):
    """The SME sessions ``repro.bench.feedback_sim`` derives from GenEdit's
    fixable dev failures, each run ask -> feedback -> stage -> regenerate
    -> submit on a fresh clone of the live knowledge set."""

    def __init__(self):
        from repro.bench.feedback_sim import _feedback_for
        from repro.bench.harness import ExperimentContext, evaluate_system
        from repro.feedback.regression import GoldenQuery
        from repro.pipeline.pipeline import GenEditPipeline

        self.context = ExperimentContext(DATA_SEED)
        # One worker thread: with two, the harness's answers (and so the
        # derived sessions) vary from run to run on a 2-CPU machine.
        report = evaluate_system(
            GenEditPipeline, self.context.workload, self.context.profiles,
            self.context.knowledge_sets, "GenEdit", cache=self.context.cache,
            max_workers=1,
        )
        by_id = {q.question_id: q for q in self.context.workload.questions}
        failures = [
            by_id[outcome.question_id] for outcome in report.failures()
            if _feedback_for(by_id[outcome.question_id]) is not None
        ]
        logs = self.context.workload.training_logs
        self.items = [
            Session(
                question,
                _feedback_for(question, number),
                [GoldenQuery(entry.question, entry.sql)
                 for entry in logs[question.database][:3]],
            )
            for number, question in enumerate(failures)
        ]
        self.warm_up()

    def key(self, session):
        return session.question.question_id

    def op(self, session):
        """``(fixed and accepted, final SQL)`` for one session."""
        from repro.bench.metrics import execution_match
        from repro.feedback.models import SUBMISSION_PENDING_APPROVAL
        from repro.feedback.solver import FeedbackSolver
        from repro.pipeline.pipeline import GenEditPipeline

        question = session.question
        database = self.context.profiles[question.database].database
        knowledge = self.context.knowledge_sets[question.database].clone()
        solver = FeedbackSolver(GenEditPipeline(database, knowledge),
                                golden_queries=session.golden)
        result = solver.ask(question.question)
        for text in session.rounds:
            if text is None:
                continue
            solver.give_feedback(text)
            solver.stage()
            result = solver.regenerate()
            if execution_match(database, result.sql, question.gold_sql,
                               cache=self.context.cache):
                submission = solver.submit()
                return (submission.status == SUBMISSION_PENDING_APPROVAL,
                        result.sql)
        return False, result.sql

    def score(self):
        fixed = sum(1 for accepted, _sql in self.reference.values()
                    if accepted)
        return fixed, FEEDBACK_SESSIONS
