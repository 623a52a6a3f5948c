"""Continuous-improvement tests: directives, operators, solver, review."""

import pytest

from repro.feedback import (
    ACTION_DELETE,
    ACTION_INSERT,
    ACTION_UPDATE,
    ApprovalQueue,
    FeedbackSolver,
    GoldenQuery,
    SUBMISSION_MERGED,
    SUBMISSION_PENDING_APPROVAL,
    SUBMISSION_REJECTED,
    apply_edit,
    expand_feedback,
    generate_edits,
    generate_targets,
    parse_directives,
    plan_edits,
)
from repro.feedback.models import Feedback, next_feedback_id
from repro.knowledge import KnowledgeSet, KnowledgeSetHistory


def make_feedback(text):
    return Feedback(
        feedback_id=next_feedback_id(),
        question="q?",
        generated_sql="SELECT 1",
        text=text,
    )


class TestDirectives:
    def test_refers_to_column(self):
        directives = parse_directives(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS.",
            None,
        )
        assert directives[0]["sql_pattern"] == (
            "COLUMN SPORTS_FINANCIALS.EXPENSES"
        )
        assert directives[0]["term"] == "outlay"

    def test_value_of(self):
        directives = parse_directives(
            "'Lisbon' is a value of STORES.CITY.", None
        )
        assert directives[0]["sql_pattern"] == "VALUE STORES.CITY"

    def test_means_with_filter(self):
        directives = parse_directives(
            "'premium' means high-value orders; filter AMOUNT > 800.", None
        )
        assert directives[0]["instruction_kind"] == "guideline"
        assert directives[0]["sql_pattern"] == "AMOUNT > 800"

    def test_means_same_as_known_term(self):
        knowledge = KnowledgeSet()
        from repro.knowledge import Instruction

        knowledge.add_instruction(
            Instruction(
                "in1", "AOV means average order value",
                kind="term_definition", term="AOV",
                sql_pattern="AVG(AMOUNT)", tables=("ORDERS",),
            )
        )
        directives = parse_directives(
            "'basket size' means the same as AOV", knowledge
        )
        assert directives[0]["sql_pattern"] == "AVG(AMOUNT)"

    def test_calculated_as(self):
        directives = parse_directives(
            "net margin should be calculated as "
            "SUM(REVENUE) - SUM(EXPENSES).",
            None,
        )
        assert directives[0]["term"] == "net margin"
        assert directives[0]["sql_pattern"].startswith("SUM(REVENUE)")

    def test_use_idiom_canned_fragment(self):
        directives = parse_directives(
            "use the topk_both_ends idiom", None
        )
        assert directives[0]["component"] == "example"
        assert "ROW_NUMBER" in directives[0]["sql"]
        assert directives[0]["pattern"] == "topk_both_ends"

    def test_unknown_idiom_without_fragment_skipped(self):
        assert parse_directives("use the frobnicate idiom", None) == []

    def test_update_component(self):
        directives = parse_directives(
            "ex-00001 should be SUM(X) instead", None
        )
        assert directives[0]["action"] == ACTION_UPDATE
        assert directives[0]["component_id"] == "ex-00001"

    def test_delete_component(self):
        directives = parse_directives("please delete ins-00002", None)
        assert directives[0]["action"] == ACTION_DELETE

    def test_vague_text_yields_no_directives(self):
        assert parse_directives("this looks wrong somehow", None) == []


class TestOperators:
    def test_targets_flag_unknown_quoted_terms(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total revenue?")
        feedback = make_feedback("'wobble' means something undefined")
        targets = generate_targets(
            feedback, result.context, sports_pipeline.knowledge
        )
        assert any(
            not target.component_id and "wobble" in target.reason
            for target in targets
        )

    def test_targets_match_retrieved_instructions(self, sports_pipeline):
        result = sports_pipeline.generate(
            "What is the RPV of our organisations?"
        )
        feedback = make_feedback(
            "the revenue per viewer calculation ignored viewers"
        )
        targets = generate_targets(
            feedback, result.context, sports_pipeline.knowledge
        )
        assert any(target.component_id for target in targets)

    def test_expand_includes_grounding_issues(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total gibberish?")
        feedback = make_feedback("wrong column used")
        targets = generate_targets(
            feedback, result.context, sports_pipeline.knowledge
        )
        expanded = expand_feedback(feedback, result, targets)
        assert "unresolved" in expanded.summary

    def test_plan_and_generate_insert(self):
        knowledge = KnowledgeSet()
        feedback = make_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        steps, directives = plan_edits(feedback, None, knowledge)
        assert steps[0].action == ACTION_INSERT
        edits = generate_edits(feedback, directives, knowledge)
        assert edits[0].payload.term == "outlay"
        assert edits[0].payload.provenance.source_kind == "feedback"

    def test_fallback_guideline_on_vague_feedback(self):
        knowledge = KnowledgeSet()
        feedback = make_feedback("this is just wrong")
        _steps, directives = plan_edits(feedback, None, knowledge)
        edits = generate_edits(feedback, directives, knowledge)
        assert edits[0].kind == "instruction"
        assert edits[0].payload.text == "this is just wrong"

    def test_update_edit_rewrites_example(self):
        from repro.knowledge import DecomposedExample

        knowledge = KnowledgeSet()
        knowledge.add_example(
            DecomposedExample("ex-77777", "desc", "SUM(WRONG)")
        )
        feedback = make_feedback("ex-77777 should be SUM(RIGHT).")
        _steps, directives = plan_edits(feedback, None, knowledge)
        edits = generate_edits(feedback, directives, knowledge)
        assert edits[0].action == ACTION_UPDATE
        assert edits[0].payload.sql == "SUM(RIGHT)"

    def test_apply_edit_round_trip(self):
        knowledge = KnowledgeSet()
        feedback = make_feedback("'x' is a value of T.C.")
        _steps, directives = plan_edits(feedback, None, knowledge)
        edits = generate_edits(feedback, directives, knowledge)
        apply_edit(knowledge, edits[0])
        assert knowledge.stats()["instructions"] == 1


class TestSolverFlow:
    @pytest.fixture()
    def solver(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
        pipeline = GenEditPipeline(profile.database, knowledge)
        golden = [
            GoldenQuery(entry.question, entry.sql)
            for entry in experiment_context.workload.training_logs[
                "sports_holdings"
            ][:2]
        ]
        return FeedbackSolver(pipeline, golden_queries=golden)

    def test_feedback_requires_question(self, solver):
        with pytest.raises(RuntimeError):
            solver.give_feedback("nope")

    def test_full_improvement_loop(self, solver):
        solver.ask("What is the average outlay?")
        recommendations = solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        assert recommendations
        solver.stage()
        result = solver.regenerate()
        assert "EXPENSES" in result.sql
        submission = solver.submit()
        assert submission.status == SUBMISSION_PENDING_APPROVAL
        assert submission.regression_report.passed

    def test_staging_does_not_touch_live_knowledge(self, solver):
        before = solver.pipeline.knowledge.stats()["instructions"]
        solver.ask("What is the average outlay?")
        solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        solver.regenerate()
        assert solver.pipeline.knowledge.stats()["instructions"] == before

    def test_dismiss_removes_from_staging(self, solver):
        solver.ask("What is the average outlay?")
        recommendations = solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        solver.dismiss(recommendations[0].edit_id)
        assert solver.staged_edits() == []

    def test_iteration_counter(self, solver):
        solver.ask("What is the average outlay?")
        solver.give_feedback("hmm")
        solver.give_feedback("'outlay' refers to the EXPENSES column "
                             "in SPORTS_FINANCIALS.")
        assert solver.iterations == 2


class TestApprovalQueue:
    def test_approve_merges_and_records(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
        history = KnowledgeSetHistory(knowledge)
        queue = ApprovalQueue(knowledge, history)
        pipeline = GenEditPipeline(profile.database, knowledge)
        solver = FeedbackSolver(pipeline, approval_queue=queue)
        solver.ask("What is the average outlay?")
        solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        submission = solver.submit()
        assert submission.status == SUBMISSION_PENDING_APPROVAL
        assert queue.pending() == [submission]
        before = knowledge.stats()["instructions"]
        queue.approve(submission, reviewer="alice")
        assert submission.status == SUBMISSION_MERGED
        assert knowledge.stats()["instructions"] == before + 1
        assert history.records()[0].author == "alice"
        # merged edits create a checkpoint for reversion
        assert len(history.checkpoints()) == 2

    def test_reject(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
        queue = ApprovalQueue(knowledge)
        pipeline = GenEditPipeline(profile.database, knowledge)
        solver = FeedbackSolver(pipeline, approval_queue=queue)
        solver.ask("What is the average outlay?")
        solver.give_feedback("'outlay' refers to the EXPENSES column "
                             "in SPORTS_FINANCIALS.")
        solver.stage()
        submission = solver.submit()
        queue.reject(submission)
        assert submission.status == SUBMISSION_REJECTED
        assert queue.pending() == []


_OUTLAY = "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the count list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestStagingReuse:
    """``submit`` reuses the staging set ``regenerate`` built."""

    @pytest.fixture()
    def queue(self, experiment_context):
        live = experiment_context.knowledge_sets["sports_holdings"].clone()
        return ApprovalQueue(live)

    @pytest.fixture()
    def solver(self, experiment_context, queue):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        solver = FeedbackSolver(
            GenEditPipeline(profile.database, queue.knowledge),
            approval_queue=queue,
        )
        solver.ask("What is the average outlay?")
        solver.give_feedback(_OUTLAY)
        solver.stage()
        return solver

    def test_regenerate_then_submit_clones_once(self, solver, monkeypatch):
        clones = _count_calls(monkeypatch, KnowledgeSet, "clone")
        solver.regenerate()
        submission = solver.submit()
        assert len(clones) == 1
        assert submission.status == SUBMISSION_PENDING_APPROVAL

    def test_same_set_while_nothing_changes(self, solver):
        staged = solver.staging_knowledge()
        assert solver.staging_knowledge() is staged
        assert staged.instruction(
            solver.staged_edits()[0].payload.instruction_id
        ) is not None

    def test_stage_makes_a_new_set(self, solver):
        solver.dismiss(*[edit.edit_id for edit in solver.staged_edits()])
        staged = solver.staging_knowledge()
        solver.stage()
        assert solver.staging_knowledge() is not staged

    def test_dismiss_makes_a_new_set(self, solver):
        staged = solver.staging_knowledge()
        solver.dismiss(solver.staged_edits()[0].edit_id)
        fresh = solver.staging_knowledge()
        assert fresh is not staged
        assert fresh.stats() == solver.pipeline.knowledge.stats()

    def test_give_feedback_makes_a_new_set(self, solver):
        staged = solver.staging_knowledge()
        solver.give_feedback(_OUTLAY)
        assert solver.staging_knowledge() is not staged

    def test_approved_merge_makes_a_new_set(self, solver, queue):
        staged = solver.staging_knowledge()
        submission = solver.submit()
        assert solver.staging_knowledge() is staged
        queue.approve(submission)
        fresh = solver.staging_knowledge()
        assert fresh is not staged
        assert fresh.version is not queue.knowledge.version


class TestRegressionMemo:
    """Regression outcomes are memoized per knowledge-set version."""

    @pytest.fixture()
    def database(self, experiment_context):
        return experiment_context.profiles["sports_holdings"].database

    @pytest.fixture()
    def golden(self, experiment_context):
        return [
            GoldenQuery(entry.question, entry.sql)
            for entry in experiment_context.workload.training_logs[
                "sports_holdings"
            ][:3]
        ]

    @pytest.fixture()
    def snapshot(self, experiment_context):
        return experiment_context.knowledge_sets["sports_holdings"].snapshot()

    @staticmethod
    def _staged(live, edited):
        staged = live.clone()
        if edited:
            from repro.knowledge import Instruction

            staged.add_instruction(Instruction(
                "ins-memo", "'outlay' refers to the EXPENSES column",
                kind="term_definition", term="outlay",
                sql_pattern="EXPENSES", tables=("SPORTS_FINANCIALS",),
            ))
        return staged

    @pytest.mark.parametrize("edited", [True, False])
    def test_warm_run_equals_cold_run(self, database, golden, snapshot,
                                      edited, monkeypatch):
        from repro.feedback import run_regression
        from repro.pipeline.pipeline import GenEditPipeline

        live = KnowledgeSet(snapshot["name"]).restore(snapshot)
        run_regression(database, live, live.clone(), golden)  # warm live
        generates = _count_calls(monkeypatch, GenEditPipeline, "generate")
        warm = run_regression(
            database, live.clone(), self._staged(live, edited), golden
        )
        warm_calls = len(generates)
        cold_live = KnowledgeSet(snapshot["name"]).restore(live.snapshot())
        cold = run_regression(
            database, cold_live, self._staged(cold_live, edited), golden
        )
        cold_calls = len(generates) - warm_calls
        assert warm == cold
        assert len(warm.results) == len(golden)
        if edited:
            assert (warm_calls, cold_calls) == (len(golden), 2 * len(golden))
        else:
            assert (warm_calls, cold_calls) == (0, len(golden))

    def test_reuse_is_counted_and_traced(self, database, golden, snapshot):
        from repro.feedback import run_regression
        from repro.obs.metrics import get_metrics
        from repro.obs.tracing import Tracer

        live = KnowledgeSet(snapshot["name"]).restore(snapshot)
        staged = self._staged(live, edited=True)
        run_regression(database, live, staged, golden)
        metrics = get_metrics()
        before = metrics.counter_value("regression.reused")
        tracer = Tracer()
        run_regression(database, live.clone(), staged, golden, tracer=tracer)
        assert metrics.counter_value("regression.reused") == (
            before + 2 * len(golden)
        )
        spans = [
            span for span in tracer.finished_spans()
            if span.name == "regression.golden"
        ]
        assert [span.attributes["reused"] for span in spans] == (
            ["before after"] * len(golden)
        )


    def test_gate_lints_each_version_once(self, database, snapshot):
        from repro.feedback.regression import run_knowledge_gate
        from repro.obs.metrics import get_metrics

        live = KnowledgeSet(snapshot["name"]).restore(snapshot)
        staged = self._staged(live, edited=True)
        first = run_knowledge_gate(database, live, staged)
        metrics = get_metrics()
        lints = metrics.counter_value("knowledge_lint.runs")
        reused = metrics.counter_value("knowledge_gate.reused")
        assert run_knowledge_gate(database, live.clone(), staged) == first
        assert metrics.counter_value("knowledge_lint.runs") == lints
        assert metrics.counter_value("knowledge_gate.reused") == reused + 2


class TestRegressionMemoInvalidation:
    """On a private database: inserts and config changes recompute."""

    @pytest.fixture()
    def live(self, demo_db):
        from repro.knowledge import LoggedQuery, mine_knowledge_set

        log = [
            LoggedQuery("q1", "How many departments are there?",
                        "SELECT COUNT(*) FROM DEPT", "hr analytics"),
            LoggedQuery("q2", "What is the total salary?",
                        "SELECT SUM(SALARY) FROM EMP", "hr analytics"),
        ]
        return mine_knowledge_set(demo_db, log, [])

    @pytest.fixture()
    def golden(self):
        return [
            GoldenQuery("How many departments are there?",
                        "SELECT COUNT(*) FROM DEPT"),
            GoldenQuery("What is the total salary?",
                        "SELECT SUM(SALARY) FROM EMP"),
        ]

    @pytest.fixture()
    def generates(self, monkeypatch):
        from repro.pipeline.pipeline import GenEditPipeline

        return _count_calls(monkeypatch, GenEditPipeline, "generate")

    def test_insert_recomputes(self, demo_db, live, golden, generates):
        from repro.feedback import run_regression

        run_regression(demo_db, live, live, golden)
        assert len(generates) == len(golden)
        run_regression(demo_db, live, live, golden)
        assert len(generates) == len(golden)
        demo_db.table("DEPT").insert((4, "Ops", "East", 10.0))
        run_regression(demo_db, live, live, golden)
        assert len(generates) == 2 * len(golden)

    def test_config_change_recomputes(self, demo_db, live, golden,
                                      generates):
        from repro.feedback import run_regression
        from repro.pipeline.config import DEFAULT_CONFIG

        run_regression(demo_db, live, live, golden)
        run_regression(demo_db, live, live, golden, config=DEFAULT_CONFIG)
        assert len(generates) == len(golden)
        run_regression(demo_db, live, live, golden,
                       config=DEFAULT_CONFIG.without("examples"))
        assert len(generates) == 2 * len(golden)

    def test_baseline_record_wins_over_memo(self, demo_db, live, golden):
        from repro.feedback import run_regression

        warm = run_regression(demo_db, live, live.clone(), golden)
        question = golden[0].question
        baseline = {
            "run_id": "run-memo",
            "systems": {"GenEdit": {"outcomes": [{
                "question": question,
                "correct": not warm.results[0].correct_before,
                "lint_codes": [],
            }]}},
        }
        report = run_regression(demo_db, live, live.clone(), golden,
                                baseline=baseline)
        assert report.baseline_hits == 1
        assert report.results[0].correct_before is (
            not warm.results[0].correct_before
        )
        assert report.results[1] == warm.results[1]
