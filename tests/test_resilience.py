"""The resilience layer: retry policy, breaker, fault injection, and
graceful pipeline degradation (DESIGN.md §6c)."""

import pytest

from repro.llm.simulated import SimulatedLLM
from repro.obs.metrics import get_metrics
from repro.resilience import (
    FAULT_ERROR,
    FAULT_GARBLE,
    CircuitBreaker,
    CircuitOpenError,
    FatalLLMError,
    FaultConfig,
    FaultInjector,
    FaultyExecutor,
    FaultyLLM,
    InjectedExecutionError,
    LLMTimeoutError,
    ResilientLLM,
    RetriesExhaustedError,
    RetryPolicy,
    TransientLLMError,
    classify_error,
    stable_unit,
    unwrap_llm,
)
from repro.resilience.policy import FATAL, RETRYABLE


class TestClassification:
    def test_transient_is_retryable(self):
        assert classify_error(TransientLLMError("x")) == RETRYABLE
        assert classify_error(LLMTimeoutError("x")) == RETRYABLE
        assert classify_error(TimeoutError("x")) == RETRYABLE
        assert classify_error(ConnectionResetError("x")) == RETRYABLE

    def test_fatal_and_unknown(self):
        assert classify_error(FatalLLMError("x")) == FATAL
        assert classify_error(CircuitOpenError("x")) == FATAL
        assert classify_error(ValueError("x")) == FATAL

    def test_extra_retryable(self):
        assert classify_error(
            ValueError("x"), extra_retryable=(ValueError,)
        ) == RETRYABLE


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_ms=10, backoff_multiplier=2,
                             backoff_max_ms=35, jitter_ratio=0.0)
        assert policy.backoff_ms(1) == 10
        assert policy.backoff_ms(2) == 20
        assert policy.backoff_ms(3) == 35  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_ms=100, jitter_ratio=0.25, seed=3)
        first = policy.backoff_ms(1, "site")
        assert first == policy.backoff_ms(1, "site")  # seeded, stable
        assert 100 <= first <= 125
        # Different seeds / sites / attempts decorrelate.
        other = RetryPolicy(backoff_base_ms=100, jitter_ratio=0.25, seed=4)
        assert first != other.backoff_ms(1, "site")

    def test_stable_unit_range(self):
        values = [stable_unit(7, "a", n) for n in range(200)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert values == [stable_unit(7, "a", n) for n in range(200)]


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        breaker = CircuitBreaker(threshold=2, cooldown=3)
        assert breaker.allow("s")
        breaker.record_failure("s")
        assert breaker.allow("s")
        breaker.record_failure("s")          # second consecutive -> open
        assert breaker.is_open("s")
        rejected = sum(0 if breaker.allow("s") else 1 for _ in range(3))
        assert rejected == 3                 # cooldown counted in calls
        assert breaker.allow("s")            # half-open trial
        breaker.record_success("s")
        assert breaker.allow("s")            # closed again

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure("s")
        assert not breaker.allow("s") and not breaker.allow("s")
        assert breaker.allow("s")            # trial
        breaker.record_failure("s")          # trial failed -> reopen
        assert breaker.is_open("s")


class _FlakyLLM:
    """Fails ``failures`` times per site, then succeeds."""

    model = "gpt-4o"

    def __init__(self, failures, error=TransientLLMError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def reformulate(self, question, meter=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"flaky call {self.calls}")
        return f"Show me {question}"


class TestResilientLLM:
    def test_transparent_on_success(self):
        llm = ResilientLLM(SimulatedLLM())
        assert llm.reformulate("How many teams are there?") == \
            SimulatedLLM().reformulate("How many teams are there?")
        assert llm.model.name == "gpt-4o"      # attribute passthrough
        assert unwrap_llm(llm) is llm.inner

    def test_retries_then_recovers(self):
        metrics = get_metrics()
        before = metrics.counter_value(
            "resilience.recoveries", operator="reformulate"
        )
        inner = _FlakyLLM(failures=2)
        llm = ResilientLLM(inner, RetryPolicy(max_attempts=3))
        assert llm.reformulate("q") == "Show me q"
        assert inner.calls == 3
        after = metrics.counter_value(
            "resilience.recoveries", operator="reformulate"
        )
        assert after == before + 1

    def test_exhausts_into_retries_exhausted(self):
        inner = _FlakyLLM(failures=99)
        llm = ResilientLLM(inner, RetryPolicy(max_attempts=3))
        with pytest.raises(RetriesExhaustedError) as excinfo:
            llm.reformulate("q")
        assert inner.calls == 3
        assert excinfo.value.site == "reformulate"
        assert isinstance(excinfo.value.last_error, TransientLLMError)

    def test_fatal_error_not_retried(self):
        inner = _FlakyLLM(failures=99, error=FatalLLMError)
        llm = ResilientLLM(inner, RetryPolicy(max_attempts=3))
        with pytest.raises(FatalLLMError):
            llm.reformulate("q")
        assert inner.calls == 1

    def test_soft_timeout_is_retried(self):
        import time

        class SlowLLM:
            def reformulate(self, question, meter=None):
                time.sleep(0.002)
                return question

        llm = ResilientLLM(
            SlowLLM(), RetryPolicy(max_attempts=2, timeout_ms=0.1)
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            llm.reformulate("q")
        assert isinstance(excinfo.value.last_error, LLMTimeoutError)

    def test_breaker_opens_and_blocks(self):
        inner = _FlakyLLM(failures=99)
        policy = RetryPolicy(max_attempts=2, breaker_threshold=2,
                             breaker_cooldown=5)
        llm = ResilientLLM(inner, policy)
        with pytest.raises(RetriesExhaustedError):
            llm.reformulate("q")               # 2 failures -> breaker opens
        calls_before = inner.calls
        with pytest.raises(CircuitOpenError):
            llm.reformulate("q")               # rejected without a call
        assert inner.calls == calls_before


class TestFaultInjector:
    def test_rate_zero_never_faults(self):
        injector = FaultInjector(FaultConfig(rate=0.0, seed=1), scope="db")
        assert all(injector.decide("site") is None for _ in range(50))

    def test_rate_one_always_faults(self):
        injector = FaultInjector(FaultConfig(rate=1.0, seed=1), scope="db")
        assert all(injector.decide("site") is not None for _ in range(50))

    def test_decisions_are_deterministic(self):
        config = FaultConfig(rate=0.3, seed=7)
        first = [
            FaultInjector(config, scope="db").decide("s") for _ in range(1)
        ]
        one = FaultInjector(config, scope="db")
        two = FaultInjector(config, scope="db")
        assert [one.decide("s") for _ in range(100)] == \
            [two.decide("s") for _ in range(100)]
        other_scope = FaultInjector(config, scope="other")
        assert [one.decide("s") for _ in range(100)] != \
            [other_scope.decide("s") for _ in range(100)]
        del first

    def test_parse_flag_forms(self):
        assert FaultConfig.parse("0.2:7") == FaultConfig(rate=0.2, seed=7)
        assert FaultConfig.parse("0.3").rate == 0.3
        assert FaultConfig.parse("0.3").seed == 0
        with pytest.raises(ValueError):
            FaultConfig.parse("lots")
        with pytest.raises(ValueError):
            FaultConfig(rate=1.5)

    def test_kind_partition_covers_band(self):
        config = FaultConfig(rate=1.0, seed=0)
        kinds = {
            config.kind_for(unit / 100.0) for unit in range(100)
        }
        assert kinds == {"error", "timeout", "garble", "latency"}

    def test_garble_shapes(self):
        injector = FaultInjector(FaultConfig(rate=1.0), scope="db")
        garbled = injector.garble("Show me all the teams in the league")
        assert garbled.endswith("##TRUNCATED##")
        assert len(injector.garble([1, 2, 3, 4])) == 2
        parsed, candidates = injector.garble(("p", [1, 2, 3]))
        assert parsed == "p" and candidates == [1]
        assert injector.garble(42) == 42

    def test_faulty_llm_injects_transient(self):
        config = FaultConfig(rate=1.0, seed=1, error_share=1.0,
                             timeout_share=0.0, garble_share=0.0,
                             latency_share=0.0)
        faulty = FaultyLLM(SimulatedLLM(), FaultInjector(config, scope="db"))
        with pytest.raises(TransientLLMError):
            faulty.reformulate("q")

    def test_faulty_executor_raises_execution_error(self, demo_db):
        from repro.engine.errors import ExecutionError
        from repro.engine.executor import Executor

        config = FaultConfig(rate=1.0, seed=1, error_share=1.0,
                             timeout_share=0.0, garble_share=0.0,
                             latency_share=0.0)
        executor = FaultyExecutor(
            Executor(demo_db), FaultInjector(config, scope="db")
        )
        with pytest.raises(InjectedExecutionError):
            executor.execute("SELECT * FROM DEPT")
        assert issubclass(InjectedExecutionError, ExecutionError)

    def test_faulty_executor_passthrough_without_faults(self, demo_db):
        from repro.engine.executor import Executor

        executor = FaultyExecutor(
            Executor(demo_db),
            FaultInjector(FaultConfig(rate=0.0), scope="db"),
        )
        assert len(executor.execute("SELECT * FROM DEPT").rows) == 3


class _RaisingLLM(SimulatedLLM):
    """A simulated LLM whose chosen sites always fail fatally."""

    def __init__(self, broken_sites):
        super().__init__()
        self.broken_sites = set(broken_sites)

    def _maybe_raise(self, site):
        if site in self.broken_sites:
            raise FatalLLMError(f"backend down for {site}")

    def reformulate(self, *args, **kwargs):
        self._maybe_raise("reformulate")
        return super().reformulate(*args, **kwargs)

    def classify_intents(self, *args, **kwargs):
        self._maybe_raise("classify_intents")
        return super().classify_intents(*args, **kwargs)

    def link_schema(self, *args, **kwargs):
        self._maybe_raise("link_schema")
        return super().link_schema(*args, **kwargs)

    def understand(self, *args, **kwargs):
        self._maybe_raise("understand")
        return super().understand(*args, **kwargs)


class TestPipelineDegradation:
    def _pipeline(self, experiment_context, llm):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        return GenEditPipeline(profile.database, knowledge, llm=llm)

    def test_optional_operator_fails_soft(self, experiment_context):
        pipeline = self._pipeline(
            experiment_context, _RaisingLLM({"reformulate"})
        )
        result = pipeline.generate("How many teams are there?")
        assert result.degraded_operators == ("reformulate",)
        assert result.failed_operator == ""
        # Raw question flowed through; the rest of the pipeline still ran.
        assert result.context.reformulated == "How many teams are there?"
        assert result.sql
        assert result.success

    def test_degradation_recorded_on_span_and_metrics(
        self, experiment_context
    ):
        metrics = get_metrics()
        before = metrics.counter_value(
            "pipeline.operator_degraded", operator="classify_intents"
        )
        pipeline = self._pipeline(
            experiment_context, _RaisingLLM({"classify_intents"})
        )
        result = pipeline.generate("How many teams are there?")
        assert result.context.intent_ids == []
        spans = [
            record for record in result.trace_records()
            if record["name"] == "classify_intents"
        ]
        assert spans and spans[0]["attributes"]["degraded"] is True
        assert "FatalLLMError" in spans[0]["attributes"]["degraded_reason"]
        assert metrics.counter_value(
            "pipeline.operator_degraded", operator="classify_intents"
        ) == before + 1
        root = [
            record for record in result.trace_records()
            if record["parent_id"] is None
        ][0]
        assert root["attributes"]["degraded"] == "classify_intents"

    def test_required_operator_fails_run_without_exception(
        self, experiment_context
    ):
        metrics = get_metrics()
        before = metrics.counter_value(
            "pipeline.failed_runs", operator="plan"
        )
        pipeline = self._pipeline(
            experiment_context, _RaisingLLM({"understand"})
        )
        result = pipeline.generate("How many teams are there?")
        assert not result.success
        assert result.failed_operator == "plan"
        assert "FatalLLMError" in result.error
        assert metrics.counter_value(
            "pipeline.failed_runs", operator="plan"
        ) == before + 1
        spans = {
            record["name"]: record for record in result.trace_records()
        }
        assert spans["plan"]["status"] == "error"
        # The pipeline stopped: generation never ran.
        assert "generate_sql" not in spans

    def test_retries_exhausted_degrades_optional(self, experiment_context):
        class _Transient(_RaisingLLM):
            def _maybe_raise(self, site):
                if site in self.broken_sites:
                    raise TransientLLMError(f"flaky {site}")

        from repro.pipeline import GenEditPipeline
        from repro.resilience import RetryPolicy as _Policy

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(
            profile.database, knowledge,
            llm=_Transient({"classify_intents"}),
            retry_policy=_Policy(max_attempts=2),
        )
        result = pipeline.generate("How many teams are there?")
        assert result.degraded_operators == ("classify_intents",)
        reason = dict(result.context.degraded_operators)["classify_intents"]
        assert "RetriesExhaustedError" in reason
        assert result.success

    def test_enable_faults_keeps_generate_exception_free(
        self, experiment_context
    ):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(profile.database, knowledge)
        injector = pipeline.enable_faults(FaultConfig(rate=0.6, seed=11))
        questions = [
            entry.question
            for entry in experiment_context.workload.questions
            if entry.database == "sports_holdings"
        ][:8]
        for question in questions:
            result = pipeline.generate(question)   # must never raise
            assert result.question == question
        assert sum(injector.injected.values()) > 0


class TestChaosEvaluation:
    """The acceptance-criteria pair: equivalence at rate 0, completion
    under faults."""

    def _subset(self, experiment_context, per_db=4):
        questions = []
        seen = {}
        for question in experiment_context.workload.questions:
            if seen.get(question.database, 0) < per_db:
                seen[question.database] = seen.get(question.database, 0) + 1
                questions.append(question)
        return questions

    def _run(self, experiment_context, fault_config):
        from repro.bench.harness import evaluate_system
        from repro.pipeline import GenEditPipeline

        return evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            experiment_context.workload,
            experiment_context.profiles,
            experiment_context.knowledge_sets,
            "chaos",
            questions=self._subset(experiment_context),
            cache=experiment_context.cache,
            fault_config=fault_config,
        )

    def test_rate_zero_is_equivalent_to_no_faults(self, experiment_context):
        clean = self._run(experiment_context, None)
        zero = self._run(experiment_context, FaultConfig(rate=0.0, seed=7))
        assert [o.correct for o in zero.outcomes] == \
            [o.correct for o in clean.outcomes]
        assert [o.predicted_sql for o in zero.outcomes] == \
            [o.predicted_sql for o in clean.outcomes]

    def test_chaos_run_completes_with_populated_errors(
        self, experiment_context
    ):
        metrics = get_metrics()
        retries_before = sum(
            value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith("resilience.retries")
        )
        questions = self._subset(experiment_context)
        report = self._run(
            experiment_context, FaultConfig(rate=0.5, seed=7)
        )
        assert len(report.outcomes) == len(questions)
        assert [o.question_id for o in report.outcomes] == \
            [q.question_id for q in questions]          # workload order
        for outcome in report.outcomes:
            assert outcome.correct or outcome.error     # never silent
        snapshot = metrics.snapshot()["counters"]
        retries_after = sum(
            value for key, value in snapshot.items()
            if key.startswith("resilience.retries")
        )
        assert retries_after > retries_before
        assert any(
            key.startswith("faults.injected") for key in snapshot
        )

    def test_chaos_is_deterministic(self, experiment_context):
        config = FaultConfig(rate=0.4, seed=13)
        first = self._run(experiment_context, config)
        second = self._run(experiment_context, config)
        assert [o.correct for o in first.outcomes] == \
            [o.correct for o in second.outcomes]
        assert [o.predicted_sql for o in first.outcomes] == \
            [o.predicted_sql for o in second.outcomes]
        assert [o.error for o in first.outcomes] == \
            [o.error for o in second.outcomes]


class TestSelfCorrectionSatellites:
    def test_queue_dedupes_duplicate_candidates(self, demo_db, monkeypatch):
        """Duplicate candidates must not burn retry budget."""
        from repro.engine.executor import Executor
        from repro.pipeline import correction
        from repro.pipeline.base import PipelineContext
        from repro.pipeline.config import DEFAULT_CONFIG
        from repro.pipeline.correction import SelfCorrectionOperator

        executed = []

        class CountingExecutor:
            def __init__(self, database):
                self._inner = Executor(database)

            def execute(self, sql):
                executed.append(sql)
                return self._inner.execute(sql)

        monkeypatch.setattr(correction, "Executor", CountingExecutor)
        failing = "SELECT SUM(COUNT(*)) FROM EMP"   # lints clean, fails
        clean = "SELECT COUNT(*) FROM EMP"
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        # The duplicates: chosen SQL repeated in candidates, twice.
        context.candidates = [failing, failing, failing, clean]
        context.sql = failing
        context = SelfCorrectionOperator().run(context)
        assert context.sql == clean
        assert executed == [failing, clean]         # each distinct SQL once
        assert context.execution_caught == 1

    def test_regeneration_records_configured_model(self, demo_db):
        from repro.llm.interface import GPT_4O_MINI
        from repro.pipeline.base import PipelineContext
        from repro.pipeline.config import DEFAULT_CONFIG
        from repro.pipeline.correction import SelfCorrectionOperator

        llm = SimulatedLLM(model=GPT_4O_MINI)
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        context.candidates = ["SELECT SUM(COUNT(*)) FROM EMP",
                              "SELECT COUNT(*) FROM EMP"]
        context.sql = context.candidates[0]
        SelfCorrectionOperator(llm).run(context)
        regen = [
            call for call in context.meter.calls
            if call.operator == "self_correct"
        ]
        assert regen and all(
            call.model == "gpt-4o-mini" for call in regen
        )

    def test_pipeline_threads_model_through_correction(
        self, experiment_context
    ):
        from repro.llm.interface import GPT_4O_MINI
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(
            profile.database, knowledge,
            llm=SimulatedLLM(model=GPT_4O_MINI),
        )
        result = pipeline.generate("How many teams are there?")
        models = {
            call.model for call in result.context.meter.calls
            if call.operator in ("self_correct", "generate_sql")
        }
        assert models <= {"gpt-4o-mini"}


class _ExecuteFaults(FaultInjector):
    """Injects only at the ``execute`` site, on the listed occurrences
    (every one when ``occurrences`` is None); LLM calls run clean."""

    def __init__(self, occurrences=None):
        super().__init__(FaultConfig(
            rate=1.0, error_share=1.0, timeout_share=0.0,
            garble_share=0.0, latency_share=0.0,
        ), scope="demo")
        self.occurrences = occurrences
        self.calls = 0

    def decide(self, site):
        if site != "execute":
            return None
        self.calls += 1
        if self.occurrences is not None and self.calls not in self.occurrences:
            return None
        return super().decide(site)


class TestFinalCheckReuse:
    """Each answer executes once: the final check reuses self-correction's
    clean run, and every other path still executes."""

    QUESTION = "How many departments are there?"

    @pytest.fixture()
    def pipeline(self, demo_db):
        from repro.knowledge import LoggedQuery, mine_knowledge_set
        from repro.pipeline import GenEditPipeline

        log = [
            LoggedQuery("q1", self.QUESTION, "SELECT COUNT(*) FROM DEPT",
                        "hr analytics"),
            LoggedQuery("q2", "What is the total salary?",
                        "SELECT SUM(SALARY) FROM EMP", "hr analytics"),
        ]
        return GenEditPipeline(demo_db, mine_knowledge_set(demo_db, log, []))

    @pytest.fixture()
    def executed(self, monkeypatch):
        from repro.engine.executor import Executor
        from repro.pipeline import pipeline as pipeline_module

        executed = []

        class CountingExecutor:
            def __init__(self, database):
                self._inner = Executor(database)

            def execute(self, sql):
                executed.append(sql)
                return self._inner.execute(sql)

        # Self-correction builds its executor through the pipeline's
        # factory, so this counts both of its executions and the final
        # check's.
        monkeypatch.setattr(pipeline_module, "Executor", CountingExecutor)
        return executed

    @staticmethod
    def _final_check_attrs(result):
        return next(
            record["attributes"] for record in result.trace_records()
            if record["name"] == "final_check"
        )

    @staticmethod
    def _wrap_self_correct(monkeypatch, after):
        from repro.pipeline.correction import SelfCorrectionOperator

        original = SelfCorrectionOperator.run

        def run(self, context):
            original(self, context)
            after(context)
            return context

        monkeypatch.setattr(SelfCorrectionOperator, "run", run)

    def test_clean_answer_executes_once(self, pipeline, executed):
        metrics = get_metrics()
        before = metrics.counter_value("pipeline.final_check.reused")
        result = pipeline.generate(self.QUESTION)
        assert result.success and result.error == ""
        assert executed == [result.sql]
        assert self._final_check_attrs(result)["reused"] is True
        assert metrics.counter_value(
            "pipeline.final_check.reused"
        ) == before + 1

    def test_degraded_self_correction_still_executes(
        self, pipeline, executed, monkeypatch
    ):
        def explode(context):
            raise RuntimeError("self-correction broke after a clean run")

        self._wrap_self_correct(monkeypatch, explode)
        result = pipeline.generate(self.QUESTION)
        assert result.degraded_operators == ("self_correct",)
        assert result.context.executed_clean is None
        assert executed == [result.sql, result.sql]
        assert result.success and result.error == ""
        assert "reused" not in self._final_check_attrs(result)

    @pytest.mark.parametrize("bad_sql, runs_in_self_correct", [
        ("SELECT SUM(COUNT(*)) FROM EMP", 1),    # lints clean, fails
        ("SELECT NOPE FROM EMP", 0),             # lint-caught only
    ])
    def test_no_clean_candidate_still_executes(
        self, pipeline, executed, monkeypatch, demo_db, bad_sql,
        runs_in_self_correct,
    ):
        from repro.engine.errors import ExecutionError
        from repro.engine.executor import Executor
        from repro.pipeline.generation import GenerationOperator
        from repro.sql.errors import SqlError

        def generate_bad(self, context):
            context.candidates = [bad_sql]
            context.sql = bad_sql
            return context

        monkeypatch.setattr(GenerationOperator, "run", generate_bad)
        with pytest.raises((SqlError, ExecutionError)) as raised:
            Executor(demo_db).execute(bad_sql)
        result = pipeline.generate(self.QUESTION)
        assert result.context.executed_clean is None
        assert executed == [bad_sql] * (runs_in_self_correct + 1)
        assert not result.success
        assert result.error == str(raised.value)

    def test_insert_after_clean_run_forces_reexecution(
        self, pipeline, executed, monkeypatch, demo_db
    ):
        def insert(context):
            demo_db.table("DEPT").insert((4, "Ops", "East", 10.0))

        self._wrap_self_correct(monkeypatch, insert)
        result = pipeline.generate(self.QUESTION)
        assert result.context.executed_clean[0] == result.sql
        assert executed == [result.sql, result.sql]
        assert result.success
        assert "reused" not in self._final_check_attrs(result)

    def test_injected_execute_error_still_fails_the_run(self, pipeline):
        injector = pipeline.enable_faults(injector=_ExecuteFaults())
        result = pipeline.generate(self.QUESTION)
        assert result.context.executed_clean is None
        assert not result.success
        assert result.error.startswith("injected error in execute")
        # Self-correction drew faults on its attempts; the final check
        # executed and drew one more.
        assert injector.injected == {FAULT_ERROR: injector.calls}
        assert injector.calls == result.context.execution_caught + 1

    def test_reused_verdict_draws_no_execute_fault(self, pipeline):
        # Only a second execution would fault; reusing the clean run
        # means there is none.
        injector = pipeline.enable_faults(injector=_ExecuteFaults({2}))
        result = pipeline.generate(self.QUESTION)
        assert result.success
        assert injector.calls == 1 and injector.injected == {}
