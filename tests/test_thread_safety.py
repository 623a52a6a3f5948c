"""Concurrency regression tests for the process-global caches and the
resilience/ledger paths hardened for the serving layer.

Each test hammers one shared structure from N threads (barrier-started
so the race window actually overlaps) and asserts the invariant the
fix established: no lost counter increments, exactly one half-open
trial winner, no torn cache reads, distinct ledger run ids. Before the
locks these tests fail intermittently; with them they must never fail.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine import Executor
from repro.engine.stats import (
    ENGINE_STATS,
    bump,
    engine_snapshot,
    reset_engine_stats,
)
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.resilience.policy import CircuitBreaker
from repro.sql import parse

THREADS = 8
ROUNDS = 400


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N barrier-started threads; re-raise."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30.0)
            worker(index)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    pool = [
        threading.Thread(target=run, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(60.0)
    if errors:
        raise errors[0]


class TestEngineStats:
    def test_no_lost_increments_under_contention(self):
        key = "thread_safety_test_counter"
        ENGINE_STATS[key] = 0
        try:
            _hammer(lambda index: [
                bump(key) for _ in range(ROUNDS)
            ])
            assert ENGINE_STATS[key] == THREADS * ROUNDS
        finally:
            ENGINE_STATS.pop(key, None)

    def test_snapshot_and_reset_race_cleanly(self):
        ENGINE_STATS["thread_safety_reset_probe"] = 0

        def worker(index):
            for _ in range(50):
                if index % 2:
                    engine_snapshot()
                else:
                    bump("thread_safety_reset_probe")
        _hammer(worker)
        ENGINE_STATS.pop("thread_safety_reset_probe", None)


class TestCompiledPredicateCache:
    def test_concurrent_queries_with_reset_racing(self, demo_db):
        """N executors + a reset thread: identical results, no tears.

        ``reset_engine_stats`` clears the compiled-predicate cache; racing
        it against queries that hit the cache used to be able to observe a
        half-built entry or double-count stats.
        """
        sql = (
            "SELECT DEPT_ID, COUNT(*) AS N FROM EMP "
            "WHERE SALARY > 80 AND ACTIVE = TRUE "
            "GROUP BY DEPT_ID ORDER BY DEPT_ID"
        )
        query = parse(sql)
        expected = Executor(demo_db).execute(query).rows
        stop = threading.Event()

        def resetter():
            while not stop.is_set():
                reset_engine_stats()

        chaos = threading.Thread(target=resetter)
        chaos.start()
        try:
            def worker(index):
                executor = Executor(demo_db)
                for _ in range(60):
                    assert executor.execute(query).rows == expected

            _hammer(worker)
        finally:
            stop.set()
            chaos.join(30.0)


class TestTermsCache:
    def test_concurrent_vectorization_is_stable(self):
        from repro.text.vectorize import TfIdfVectorizer

        texts = [
            f"organisation {index} operates in region {index % 3} "
            f"with revenue targets and quarterly reporting"
            for index in range(40)
        ]
        vectorizer = TfIdfVectorizer()
        vectorizer.fit(texts)
        expected = [vectorizer.transform(text) for text in texts]

        def worker(index):
            for _ in range(20):
                got = [vectorizer.transform(text) for text in texts]
                assert got == expected

        _hammer(worker)


class TestLinkSignatureCache:
    def test_concurrent_generation_identical_results(
        self, sports_pipeline, experiment_context
    ):
        """The real race: one shared pipeline, N threads, same question.

        Covers ``_link_signature``/``_token_set`` memoisation inside the
        simulated LLM plus every per-operator cache behind ``generate``.
        """
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0].question
        expected = sports_pipeline.generate(question).sql
        results = [None] * THREADS

        def worker(index):
            results[index] = sports_pipeline.generate(question).sql

        _hammer(worker)
        assert results == [expected] * THREADS


class TestKnowledgeCloneIsolation:
    def test_clone_edit_search_races_leave_live_results_intact(
        self, experiment_context
    ):
        """Readers search a cold live set while writers clone and edit it.

        ``RetrievalIndex.copy`` shares the published postings and runs
        under the refresh lock, so a copy taken mid-refresh and a clone's
        own post-edit refresh must never leak into the live set's results.
        """
        from repro.knowledge import KnowledgeSet

        snapshot = experiment_context.knowledge_sets[
            "sports_holdings"
        ].snapshot()
        queries = [
            question.question for question in
            experiment_context.workload.for_database("sports_holdings")[:4]
        ]

        def hits(knowledge):
            return [
                [(hit.doc_id, hit.score) for hit in search(query)]
                for query in queries
                for search in (
                    knowledge.search_examples,
                    knowledge.search_instructions,
                    knowledge.search_schema,
                    knowledge.search_intents,
                )
            ]

        def edited_clone(knowledge):
            clone = knowledge.clone()
            clone.delete_example(clone.examples()[0].example_id)
            clone.delete_instruction(
                clone.instructions()[0].instruction_id
            )
            return clone

        serial = KnowledgeSet(snapshot["name"]).restore(snapshot)
        expected_live = hits(serial)
        expected_edited = hits(edited_clone(serial))
        live = KnowledgeSet(snapshot["name"]).restore(snapshot)

        def worker(index):
            for _ in range(3):
                if index % 2:
                    assert hits(edited_clone(live)) == expected_edited
                else:
                    assert hits(live) == expected_live

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert hits(live) == expected_live


class TestConcurrentSubmissions:
    def test_concurrent_submits_match_serial_reports(
        self, experiment_context
    ):
        """Solvers over clones of one live set share its version memo.

        Each submission reads and fills that memo from its own thread
        (concurrent misses compute the same entry twice, last write
        wins), so every report must equal the one a serial run on a
        private copy produces.
        """
        from repro.feedback import FeedbackSolver, GoldenQuery
        from repro.knowledge import KnowledgeSet
        from repro.pipeline import GenEditPipeline

        database = experiment_context.profiles["sports_holdings"].database
        snapshot = experiment_context.knowledge_sets[
            "sports_holdings"
        ].snapshot()
        golden = [
            GoldenQuery(entry.question, entry.sql)
            for entry in experiment_context.workload.training_logs[
                "sports_holdings"
            ][:3]
        ]
        sessions = [
            ("What is the average outlay?",
             "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."),
            ("How many organisations are in Canada?",
             "'Canada' is a value of SPORTS_ORGS.COUNTRY."),
        ]

        def submit(live, index):
            question, feedback = sessions[index % len(sessions)]
            solver = FeedbackSolver(
                GenEditPipeline(database, live.clone()),
                golden_queries=golden,
            )
            solver.ask(question)
            solver.give_feedback(feedback)
            solver.stage()
            solver.regenerate()
            submission = solver.submit()
            return submission.regression_report, submission.knowledge_gate

        threads = 4
        serial = [
            submit(KnowledgeSet(snapshot["name"]).restore(snapshot), index)
            for index in range(threads)
        ]
        live = KnowledgeSet(snapshot["name"]).restore(snapshot)
        reports = [None] * threads

        def worker(index):
            reports[index] = submit(live, index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert reports == serial


class TestCircuitBreakerAtomicity:
    def _half_open_breaker(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure("site")     # opens: 1 cooldown call
        assert not breaker.allow("site")   # burns cooldown -> half-open
        return breaker

    def test_single_half_open_trial_winner(self):
        breaker = self._half_open_breaker()
        verdicts = [None] * THREADS

        def worker(index):
            verdicts[index] = breaker.allow("site")

        _hammer(worker)
        assert sum(verdicts) == 1, (
            f"expected exactly one half-open trial, got {sum(verdicts)}"
        )

    def test_trial_success_closes_trial_failure_reopens(self):
        breaker = self._half_open_breaker()
        assert breaker.allow("site")        # the trial
        breaker.record_success("site")
        assert breaker.allow("site")        # closed again

        breaker = self._half_open_breaker()
        assert breaker.allow("site")
        breaker.record_failure("site")      # trial failed: re-open
        assert not breaker.allow("site")

    def test_concurrent_failures_open_exactly_once(self):
        breaker = CircuitBreaker(threshold=THREADS * ROUNDS + 1,
                                 cooldown=3)

        def worker(index):
            for _ in range(ROUNDS):
                breaker.record_failure("site")

        _hammer(worker)
        # One more failure crosses the threshold exactly.
        assert breaker.allow("site")
        breaker.record_failure("site")
        assert not breaker.allow("site")


class TestMetricsRegistryContention:
    def test_no_lost_resilience_increments(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(ROUNDS):
                registry.inc("resilience.retries", operator="plan")
                registry.observe("resilience.backoff_ms", 1.0,
                                 operator="plan")

        _hammer(worker)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["resilience.retries{operator=plan}"] \
            == THREADS * ROUNDS
        histogram = snapshot["histograms"][
            "resilience.backoff_ms{operator=plan}"
        ]
        assert histogram["count"] == THREADS * ROUNDS


class TestIntrospectionRings:
    """The serving layer's debug ring buffers stay bounded and race-free
    under N barrier-started writer threads (DESIGN.md §6i)."""

    def test_flight_recorder_bounded_with_priority_intact(self):
        from repro.obs.flight import FlightRecorder

        capacity = 16
        flight = FlightRecorder(capacity=capacity, slow_ms=100.0,
                                sample_every=2)
        statuses = [(500, 0.0), (200, 500.0), (200, 1.0)]

        def worker(index):
            for round_number in range(ROUNDS):
                status, latency = statuses[
                    (index + round_number) % len(statuses)
                ]
                flight.observe(
                    status, False, latency,
                    {"id": f"{index}-{round_number}"},
                )

        _hammer(worker)
        stats = flight.stats()
        assert stats["seen"] == THREADS * ROUNDS
        retained = sum(stats["retained"].values())
        assert retained <= capacity
        assert len(flight.entries()) == retained
        # every failed observation was recorded, and with failures
        # saturating the ring, the survivors are all top-priority.
        expected_failed = sum(
            1 for index in range(THREADS)
            for round_number in range(ROUNDS)
            if statuses[(index + round_number) % len(statuses)][0] == 500
        )
        assert stats["recorded"]["failed"] == expected_failed
        assert all(
            entry["class"] == "failed" for entry in flight.entries()
        )

    def test_request_log_and_trace_store_bounded(self):
        from repro.serve.middleware import RequestLog, TraceStore

        log = RequestLog(capacity=32)
        store = TraceStore(capacity=16, max_spans=8)

        def worker(index):
            for round_number in range(ROUNDS):
                log.add({"request_id": f"{index}-{round_number}"})
                store.add(
                    f"trace-{round_number % 64}",
                    [{"span_id": f"{index}-{round_number}"}],
                )

        _hammer(worker)
        assert len(log) == 32
        assert len(log.entries()) == 32
        assert len(store) <= 16
        for trace_id in store.trace_ids():
            assert len(store.get(trace_id)) <= 8

    def test_tracer_bounded_under_concurrent_spans(self):
        from repro.obs.tracing import Tracer, use_trace_context

        tracer = Tracer(max_finished=64)

        def worker(index):
            with use_trace_context(f"{index:032x}"):
                for _ in range(ROUNDS):
                    with tracer.span("hammer", worker=index):
                        pass

        _hammer(worker)
        spans = tracer.finished_spans()
        assert len(spans) == 64
        # every retained span carries the trace id of the thread that
        # opened it — ambient contexts never bled across threads.
        assert all(
            span.trace_id == f"{span.attributes['worker']:032x}"
            for span in spans
        )


class TestLedgerConcurrentWriters:
    def test_same_second_writers_get_distinct_ids(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        record = {"kind": "serve", "systems": {}, "target": "t"}
        run_ids = [None] * THREADS

        def worker(index):
            run_ids[index] = ledger.record_run(dict(record))

        _hammer(worker)
        assert len(set(run_ids)) == THREADS
        listed = ledger.run_ids()
        assert sorted(run_ids) == sorted(listed)
        # latest resolution is deterministic and walks the full chain.
        seen = {
            ledger.resolve(f"latest~{offset}")
            for offset in range(THREADS)
        }
        assert seen == set(run_ids)
        with pytest.raises(KeyError):
            ledger.resolve(f"latest~{THREADS}")
