"""Self-time arithmetic and the wrappers installed into the layers."""

import asyncio

import pytest

import tracing


def span(span_id, parent, start, end, name="pipeline.generate"):
    return (span_id, parent, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0),
             span(3, 2, 2.0, 3.0), span(4, 1, 6.0, 8.0)]
    assert tracing.self_times(spans) == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0}


def test_overlapping_children_are_covered_once():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0),
             span(3, 1, 3.0, 6.0), span(4, 1, 3.5, 5.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(5.0)


def test_child_outside_parent_is_clipped():
    spans = [span(1, None, 0.0, 5.0), span(2, 1, 4.0, 7.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(4.0)


def test_rollup_sums_self_time_per_layer():
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 4.0, "engine.execute"),
             span(3, 1, 5.0, 6.0, "engine.execute")]
    names, layers, root_s = tracing.rollup(spans)
    assert names["engine.execute"] == {"calls": 2, "total_s": 4.0,
                                       "self_s": 4.0}
    assert layers == {"pipeline": 6.0, "engine": 4.0}
    assert root_s == 10.0


def test_within_keeps_whole_trees_by_root_start():
    spans = [span(1, None, 0.0, 3.0), span(2, 1, 1.0, 2.0),
             span(3, None, 5.0, 9.0), span(4, 3, 6.0, 7.0)]
    assert [s[0] for s in tracing.within(spans, 4.0, 10.0)] == [3, 4]


def test_install_records_nested_layers_and_uninstalls():
    from repro.bench.harness import ExperimentContext
    from repro.pipeline.pipeline import GenEditPipeline

    context = ExperimentContext(7)
    question = context.workload.questions[0]
    pipeline = GenEditPipeline(
        context.profiles[question.database].database,
        context.knowledge_sets[question.database])
    original = GenEditPipeline.generate
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        pipeline.generate(question.question)
    finally:
        uninstall()
    assert GenEditPipeline.generate is original
    by_id = {s[0]: s for s in recorder.spans}
    roots = [s for s in recorder.spans if s[1] is None]
    assert [s[2] for s in roots] == ["pipeline.generate"]
    names = {s[2] for s in recorder.spans}
    assert {"pipeline.plan", "llm.understand", "retrieval.search",
            "engine.execute"} <= names
    for _id, parent, name, start, end in recorder.spans:
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]
    _names, layers, root_s = tracing.rollup(recorder.spans)
    assert sum(layers.values()) == pytest.approx(root_s)
    assert recorder.counters["llm.calls"] > 0


def test_pool_run_links_the_worker_thread_to_the_request():
    from repro.serve.pool import WorkerPool

    recorder = tracing.Recorder()
    pool = WorkerPool(workers=1, queue_depth=0)
    wrapped = recorder.wrap_pool_run(WorkerPool.run)
    inner = recorder.wrap("pipeline.generate", lambda: 42)

    async def request():
        pool.acquire()
        return await wrapped(pool, inner)

    try:
        assert asyncio.run(request()) == 42
    finally:
        pool.drain(timeout=5)
    by_name = {s[2]: s for s in recorder.spans}
    assert by_name["serve.handler"][1] == by_name["serve.pool_run"][0]
    assert by_name["pipeline.generate"][1] == by_name["serve.handler"][0]
