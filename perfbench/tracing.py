"""Per-layer tracing installed from the benchmark's side.

:func:`install` replaces the public entry points of each ``repro`` layer
with wrappers that record one span per call: ``(id, parent id, name,
start, end)``. The parent is the innermost wrapped call open in the same
context (thread or asyncio task); the one hop the context does not cross,
from the serve event loop to a worker thread, is linked explicitly by the
``WorkerPool.run`` wrapper. Untraced runs never call :func:`install`.

A span's self time is its duration minus the part of its interval that its
children cover; overlapping children are counted once. Where children do
not overlap, the self times under a root add up to the root's duration,
which is what lets the per-layer split account for a workload's wall
clock.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import time
from collections import defaultdict

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)

#: Span-name prefix -> layer. First match wins.
LAYERS = (
    ("serve.", "serve"),
    ("pipeline.", "pipeline"),
    ("llm.", "llm"),
    ("retrieval.", "retrieval"),
    ("knowledge.search", "retrieval"),
    ("knowledge.clone", "write"),
    ("feedback.", "write"),
    ("sql.", "sql"),
    ("engine.", "engine"),
    ("eval.", "bench"),
)


def layer_of(name):
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Recorder:
    """Collects finished spans and per-name result counters in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)

    def open(self, parent=None):
        """Start a span; returns ``(span_id, parent_id, start, token)``."""
        span_id = next(self._ids)
        if parent is None:
            parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        return span_id, parent, time.monotonic(), token

    def close(self, name, opened):
        span_id, parent, start, token = opened
        end = time.monotonic()
        _CURRENT.reset(token)
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, opened)
            if on_return is not None:
                on_return(self.counters, result)
            return result
        return traced

    def wrap_async(self, name, fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            opened = self.open()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(name, opened)
        return traced

    def wrap_pool_run(self, fn):
        """``WorkerPool.run``: the submitted callable runs on a worker
        thread, so its span is parented on the pool span by hand."""
        recorder = self

        @functools.wraps(fn)
        async def traced(pool, call, *args, **kwargs):
            opened = recorder.open()
            pool_span = opened[0]

            def handler(*call_args):
                inner = recorder.open(parent=pool_span)
                try:
                    return call(*call_args)
                finally:
                    recorder.close("serve.handler", inner)
            try:
                return await fn(pool, handler, *args, **kwargs)
            finally:
                recorder.close("serve.pool_run", opened)
        return traced


def _covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def self_times(spans):
    """``{span_id: self seconds}`` for ``(id, parent, name, start, end)``
    tuples: duration minus the union of the children's intervals."""
    children = defaultdict(list)
    for _span_id, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(start, end, children[span_id])
        for span_id, _parent, _name, start, end in spans
    }


def within(spans, start, end):
    """The span trees whose root started inside ``[start, end)``."""
    by_id = {span[0]: span for span in spans}

    def root_of(span):
        while span[1] in by_id:
            span = by_id[span[1]]
        return span

    return [span for span in spans if start <= root_of(span)[3] < end]


def rollup(spans):
    """Per-name ``{calls, total_s, self_s}``, per-layer self seconds, and
    the summed duration of the roots (the traced wall clock)."""
    selfs = self_times(spans)
    names = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    layers = defaultdict(float)
    known = {span[0] for span in spans}
    root_s = 0.0
    for span_id, parent, name, start, end in spans:
        entry = names[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[span_id]
        layers[layer_of(name)] += selfs[span_id]
        if parent is None or parent not in known:
            root_s += end - start
    return dict(names), dict(layers), root_s


# -- installation -------------------------------------------------------


def _generate_counters(counters, result):
    counters["pipeline.attempts"] += len(result.context.attempts)
    calls = result.context.meter.calls
    counters["llm.calls"] += len(calls)
    counters["llm.input_tokens"] += sum(call.input_tokens for call in calls)


def _feedback_counters(counters, recommendations):
    counters["feedback.edits_recommended"] += len(recommendations)


def _targets():
    """``(owner, attribute, span name, on_return)`` for every wrapped call."""
    from repro.engine.executor import Executor
    from repro.feedback.solver import FeedbackSolver
    from repro.knowledge.store import KnowledgeSet
    from repro.llm.simulated import SimulatedLLM
    from repro.pipeline.correction import SelfCorrectionOperator
    from repro.pipeline.examples import ExampleSelectionOperator
    from repro.pipeline.generation import GenerationOperator
    from repro.pipeline.instructions import InstructionSelectionOperator
    from repro.pipeline.intents import IntentClassificationOperator
    from repro.pipeline.pipeline import GenEditPipeline
    from repro.pipeline.plan_lint import PlanLintOperator
    from repro.pipeline.planning import PlanningOperator
    from repro.pipeline.reformulate import ReformulateOperator
    from repro.pipeline.schema_linking import SchemaLinkingOperator
    from repro.sql.diagnostics.checker import DiagnosticsEngine
    from repro.text.index import RetrievalIndex

    targets = [
        (GenEditPipeline, "generate", "pipeline.generate",
         _generate_counters),
    ]
    for operator in (
        ReformulateOperator, IntentClassificationOperator,
        ExampleSelectionOperator, InstructionSelectionOperator,
        SchemaLinkingOperator, PlanningOperator, PlanLintOperator,
        GenerationOperator, SelfCorrectionOperator,
    ):
        targets.append((operator, "run", f"pipeline.{operator.name}", None))
    for method in ("reformulate", "classify_intents", "link_schema",
                   "understand"):
        targets.append((SimulatedLLM, method, f"llm.{method}", None))
    targets.append((RetrievalIndex, "search", "retrieval.search", None))
    for method in ("search_examples", "search_instructions",
                   "search_schema", "search_intents"):
        targets.append((KnowledgeSet, method, f"knowledge.{method}", None))
    targets += [
        (KnowledgeSet, "clone", "knowledge.clone", None),
        (FeedbackSolver, "give_feedback", "feedback.give_feedback",
         _feedback_counters),
        (FeedbackSolver, "regenerate", "feedback.regenerate", None),
        (FeedbackSolver, "submit", "feedback.submit", None),
        (DiagnosticsEngine, "run_sql", "sql.diagnose", None),
        (Executor, "execute", "engine.execute", None),
    ]
    return targets


#: Module-level functions, wrapped in every ``repro`` module that binds them.
_FUNCTIONS = (
    ("repro.feedback.regression", "run_regression",
     "feedback.run_regression"),
    ("repro.feedback.regression", "run_knowledge_gate",
     "feedback.run_knowledge_gate"),
    ("repro.bench.metrics", "execution_match", "eval.execution_match"),
)


def install(recorder):
    """Wrap every layer entry point; returns an ``uninstall`` callable."""
    import importlib

    from repro.serve.app import ServeApp
    from repro.serve.pool import WorkerPool

    undo = []

    def replace(owner, attribute, wrapped):
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapped)

    for owner, attribute, name, on_return in _targets():
        replace(owner, attribute,
                recorder.wrap(name, vars(owner)[attribute], on_return))
    replace(ServeApp, "dispatch",
            recorder.wrap_async("serve.dispatch", ServeApp.dispatch))
    replace(WorkerPool, "run", recorder.wrap_pool_run(WorkerPool.run))
    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "repro"]
    for module_name, attribute, name in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapped = recorder.wrap(name, original)
        for module in modules:
            if getattr(module, attribute, None) is original:
                replace(module, attribute, wrapped)

    def uninstall():
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
        undo.clear()

    return uninstall
