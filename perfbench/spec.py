"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); a test keeps the two equal.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

#: The data every workload runs on: Table 1's seed. The benchmark seed
#: drives only question order, draws, arrival times and session order, so
#: the expected answers below hold for every benchmark seed.
DATA_SEED = 7
DEV_CORRECT = 86            # 86 / 132 = EX 65.15
ENTERPRISE_CORRECT = 19     # of 24
FEEDBACK_SESSIONS = 43      # every derived session must be fixed

WORKLOADS = [
    ("ask_dev",
     "132 dev questions, closed loop, one client: Table 1 work; "
     "retrieval, simulated LLM and operators dominate"),
    ("ask_enterprise",
     "24 multi-CTE quarter-over-quarter questions, closed loop: the one "
     "workload where the SQL engine is the main cost"),
    ("serve_zipf",
     "HTTP to a separate repro serve process, Zipf-skewed dev questions: "
     "Poisson open loop, then 2 saturating connections; pool, HTTP, caches"),
    ("feedback_sessions",
     "43 SME sessions, ask-feedback-stage-regenerate-submit: the write "
     "path, knowledge clones and index rebuilds"),
]

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_per_s": ("ops/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "ex_pct": ("%", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_OPERATORS = ("reformulate", "classify_intents", "select_examples",
              "select_instructions", "link_schema", "plan", "lint_plan",
              "generate_sql", "self_correct")

#: name -> unit. Per operation of the workload unless the name says
#: otherwise; layers a workload does not reach read 0.
PER_LAYER = {
    "pipeline.generate_ms": "ms",
    "pipeline.generate.self_ms": "ms",
    **{f"pipeline.{op}.self_ms": "ms" for op in _OPERATORS},
    "pipeline.attempts": "count",
    **{f"llm.{method}.ms": "ms" for method in (
        "reformulate", "classify_intents", "link_schema", "understand")},
    "llm.calls": "count",
    "llm.input_tokens": "tokens",
    "retrieval.search.calls": "count",
    "retrieval.search.self_ms": "ms",
    **{f"knowledge.search_{kind}.ms": "ms" for kind in (
        "examples", "instructions", "schema", "intents")},
    "knowledge.clone.calls": "count",
    "knowledge.clone.ms": "ms",
    **{f"feedback.{step}.ms": "ms" for step in (
        "give_feedback", "regenerate", "submit", "run_regression",
        "run_knowledge_gate")},
    "feedback.edits_recommended": "count",
    "feedback.iterations": "count",
    "sql.parse_cache.hit_ratio": "ratio",
    "sql.diagnose.ms": "ms",
    "engine.execute.calls": "count",
    "engine.execute.self_ms": "ms",
    "engine.rewrite_s": "s",
    "engine.compile_s": "s",
    "engine.columnar_selects": "count",
    "engine.row_fallback_selects": "count",
    "engine.hash_joins": "count",
    "engine.loop_joins": "count",
    "engine.predicate_cache.hit_ratio": "ratio",
    "eval.execution_match.ms": "ms",
    "eval.cache.hit_ratio": "ratio",
    "serve.client_ms": "ms",
    "serve.dispatch_ms": "ms",
    "serve.pool_run_ms": "ms",
    "serve.handler.self_ms": "ms",
    "serve.http_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.rejected": "count",
    "serve.generator_lateness_ms": "ms",
    **{f"layer.{layer}.self_pct": "%" for layer in (
        "serve", "pipeline", "llm", "retrieval", "write", "sql", "engine",
        "bench", "benchmark")},
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics taken straight from a span name's rollup:
#: metric -> (span name, field); fields are calls, total_s, self_s.
SPAN_METRICS = {
    "pipeline.generate_ms": ("pipeline.generate", "total_s"),
    "pipeline.generate.self_ms": ("pipeline.generate", "self_s"),
    **{f"pipeline.{op}.self_ms": (f"pipeline.{op}", "self_s")
       for op in _OPERATORS},
    **{f"llm.{method}.ms": (f"llm.{method}", "total_s") for method in (
        "reformulate", "classify_intents", "link_schema", "understand")},
    "retrieval.search.calls": ("retrieval.search", "calls"),
    "retrieval.search.self_ms": ("retrieval.search", "self_s"),
    **{f"knowledge.search_{kind}.ms": (f"knowledge.search_{kind}",
                                       "total_s")
       for kind in ("examples", "instructions", "schema", "intents")},
    "knowledge.clone.calls": ("knowledge.clone", "calls"),
    "knowledge.clone.ms": ("knowledge.clone", "total_s"),
    **{f"feedback.{step}.ms": (f"feedback.{step}", "total_s") for step in (
        "give_feedback", "regenerate", "submit", "run_regression",
        "run_knowledge_gate")},
    "feedback.iterations": ("feedback.give_feedback", "calls"),
    "sql.diagnose.ms": ("sql.diagnose", "total_s"),
    "engine.execute.calls": ("engine.execute", "calls"),
    "engine.execute.self_ms": ("engine.execute", "self_s"),
    "eval.execution_match.ms": ("eval.execution_match", "total_s"),
    "serve.dispatch_ms": ("serve.dispatch", "total_s"),
    "serve.pool_run_ms": ("serve.pool_run", "total_s"),
    "serve.handler.self_ms": ("serve.handler", "self_s"),
    "serve.queue_wait_ms": ("serve.pool_run", "self_s"),
}


#: Per-layer metrics where a larger number is the better one.
HIGHER_IS_BETTER = {
    "sql.parse_cache.hit_ratio", "engine.predicate_cache.hit_ratio",
    "eval.cache.hit_ratio", "engine.columnar_selects", "engine.hash_joins",
    "trace.coverage_pct",
}


def benchmark_json():
    """The ``BENCHMARK.json`` document, as text."""
    document = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit,
             "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
            for name, unit in PER_LAYER.items()
        ],
    }
    return json.dumps(document, indent=2) + "\n"
