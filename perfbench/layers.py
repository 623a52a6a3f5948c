"""Per-layer metrics from a traced phase: span rollups, counters and
process-wide snapshots turned into the names ``spec.PER_LAYER`` lists."""

from __future__ import annotations

import spec


def snapshots():
    """Process-wide counters the traced run reports as deltas."""
    from repro.engine.stats import engine_snapshot
    from repro.sql.parser import parse_cache_info

    engine = engine_snapshot()
    cache = engine.pop("predicate_cache")
    parse = parse_cache_info()
    return {
        **{f"engine.{key}": value for key, value in engine.items()},
        "engine.predicate_cache.hits": cache["hits"],
        "engine.predicate_cache.misses": cache["misses"],
        "sql.parse_cache.hits": parse.hits,
        "sql.parse_cache.misses": parse.misses,
    }


def ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def largest(layers):
    return max(layers, key=layers.get) if layers else ""


def layer_metrics(names, layers, counters, deltas, ops, wall_s,
                  extra=None):
    """Every per-layer metric, per operation unless named otherwise.

    ``wall_s`` is the traced wall clock the layer self times must account
    for; what no layer covers is charged to ``layer.benchmark``.
    """
    per_op = 1.0 / ops if ops else 0.0
    metrics = dict.fromkeys(spec.PER_LAYER, 0.0)
    for metric, (name, field) in spec.SPAN_METRICS.items():
        value = names.get(name, {}).get(field, 0)
        scale = 1000.0 if field.endswith("_s") else 1.0
        metrics[metric] = value * scale * per_op
    for counter in ("pipeline.attempts", "llm.calls", "llm.input_tokens",
                    "feedback.edits_recommended"):
        metrics[counter] = counters.get(counter, 0.0) * per_op
    for key in ("rewrite_s", "compile_s", "columnar_selects",
                "row_fallback_selects", "hash_joins", "loop_joins"):
        metrics[f"engine.{key}"] = deltas.get(f"engine.{key}", 0) * per_op
    metrics["engine.predicate_cache.hit_ratio"] = ratio(
        deltas.get("engine.predicate_cache.hits", 0),
        deltas.get("engine.predicate_cache.misses", 0))
    metrics["sql.parse_cache.hit_ratio"] = ratio(
        deltas.get("sql.parse_cache.hits", 0),
        deltas.get("sql.parse_cache.misses", 0))
    metrics["eval.cache.hit_ratio"] = ratio(
        deltas.get("eval.cache.hits", 0), deltas.get("eval.cache.misses", 0))
    covered = sum(layers.values())
    shares = dict(layers)
    shares["benchmark"] = max(wall_s - covered, 0.0)
    for layer, seconds in shares.items():
        metrics[f"layer.{layer}.self_pct"] = (
            100.0 * seconds / wall_s if wall_s else 0.0)
    metrics["trace.coverage_pct"] = 100.0 * covered / wall_s if wall_s \
        else 0.0
    metrics.update(extra or {})
    return metrics
