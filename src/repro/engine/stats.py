"""Module-level engine counters for the columnar execution pipeline.

The bench profile (schema v3) reports a per-run engine breakdown: time in
the logical-rewrite pass, time compiling vector closures, how often the
executor ran fully columnar versus falling back to the row path, and how
many batches answered a literal IN list by set probe. Counters
are process-global because compiled closures and rewritten plans are shared
across executor instances — resetting happens at profile boundaries.

Concurrency: the serving layer (DESIGN.md §6h) drives many executors from
a worker pool, so every read-modify-write on :data:`ENGINE_STATS` goes
through :data:`STATS_LOCK` (via :func:`bump` / :func:`add_time`). A bare
``ENGINE_STATS[key] += 1`` from two threads loses increments under the
GIL's bytecode interleaving; the locked helpers make the counters exact —
the thread-safety regression tests count on it literally.
"""

from __future__ import annotations

import threading

_ZERO = {
    "rewrite_s": 0.0,
    "compile_s": 0.0,
    "columnar_selects": 0,
    "row_fallback_selects": 0,
    "error_reruns": 0,
    "hash_joins": 0,
    "loop_joins": 0,
    "in_list_probes": 0,
}

ENGINE_STATS = dict(_ZERO)

#: Guards every compound update of :data:`ENGINE_STATS` (and, in
#: :mod:`repro.engine.evaluator`, the compiled-expression cache counters).
STATS_LOCK = threading.Lock()


def bump(key, amount=1):
    """Atomically increment an engine counter."""
    with STATS_LOCK:
        ENGINE_STATS[key] += amount


def add_time(key, seconds):
    """Atomically accumulate a wall-clock stat (``rewrite_s``/``compile_s``)."""
    with STATS_LOCK:
        ENGINE_STATS[key] += seconds


def engine_snapshot():
    """Current counters plus compiled-expression cache statistics."""
    from .evaluator import vector_cache_stats

    with STATS_LOCK:
        snapshot = dict(ENGINE_STATS)
    snapshot["rewrite_s"] = round(snapshot["rewrite_s"], 6)
    snapshot["compile_s"] = round(snapshot["compile_s"], 6)
    snapshot["predicate_cache"] = vector_cache_stats()
    return snapshot


def publish_engine_gauges(registry=None):
    """Export engine counters as gauges on the observability registry.

    Called at profile boundaries (not per execution) so the engine's hot
    path never pays a metrics lookup; the gauges mirror the latest
    :func:`engine_snapshot`.
    """
    from ..obs.metrics import get_metrics
    from .evaluator import vector_cache_stats

    registry = registry if registry is not None else get_metrics()
    cache = vector_cache_stats()
    for key in ("hits", "misses", "fallbacks", "entries"):
        registry.set_gauge(f"engine.predicate_cache.{key}", cache[key])
    with STATS_LOCK:
        counters = dict(ENGINE_STATS)
    for key in ("columnar_selects", "row_fallback_selects", "error_reruns",
                "hash_joins", "loop_joins", "in_list_probes"):
        registry.set_gauge(f"engine.{key}", counters[key])
    return registry


def reset_engine_stats():
    """Zero all counters and clear the compiled-expression cache.

    Safe to call while other threads execute queries: the counter reset and
    the cache clear each happen under their lock, so a racing compile can
    at worst land one fresh entry *after* the reset — never a torn counter
    or a partially-cleared cache.
    """
    from .evaluator import reset_vector_cache

    with STATS_LOCK:
        ENGINE_STATS.update(_ZERO)
    reset_vector_cache()
