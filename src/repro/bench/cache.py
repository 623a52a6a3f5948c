"""Shared evaluation caches: the harness fast path.

Every experiment in the harness re-executes the *same* gold SQL once per
system under test (Table 1 alone runs ~7 systems over one workload), and
constructs a fresh :class:`~repro.engine.executor.Executor` per EX check.
:class:`EvaluationCache` removes both costs:

* one executor per database, reused for every statement against it;
* the *comparable* result multiset of each ``(database, sql)`` pair is
  memoized — keyed on the database's mutation :attr:`version
  <repro.engine.database.Database.version>` so inserting a row or adding a
  table transparently invalidates every stale entry.

Execution failures are memoized too (as the error text), so a predicted
statement that fails once does not re-parse and re-fail on every retry.

The cache is safe to share across threads: entries are immutable once
stored and dict operations are atomic; concurrent misses at worst compute
the same entry twice.
"""

from __future__ import annotations

from collections import namedtuple

from ..engine.errors import ExecutionError
from ..engine.executor import Executor
from ..obs.metrics import get_metrics
from ..sql.errors import SqlError

_OK = "ok"
_ERR = "err"

#: ``functools.lru_cache``-shaped stats, so cache consumers can treat
#: :meth:`EvaluationCache.cache_info` and ``parse_cached.cache_info()``
#: uniformly (``maxsize`` is None: this cache is version-evicted, not
#: size-bounded).
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class CachedExecutionError(Exception):
    """Replayed failure of a statement whose first execution failed."""


class EvaluationCache:
    """Memoizes executors and comparable result sets per database."""

    def __init__(self):
        # id(database) -> (database, executor); the strong reference keeps
        # the id stable for the cache's lifetime.
        self._executors = {}
        self._results = {}
        self.hits = 0
        self.misses = 0

    # -- executors -------------------------------------------------------

    def executor(self, database):
        """The shared executor for ``database`` (created on first use)."""
        entry = self._executors.get(id(database))
        if entry is None:
            entry = (database, Executor(database))
            self._executors[id(database)] = entry
        return entry[1]

    # -- comparable result sets ------------------------------------------

    def comparable(self, database, sql):
        """The comparable multiset of ``sql`` on ``database``, memoized.

        Raises :class:`CachedExecutionError` when the statement fails (and
        remembers the failure). The key includes ``database.version``, so
        any sanctioned mutation bypasses stale entries; old versions are
        evicted eagerly to keep the cache from growing per mutation.
        """
        key = (id(database), database.version, sql)
        entry = self._results.get(key)
        if entry is None:
            self.misses += 1
            get_metrics().inc("eval_cache.misses")
            executor = self.executor(database)
            try:
                entry = (_OK, executor.execute(sql).comparable())
            except (SqlError, ExecutionError) as error:
                entry = (_ERR, str(error))
            self._evict_stale(id(database), database.version)
            self._results[key] = entry
        else:
            self.hits += 1
            get_metrics().inc("eval_cache.hits")
        if entry[0] == _ERR:
            raise CachedExecutionError(entry[1])
        return entry[1]

    def _evict_stale(self, database_id, version):
        # ``list()`` snapshots the keys in one C call, so a concurrent
        # insert cannot change the dict mid-iteration; two threads may
        # pick the same stale key, hence ``pop`` rather than ``del``.
        stale = [
            key for key in list(self._results)
            if key[0] == database_id and key[1] != version
        ]
        for key in stale:
            self._results.pop(key, None)

    # -- maintenance -----------------------------------------------------

    def invalidate(self, database=None):
        """Drop memoized results (for ``database``, or everything).

        Needed only after out-of-band mutation (e.g. editing ``table.rows``
        in place), which the version counter cannot see.
        """
        if database is None:
            self._results.clear()
            self._executors.clear()
            return
        self._executors.pop(id(database), None)
        self._results = {
            key: entry for key, entry in self._results.items()
            if key[0] != id(database)
        }

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._results),
            "executors": len(self._executors),
        }

    def cache_info(self):
        """``lru_cache``-style stats (see :data:`CacheInfo`)."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            maxsize=None,
            currsize=len(self._results),
        )

    def __repr__(self):
        return (
            f"EvaluationCache({len(self._results)} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
