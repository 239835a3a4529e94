"""Content-addressed LRU caching for the serving layer.

Three cache tiers back :class:`repro.serve.service.MatchService`: a
*tuple embedding* cache (query key → embedding vector), a *pair score*
cache ((query key, candidate id) → match probability) and a *column*
cache (query key → the per-attribute embedding stack the scoring kernel
reads).  All are keyed by :func:`content_key` digests of record
*content*, never by object identity — so a repeated query hits
regardless of which dict instance carries it, and the hit pattern is a
deterministic function of the workload.

Eviction is strict LRU over a single-threaded access sequence, which
keeps the cache state (and therefore the simulated cost of every batch)
replayable.  Hit/miss/eviction counts are kept per cache and mirrored
into guarded ``serve.cache.<name>.*`` metrics.

The batch methods :meth:`LRUCache.get_many` and :meth:`LRUCache.put_many`
are exact: each ends in the entries, recency order, ``stats`` and
``serve.cache.<name>.*`` counter totals that calling :meth:`LRUCache.get`
or :meth:`LRUCache.put` once per key, in order, would leave.  They add
each counter's total in one increment and never touch a counter by zero,
so a counter exists exactly when the per-key calls would have made it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from repro.obs.metrics import REGISTRY as _OBS
from repro.utils.content import content_key
from repro.utils.validation import check_non_negative_int

__all__ = ["CacheStats", "CacheStatsView", "LRUCache", "MISSING", "content_key"]


class _Missing:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "<missing>"


MISSING = _Missing()


@dataclass
class CacheStats:
    """Running hit/miss/eviction accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }


class CacheStatsView:
    """Immutable sum of several caches' stats (for reports)."""

    def __init__(self, *stats: CacheStats) -> None:
        self.hits = sum(s.hits for s in stats)
        self.misses = sum(s.misses for s in stats)
        self.evictions = sum(s.evictions for s in stats)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Bounded least-recently-used mapping with deterministic eviction.

    ``capacity == 0`` is a valid "cache disabled" configuration: every
    lookup misses and nothing is ever stored, so the serving path runs
    with identical code either way (the bench's no-cache scenarios use
    this instead of branching around the cache).
    """

    def __init__(self, capacity: int, *, name: str = "cache") -> None:
        check_non_negative_int("capacity", capacity)
        self.capacity = int(capacity)
        self.name = name
        self.stats = CacheStats()
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: object) -> object:
        """Cached value for ``key`` (freshened), or :data:`MISSING`."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if _OBS.enabled:
                _OBS.counter(f"serve.cache.{self.name}.hits").inc()
            return self._entries[key]
        self.stats.misses += 1
        if _OBS.enabled:
            _OBS.counter(f"serve.cache.{self.name}.misses").inc()
        return MISSING

    def get_many(self, keys: "Sequence[object]") -> list:
        """:meth:`get` of every key in order, as one call.

        Returns the values (:data:`MISSING` for a miss).  Hits move to
        the most-recent end in lookup order — a repeated key moves each
        time — and misses move nothing, exactly as the per-key loop.
        """
        entries = self._entries
        if entries.keys().isdisjoint(keys):
            hits = 0
            values = [MISSING] * len(keys)
        else:
            found = [key for key in keys if key in entries]
            values = [entries.get(key, MISSING) for key in keys]
            for key in found:
                entries.move_to_end(key)
            hits = len(found)
        self.stats.hits += hits
        self.stats.misses += len(keys) - hits
        self._count("hits", hits)
        self._count("misses", len(keys) - hits)
        return values

    def peek(self, key: object) -> object:
        """Like :meth:`get` but with no stats or recency side effects."""
        return self._entries.get(key, MISSING)

    def put(self, key: object, value: object) -> None:
        """Insert/refresh ``key``; evicts the LRU entry when over capacity."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if _OBS.enabled:
                _OBS.counter(f"serve.cache.{self.name}.evictions").inc()

    def put_many(
        self, keys: "Sequence[object]", values: "Sequence[object]"
    ) -> None:
        """:meth:`put` of every ``(key, value)`` pair in order, as one call.

        When every key is new and no key repeats, the per-key loop ends
        with the old entries followed by the new ones, less the oldest
        ``len + n - capacity`` — even when ``n`` exceeds the capacity —
        so one insert and one eviction pass give its state, stats and
        counters.  Any other input replays :meth:`put` key by key: a key
        already present can be evicted by an earlier put in the call and
        then re-inserted, which one pass would count differently.
        """
        if len(keys) != len(values):
            raise ValueError(
                f"put_many needs one value per key, got {len(keys)} keys "
                f"and {len(values)} values"
            )
        if self.capacity == 0:
            return
        entries = self._entries
        if entries.keys().isdisjoint(keys):
            before = len(entries)
            entries.update(zip(keys, values))
            if len(entries) - before == len(keys):
                excess = max(len(entries) - self.capacity, 0)
                for key in list(islice(entries, excess)):
                    del entries[key]
                self.stats.inserts += len(keys)
                self.stats.evictions += excess
                self._count("evictions", excess)
                return
            # A key repeats within the call.  Every key was new, so
            # dropping them restores the old entries exactly.
            for key in keys:
                entries.pop(key, None)
        for key, value in zip(keys, values):
            self.put(key, value)

    def _count(self, event: str, amount: int) -> None:
        """Add ``amount`` to a guarded counter; zero makes no counter."""
        if amount and _OBS.enabled:
            _OBS.counter(f"serve.cache.{self.name}.{event}").inc(float(amount))

    def clear(self) -> None:
        """Drop every entry (stats are preserved — they are a run log)."""
        self._entries.clear()

    def keys(self) -> list:
        """Keys from least- to most-recently used (for tests/inspection)."""
        return list(self._entries.keys())
