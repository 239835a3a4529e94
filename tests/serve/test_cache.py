"""Content-addressed LRU cache: accounting, eviction order, key stability."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.obs import REGISTRY, collecting
from repro.serve import CacheStats, CacheStatsView, LRUCache, MISSING, content_key


class TestContentKey:
    def test_key_ignores_dict_order(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_key_distinguishes_content(self):
        assert content_key({"a": 1}) != content_key({"a": 2})
        assert content_key({"a": 1}) != content_key({"b": 1})

    def test_key_is_identity_free(self):
        record = {"title": "deep er", "year": 2018}
        assert content_key(dict(record)) == content_key(record)

    def test_key_handles_non_json_values(self):
        # numpy scalars / arbitrary objects stringify instead of crashing.
        import numpy as np

        assert content_key({"n": np.int64(3)}) == content_key({"n": np.int64(3)})

    def test_pair_keys_usable(self):
        # Score-cache keys are (query_key, candidate_id) tuples.
        cache = LRUCache(4)
        cache.put(("q", "c1"), 0.5)
        assert cache.get(("q", "c1")) == 0.5


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(2)
        assert cache.get("k") is MISSING
        cache.put("k", 41)
        assert cache.get("k") == 41
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_cached_none_is_not_a_miss(self):
        cache = LRUCache(2)
        cache.put("k", None)
        assert cache.get("k") is None

    def test_eviction_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # freshen "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put freshens
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 10

    def test_keys_in_recency_order(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ["b", "a"]

    def test_capacity_zero_stores_nothing(self):
        cache = LRUCache(0)
        cache.put("k", 1)
        assert cache.get("k") is MISSING
        assert len(cache) == 0
        assert cache.stats.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(-1)
        # Fractions and bools used to be truncated (2.5 held 2 entries,
        # True one) and NaN failed inside int().
        for bad in (2.5, True, float("nan"), "4"):
            with pytest.raises(ValueError, match="capacity must be an integer"):
                LRUCache(bad)

    def test_peek_has_no_side_effects(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        before = (cache.stats.hits, cache.stats.misses, cache.keys())
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is MISSING
        assert (cache.stats.hits, cache.stats.misses, cache.keys()) == before

    def test_clear_keeps_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.stats.inserts == 1

    def test_guarded_metrics_when_collecting(self):
        from repro.obs import REGISTRY, collecting

        with collecting(reset=True):
            cache = LRUCache(1, name="probe")
            cache.get("x")
            cache.put("x", 1)
            cache.get("x")
            cache.put("y", 2)  # evicts x
            assert REGISTRY.counter("serve.cache.probe.misses").value == 1
            assert REGISTRY.counter("serve.cache.probe.hits").value == 1
            assert REGISTRY.counter("serve.cache.probe.evictions").value == 1


def cache_counters(name: str) -> dict:
    """The ``serve.cache.<name>.*`` counters that exist, by event."""
    prefix = f"serve.cache.{name}."
    return {
        key[len(prefix):]: value
        for key, value in REGISTRY.snapshot()["counters"].items()
        if key.startswith(prefix)
    }


class TestBatchCalls:
    """``get_many``/``put_many`` against the per-key loop, by example."""

    def test_get_many_values_and_recency(self):
        cache = LRUCache(4)
        cache.put_many(["a", "b", "c"], [1, 2, 3])
        assert cache.get_many(["c", "x", "a", "c"]) == [3, MISSING, 1, 3]
        # Hits move to the end in lookup order; a repeat moves again.
        assert cache.keys() == ["b", "a", "c"]
        assert (cache.stats.hits, cache.stats.misses) == (3, 1)

    def test_put_many_of_new_keys_evicts_the_oldest(self):
        cache = LRUCache(3)
        cache.put_many(["a", "b"], [1, 2])
        cache.put_many(["c", "d", "e"], [3, 4, 5])
        assert cache.keys() == ["c", "d", "e"]
        assert (cache.stats.inserts, cache.stats.evictions) == (5, 2)

    def test_put_many_larger_than_the_capacity(self):
        cache = LRUCache(2)
        cache.put("a", 0)
        cache.put_many(["b", "c", "d", "e"], [1, 2, 3, 4])
        assert cache.keys() == ["d", "e"]
        assert [cache.peek(k) for k in cache.keys()] == [3, 4]
        assert cache.stats.evictions == 3

    def test_present_key_is_evicted_before_it_is_reinserted(self):
        # Per key: C evicts A, then A is new again and evicts B — two
        # evictions, where inserting both before evicting would make one.
        cache = LRUCache(2)
        cache.put_many(["A", "B"], [1, 2])
        cache.put_many(["C", "A"], [3, 4])
        assert cache.keys() == ["C", "A"]
        assert cache.peek("A") == 4
        assert cache.stats.evictions == 2

    def test_repeated_new_key_keeps_the_per_key_order(self):
        cache = LRUCache(3)
        cache.put("z", 0)
        cache.put_many(["a", "b", "a"], [1, 2, 3])
        assert cache.keys() == ["z", "b", "a"]
        assert cache.peek("a") == 3
        assert cache.stats.inserts == 4

    def test_capacity_zero_stores_nothing(self):
        cache = LRUCache(0)
        cache.put_many(["a", "b"], [1, 2])
        assert cache.get_many(["a", "b"]) == [MISSING, MISSING]
        assert len(cache) == 0
        assert (cache.stats.inserts, cache.stats.misses) == (0, 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one value per key"):
            LRUCache(2).put_many(["a", "b"], [1])

    def test_zero_amounts_make_no_counter(self):
        with collecting(reset=True):
            cache = LRUCache(4, name="probe")
            cache.get_many([])
            cache.put_many(["a"], [1])
            assert cache_counters("probe") == {}
            cache.get_many(["a", "a"])
            assert cache_counters("probe") == {"hits": 2.0}


KEYS = st.sampled_from("abcde")


class BatchTwinMachine(RuleBasedStateMachine):
    """One cache takes batch calls, its twin the same keys one at a time.

    Keys come from five letters, so hits, present keys, repeats within a
    call and calls longer than the capacity (0–6) all occur.
    """

    @initialize(capacity=st.integers(0, 6))
    def build(self, capacity):
        REGISTRY.reset()
        self.batch = LRUCache(capacity, name="batch")
        self.twin = LRUCache(capacity, name="twin")
        self.values = 0

    def fresh_values(self, n):
        self.values += n
        return list(range(self.values - n, self.values))

    @rule(key=KEYS)
    def get(self, key):
        assert self.batch.get(key) == self.twin.get(key)

    @rule(key=KEYS)
    def put(self, key):
        (value,) = self.fresh_values(1)
        self.batch.put(key, value)
        self.twin.put(key, value)

    @rule(keys=st.lists(KEYS, max_size=8))
    def get_many(self, keys):
        assert self.batch.get_many(keys) == [self.twin.get(key) for key in keys]

    @rule(keys=st.lists(KEYS, max_size=8))
    def put_many(self, keys):
        values = self.fresh_values(len(keys))
        self.batch.put_many(keys, values)
        for key, value in zip(keys, values):
            self.twin.put(key, value)

    @rule(key=KEYS)
    def peek(self, key):
        assert self.batch.peek(key) == self.twin.peek(key)

    @rule()
    def clear(self):
        self.batch.clear()
        self.twin.clear()

    @invariant()
    def same_state(self):
        assert self.batch.keys() == self.twin.keys()
        assert [self.batch.peek(k) for k in self.batch.keys()] == [
            self.twin.peek(k) for k in self.twin.keys()
        ]
        assert self.batch.stats == self.twin.stats
        assert cache_counters("batch") == cache_counters("twin")


def test_batch_calls_equal_the_per_key_loop():
    with collecting(reset=True):
        run_state_machine_as_test(
            BatchTwinMachine,
            settings=settings(max_examples=200, stateful_step_count=20, deadline=None),
        )


class TestStats:
    def test_hit_rate_zero_before_lookups(self):
        assert CacheStats().hit_rate == 0.0

    def test_view_sums_caches(self):
        a = CacheStats(hits=3, misses=1, evictions=2)
        b = CacheStats(hits=1, misses=3, evictions=0)
        view = CacheStatsView(a, b)
        assert view.hits == 4
        assert view.misses == 4
        assert view.evictions == 2
        assert view.hit_rate == 0.5

    def test_view_empty(self):
        assert CacheStatsView().hit_rate == 0.0
