"""Shard invariance: scatter-gather answers never depend on topology.

The differential tier for :class:`repro.serve.shard.ShardedMatchService`:
for every shard count the sharded service must agree byte-for-byte with
the unsharded :class:`MatchService` and with a direct offline
``predict_proba`` over the same candidates — including the degenerate
batches (empty, duplicate tuple ids, a batch routed entirely to one
shard) and the serving loop reference
(:func:`repro.kernels.reference.loop_match_batch`).  An ownership class
pins that scoring takes each pair's shard from the consult stage and
never re-hashes a tuple id.  A metrics class pins the home-shard routing
contract:
each shard's scoped ``serve.cache.shard<i>.*`` counters *sum* to the
unsharded totals, because every cache consult happens exactly once
somewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.reference import loop_match_batch
from repro.obs.metrics import REGISTRY, collecting
from repro.serve import shard as shard_module
from repro.serve import (
    MatchService,
    ShardedMatchService,
    shard_of_id,
    shard_of_key,
)
from repro.serve.cache import content_key

SHARD_COUNTS = (1, 2, 4, 8)


def answers_dicts(service, batch):
    return [a.to_dict() for a in service.match_batch(batch).answers]


@pytest.fixture(scope="module")
def unsharded(trained_matcher, built_index):
    return MatchService(trained_matcher, built_index, jobs=1)


@pytest.fixture(scope="module")
def baseline_answers(unsharded, query_records):
    return answers_dicts(unsharded, query_records)


class TestRouting:
    def test_shard_of_key_is_stable_arithmetic(self):
        key = content_key({"id": "a1", "name": "x"})
        assert shard_of_key(key, 4) == int(key[:16], 16) % 4
        # Single-shard routing is total.
        assert shard_of_key(key, 1) == 0

    def test_shard_of_id_partitions_the_reference_table(self, built_index):
        for n_shards in SHARD_COUNTS:
            assignment = [shard_of_id(i, n_shards) for i in built_index.ids]
            assert all(0 <= s < n_shards for s in assignment)
            # Deterministic: recomputing routes identically.
            assert assignment == [shard_of_id(i, n_shards) for i in built_index.ids]

    def test_shard_views_partition_candidates(
        self, trained_matcher, built_index, query_records
    ):
        """Every shard's candidate set is the global set ∩ its members —
        the property that makes the sorted-union merge exact."""
        service = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=1
        )
        embeddings = built_index.embed_queries(query_records[:10])
        for record, embedding in zip(query_records[:10], embeddings):
            global_candidates = built_index.candidates(built_index.band_keys(embedding))
            gathered = []
            for group in service.groups:
                local = group.primary.index.candidates(
                    group.primary.index.band_keys(embedding)
                )
                members = set(group.primary.index.ids)
                assert set(local) == set(global_candidates) & members
                gathered.extend(local)
            assert sorted(gathered) == global_candidates


class TestShardInvariance:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_equals_unsharded(
        self, n_shards, trained_matcher, built_index, query_records,
        baseline_answers,
    ):
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2
        )
        assert sum(sharded.shard_sizes()) == len(built_index)
        report = sharded.match_batch(query_records)
        assert [a.to_dict() for a in report.answers] == baseline_answers
        # The work accounting aggregates to the unsharded totals too.
        unsharded_report = MatchService(
            trained_matcher, built_index, jobs=1
        ).match_batch(query_records)
        assert report.scored_pairs == unsharded_report.scored_pairs
        assert report.embedding_misses == unsharded_report.embedding_misses
        assert sum(w.scored_pairs for w in report.shards) == report.scored_pairs
        assert sum(w.embedding_misses for w in report.shards) == report.embedding_misses

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_equals_offline_predict_proba(
        self, n_shards, trained_matcher, built_index, query_records
    ):
        """Online scatter-gather == direct offline scoring of the same
        (query, candidate) pairs — the end-to-end differential bar."""
        batch = query_records[:8]
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2
        )
        for record, answer in zip(batch, sharded.match_batch(batch).answers):
            embedding = built_index.embed_queries([record])[0]
            candidates = built_index.candidates(built_index.band_keys(embedding))
            assert list(answer.candidates) == candidates
            if not candidates:
                assert answer.best_id is None
                continue
            probabilities = trained_matcher.predict_proba(
                [(record, built_index.record(c)) for c in candidates]
            )
            scores = dict(zip(candidates, (float(p) for p in probabilities)))
            best = min(candidates, key=lambda c: (-scores[c], c))
            assert answer.best_id == best
            assert answer.probability == scores[best]

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_loop_scoring_equals_unsharded_loop_and_kernel(
        self, n_shards, trained_matcher, built_index, query_records,
        baseline_answers,
    ):
        """Sharded serving is bit-equal to the serving loop reference (one
        ``predict_proba`` call over the cold batch) and to the unsharded
        service."""
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2,
        )
        report = sharded.match_batch(query_records)
        loop_answers, loop_pairs = loop_match_batch(
            trained_matcher, built_index, query_records
        )
        assert report.scored_pairs == loop_pairs
        answers = [a.to_dict() for a in report.answers]
        assert answers == loop_answers
        assert answers == baseline_answers

    def test_empty_batch(self, trained_matcher, built_index):
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=2
        )
        report = sharded.match_batch([])
        assert report.answers == []
        assert report.scored_pairs == 0
        assert report.shards == ()
        assert report.failovers == 0

    def test_duplicate_tuple_ids_in_batch(
        self, trained_matcher, built_index, query_records
    ):
        batch = [query_records[0], query_records[1], query_records[0],
                 query_records[0]]
        # Cold baseline: cache warmth changes the scoring batch shape (and
        # with it the last ulp), so the differential pairs fresh services.
        expected = answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=2
        )
        report = sharded.match_batch(batch)
        assert [a.to_dict() for a in report.answers] == expected
        # Duplicates collapse to one unit of work, exactly as unsharded.
        assert report.embedding_misses == 2

    def test_batch_routed_entirely_to_one_shard(
        self, trained_matcher, built_index, query_records
    ):
        """A batch whose every key homes on one shard still answers over
        the *whole* reference table (candidates come from every shard)."""
        n_shards = 4
        by_home: dict[int, list[dict]] = {}
        for record in query_records:
            home = shard_of_key(content_key(record), n_shards)
            by_home.setdefault(home, []).append(record)
        home, batch = max(by_home.items(), key=lambda kv: len(kv[1]))
        assert len(batch) >= 2
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2
        )
        report = sharded.match_batch(batch)
        assert [a.to_dict() for a in report.answers] == answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        # Embedding work happened only on the single home shard...
        for work in report.shards:
            if work.shard != home:
                assert work.embedding_misses == 0
        # ...but candidates were gathered across shards.
        all_candidates = {c for a in report.answers for c in a.candidates}
        owning = {shard_of_id(c, n_shards) for c in all_candidates}
        assert len(owning) > 1

    def test_repeat_traffic_stays_invariant_with_warm_caches(
        self, trained_matcher, built_index, query_records, unsharded
    ):
        """Cache warmth is topology-invariant too: replaying the same
        stream twice gives identical answers sharded and unsharded."""
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=2
        )
        fresh = MatchService(trained_matcher, built_index, jobs=1)
        stream = query_records[:6] + query_records[:6]
        for batch in (stream[:4], stream[4:8], stream[8:]):
            assert answers_dicts(sharded, batch) == answers_dicts(fresh, batch)

    def test_parameter_fingerprint_unmoved_by_sharded_traffic(
        self, trained_matcher, built_index, query_records
    ):
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=2
        )
        before = sharded.parameter_fingerprint()
        sharded.match_batch(query_records)
        assert sharded.parameter_fingerprint() == before


class TestConsultStageOwnership:
    """The shard whose view returned a candidate owns that pair: scoring
    gathers its reference side from, and caches its score on, that shard.
    ``shard_of_id`` runs only at construction, to partition the table."""

    # The id names the scorer, ``kernel``.
    @pytest.mark.parametrize("n_shards", [4], ids=["kernel"])
    def test_match_batch_never_rehashes_reference_ids(
        self, n_shards, trained_matcher, built_index, query_records,
        monkeypatch,
    ):
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2,
        )
        calls: list[str] = []

        def counting(reference_id, n_shards):
            calls.append(reference_id)
            return shard_of_id(reference_id, n_shards)

        monkeypatch.setattr(shard_module, "shard_of_id", counting)
        report = sharded.match_batch(query_records[:8])
        assert report.scored_pairs > 0
        assert calls == []

    @pytest.mark.parametrize("n_shards", (2, 4, 8))
    def test_scores_cached_on_the_owning_shard(
        self, n_shards, trained_matcher, built_index, query_records
    ):
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2
        )
        report = sharded.match_batch(query_records)
        cached = 0
        for shard_id, group in enumerate(sharded.groups):
            for _key, candidate_id in group.primary.score_cache.keys():
                assert shard_of_id(candidate_id, n_shards) == shard_id
                cached += 1
        assert cached == report.scored_pairs > 0


class TestPerShardCacheMetrics:
    def _cache_totals(self, snapshot: dict, sharded: bool) -> dict:
        """Sum serve.cache.* counters, folding shard scopes together."""
        totals: dict[tuple[str, str], float] = {}
        for name, value in snapshot["counters"].items():
            if not name.startswith("serve.cache."):
                continue
            parts = name[len("serve.cache."):].split(".")
            scoped = parts[0].startswith("shard") and parts[0][5:].isdigit()
            if scoped != sharded:
                continue
            if scoped:
                parts = parts[1:]
            totals[(parts[0], parts[1])] = (
                totals.get((parts[0], parts[1]), 0.0) + value
            )
        return totals

    def test_per_shard_cache_counters_sum_to_unsharded_totals(
        self, trained_matcher, built_index, query_records
    ):
        """The satellite fix pinned down: every shard owns its own cache
        instances under a ``shard<i>.`` metric scope (no cross-shard
        conflation), and home-shard routing makes the scoped counters sum
        exactly to what one unsharded service would have counted."""
        stream = query_records + query_records[:7]
        with collecting(reset=True):
            service = MatchService(trained_matcher, built_index, jobs=1)
            for start in range(0, len(stream), 5):
                service.match_batch(stream[start:start + 5])
            unsharded_snapshot = REGISTRY.snapshot()
        with collecting(reset=True):
            sharded = ShardedMatchService(
                trained_matcher, built_index, n_shards=4, replicas=2
            )
            for start in range(0, len(stream), 5):
                sharded.match_batch(stream[start:start + 5])
            sharded_snapshot = REGISTRY.snapshot()
        unsharded_totals = self._cache_totals(unsharded_snapshot, sharded=False)
        sharded_totals = self._cache_totals(sharded_snapshot, sharded=True)
        assert unsharded_totals
        assert sharded_totals == unsharded_totals
        # And the shard scopes are genuinely distinct instruments.
        scopes = {
            name.split(".")[2]
            for name in sharded_snapshot["counters"]
            if name.startswith("serve.cache.shard")
        }
        assert len(scopes) > 1

    def test_cache_instances_are_per_shard_not_shared(
        self, trained_matcher, built_index
    ):
        """The regression this PR fixes: shards built from one config must
        not share LRUCache instances (shared stats conflated every
        shard's hit accounting into one stream)."""
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=2
        )
        embedding_caches = [g.primary.embedding_cache for g in sharded.groups]
        assert len({id(c) for c in embedding_caches}) == len(embedding_caches)
        names = {c.name for c in embedding_caches}
        assert names == {f"shard{i}.embedding" for i in range(4)}
        # Replicas of one shard DO share their tier (failover invisibility).
        for group in sharded.groups:
            for replica in group.replicas[1:]:
                assert replica.embedding_cache is group.primary.embedding_cache
                assert replica.score_cache is group.primary.score_cache
                assert replica.column_cache is group.primary.column_cache

    def test_aggregate_cache_stats_match_unsharded_definition(
        self, trained_matcher, built_index, query_records
    ):
        service = MatchService(trained_matcher, built_index, jobs=1)
        sharded = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=2
        )
        for batch in (query_records[:5], query_records[:5]):
            service.match_batch(batch)
            sharded.match_batch(batch)
        assert sharded.cache_stats.hits == service.cache_stats.hits
        assert sharded.cache_stats.misses == service.cache_stats.misses
        assert sharded.cache_stats.hit_rate == service.cache_stats.hit_rate


class TestConstruction:
    def test_invalid_shard_and_replica_counts_rejected(
        self, trained_matcher, built_index
    ):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedMatchService(trained_matcher, built_index, n_shards=0)
        with pytest.raises(ValueError, match="replicas"):
            ShardedMatchService(
                trained_matcher, built_index, n_shards=2, replicas=0
            )
        # Fractions and bools used to be truncated: 2.5 built 2 shards,
        # True and 1.9 one replica.
        for bad in (2.5, True, float("nan")):
            with pytest.raises(ValueError, match="n_shards must be an integer"):
                ShardedMatchService(trained_matcher, built_index, n_shards=bad)
        for bad in (True, 1.9):
            with pytest.raises(ValueError, match="replicas must be an integer"):
                ShardedMatchService(
                    trained_matcher, built_index, n_shards=2, replicas=bad
                )
        with pytest.raises(ValueError, match="jobs must be an integer"):
            ShardedMatchService(trained_matcher, built_index, n_shards=2, jobs=1.5)

    def test_shard_view_requires_known_ids(self, built_index):
        with pytest.raises(KeyError):
            built_index.shard_view(["definitely-not-an-id"])

    def test_shard_view_refuses_repeated_members(self, built_index):
        first, second = built_index.ids[:2]
        with pytest.raises(ValueError, match=f"duplicate reference id '{first}'"):
            built_index.shard_view([first, second, second, first])

    def test_shard_view_shares_frozen_blocker(self, built_index):
        view = built_index.shard_view(built_index.ids[:3])
        assert view.blocker is built_index.blocker
        assert len(view) == 3
        assert view.column_store.dtype == np.float64
        assert not view.column_store.flags.writeable
        np.testing.assert_array_equal(
            view.column_rows(built_index.ids[:3]),
            built_index.column_rows(built_index.ids[:3]),
        )
