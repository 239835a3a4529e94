"""Differential + property tests for the hot-swap contract.

The contract under test (``MatchService.swap_matcher`` /
``ShardedMatchService.swap_matcher``, fault site ``serve.swap``):

* post-swap serving is **bit-identical** to the new matcher's offline
  ``predict_proba`` — at N=1 and at every sharded topology in the sweep;
* a same-fingerprint swap is a provable no-op: answers, cache contents
  and cache counters all unchanged;
* a real swap invalidates exactly the score tier — embedding and column
  caches (functions of the embedder config, not the classifier) survive;
* swapping an incompatible matcher (composition; an embedder whose word
  model, vector function or columns differ from the index's; unfitted)
  fails loudly before touching any state.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.er import DeepER
from repro.obs.metrics import REGISTRY, collecting
from repro.serve import MatchService, ShardedMatchService

SHARD_SWEEP = (1, 2, 4, 8)


def best_pair_probabilities(service, records, *, matcher, index):
    """Offline scores of each answer's best pair, aligned with serving."""
    answers = service.match_batch(records).answers
    checked = 0
    for record, answer in zip(records, answers):
        if answer.best_id is None:
            continue
        offline = matcher.predict_proba(
            [(record, index.record(c)) for c in answer.candidates]
        )
        scores = dict(zip(answer.candidates, offline))
        assert answer.probability == float(scores[answer.best_id])
        checked += 1
    return checked


class TestUnshardedSwap:
    def test_swap_rebinds_matcher_and_reports_its_fingerprint(
        self, service, candidate_matcher
    ):
        before = service.parameter_fingerprint()
        returned = service.swap_matcher(candidate_matcher)
        assert returned == candidate_matcher.parameter_fingerprint()
        assert returned != before
        assert service.parameter_fingerprint() == returned
        assert service.matcher is candidate_matcher

    def test_post_swap_serving_is_bit_identical_to_offline_predict(
        self, service, candidate_matcher, query_records
    ):
        service.match_batch(query_records[:12])  # warm caches pre-swap
        service.swap_matcher(candidate_matcher)
        checked = best_pair_probabilities(
            service, query_records[:16],
            matcher=candidate_matcher, index=service.index,
        )
        assert checked >= 5, "too few queries had candidates to compare"

    def test_swap_invalidates_scores_and_keeps_embeddings_and_columns(
        self, service, candidate_matcher, query_records
    ):
        service.match_batch(query_records[:12])
        embeddings, columns = len(service.embedding_cache), len(service.column_cache)
        assert len(service.score_cache) > 0 and embeddings > 0
        service.swap_matcher(candidate_matcher)
        assert len(service.score_cache) == 0
        assert len(service.embedding_cache) == embeddings
        assert len(service.column_cache) == columns

    def test_same_fingerprint_swap_is_a_noop_on_answers_and_caches(
        self, service, matcher_factory, seed_labels, query_records
    ):
        baseline = [a.to_dict() for a in service.match_batch(query_records[:12]).answers]
        cached_scores = len(service.score_cache)
        assert cached_scores > 0
        # A deterministic retrain of the same recipe: distinct object,
        # identical bytes — the swap must see through the object identity.
        clone = matcher_factory(0).fit(seed_labels, epochs=3)
        assert clone is not service.matcher
        with collecting(reset=True):
            returned = service.swap_matcher(clone)
            counters = REGISTRY.snapshot()["counters"]
        assert returned == service.parameter_fingerprint()
        assert service.matcher is not clone  # no rebind happened
        assert len(service.score_cache) == cached_scores
        assert counters.get("serve.swaps", 0.0) == 0.0
        again = [a.to_dict() for a in service.match_batch(query_records[:12]).answers]
        assert again == baseline

    def test_swap_counter_increments_only_on_fingerprint_change(
        self, service, candidate_matcher
    ):
        with collecting(reset=True):
            service.swap_matcher(candidate_matcher)
            service.swap_matcher(candidate_matcher)  # second call: same bytes
            counters = REGISTRY.snapshot()["counters"]
        assert counters["serve.swaps"] == 1.0

    def test_swap_puts_the_candidate_in_eval_mode_with_service_jobs(
        self, service, matcher_factory, train_triples
    ):
        candidate = matcher_factory(2).fit(train_triples[:60], epochs=2)
        candidate.jobs = 99
        service.swap_matcher(candidate)
        assert candidate.jobs == service.jobs
        assert not candidate.classifier.training


class TestSwapValidation:
    def test_unfitted_candidate_is_rejected(self, service, matcher_factory):
        with pytest.raises(RuntimeError, match="not fitted"):
            service.swap_matcher(matcher_factory(0))

    def test_column_mismatch_is_rejected(
        self, service, word_model, small_benchmark, train_triples
    ):
        narrow = DeepER(
            word_model, small_benchmark.compare_columns[:-1], composition="sif",
            rng=0,
        ).fit(train_triples[:40], epochs=1)
        with pytest.raises(ValueError, match="columns"):
            service.swap_matcher(narrow)

    def test_composition_mismatch_is_rejected(
        self, service, word_model, small_benchmark, train_triples
    ):
        averaged = DeepER(
            word_model, small_benchmark.compare_columns, composition="mean",
            rng=0,
        ).fit(train_triples[:40], epochs=1)
        with pytest.raises(ValueError, match="composition"):
            service.swap_matcher(averaged)

    def test_word_model_mismatch_is_rejected(
        self, service, word_model, small_benchmark, train_triples
    ):
        # An equal copy is still another word model: identity is pinned.
        other = DeepER(
            copy.copy(word_model), small_benchmark.compare_columns,
            composition="sif", rng=0,
        ).fit(train_triples[:40], epochs=1)
        with pytest.raises(ValueError, match="word model"):
            service.swap_matcher(other)

    def test_vector_function_mismatch_is_rejected(
        self, service, word_model, small_benchmark, train_triples
    ):
        backed_off = DeepER(
            word_model, small_benchmark.compare_columns, composition="sif",
            vector_fn=lambda token: np.zeros(word_model.dim), rng=0,
        ).fit(train_triples[:40], epochs=1)
        with pytest.raises(ValueError, match="vector function"):
            service.swap_matcher(backed_off)

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_rejected_embedder_leaves_answers_and_caches_untouched(
        self, n_shards, trained_matcher, built_index, word_model,
        small_benchmark, train_triples, query_records,
    ):
        service = (
            MatchService(trained_matcher, built_index, jobs=1) if n_shards is None
            else ShardedMatchService(trained_matcher, built_index, n_shards=n_shards)
        )
        baseline = [a.to_dict() for a in service.match_batch(query_records[:10]).answers]
        other = DeepER(
            copy.copy(word_model), small_benchmark.compare_columns,
            composition="sif", rng=1,
        ).fit(train_triples[:40], epochs=1)

        def caches():
            return [
                (cache.stats.to_dict(), cache.keys())
                for group in service.groups
                for cache in (group.primary.embedding_cache,
                              group.primary.score_cache,
                              group.primary.column_cache)
            ]

        before = caches()
        with pytest.raises(ValueError, match="word model"):
            service.swap_matcher(other)
        assert caches() == before
        assert service.matcher is trained_matcher
        again = [a.to_dict() for a in service.match_batch(query_records[:10]).answers]
        assert again == baseline

    def test_rejected_swap_leaves_the_service_untouched(
        self, service, matcher_factory, query_records
    ):
        service.match_batch(query_records[:8])
        fingerprint = service.parameter_fingerprint()
        scores = len(service.score_cache)
        with pytest.raises(RuntimeError):
            service.swap_matcher(matcher_factory(0))
        assert service.parameter_fingerprint() == fingerprint
        assert len(service.score_cache) == scores


class TestShardedSwap:
    @pytest.mark.parametrize("n_shards", SHARD_SWEEP)
    def test_post_swap_serving_matches_offline_at_every_topology(
        self, n_shards, trained_matcher, built_index, candidate_matcher,
        query_records,
    ):
        service = ShardedMatchService(
            trained_matcher, built_index, n_shards=n_shards, replicas=2
        )
        service.swap_matcher(candidate_matcher)
        checked = best_pair_probabilities(
            service, query_records[:16],
            matcher=candidate_matcher, index=built_index,
        )
        assert checked >= 5

    def test_swap_reaches_every_replica_of_every_group(
        self, trained_matcher, built_index, candidate_matcher
    ):
        service = ShardedMatchService(
            trained_matcher, built_index, n_shards=4, replicas=3
        )
        fingerprint = service.swap_matcher(candidate_matcher)
        for group in service._groups:
            for replica in group.replicas:
                assert replica.matcher is candidate_matcher
                assert replica.parameter_fingerprint() == fingerprint
        assert service.matcher is candidate_matcher

    def test_sharded_answers_equal_unsharded_answers_post_swap(
        self, trained_matcher, built_index, candidate_matcher, query_records
    ):
        batch = query_records[:20]
        unsharded = MatchService(candidate_matcher, built_index, jobs=1)
        expected = [a.to_dict() for a in unsharded.match_batch(batch).answers]
        for n_shards in (2, 4):
            sharded = ShardedMatchService(
                trained_matcher, built_index, n_shards=n_shards, replicas=2
            )
            sharded.swap_matcher(candidate_matcher)
            got = [a.to_dict() for a in sharded.match_batch(batch).answers]
            assert got == expected

    def test_sharded_same_fingerprint_swap_is_a_noop(
        self, trained_matcher, built_index, matcher_factory, seed_labels
    ):
        service = ShardedMatchService(
            trained_matcher, built_index, n_shards=2, replicas=2
        )
        clone = matcher_factory(0).fit(seed_labels, epochs=3)
        with collecting(reset=True):
            service.swap_matcher(clone)
            counters = REGISTRY.snapshot()["counters"]
        assert counters.get("serve.swaps", 0.0) == 0.0
        assert service.matcher is trained_matcher

    def test_sharded_swap_validates_before_touching_any_group(
        self, trained_matcher, built_index, matcher_factory
    ):
        service = ShardedMatchService(
            trained_matcher, built_index, n_shards=2, replicas=2
        )
        with pytest.raises(RuntimeError, match="not fitted"):
            service.swap_matcher(matcher_factory(5))
        assert service.matcher is trained_matcher
