"""MatchService: coalescing, caching, read-only contract, offline parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import REGISTRY, collecting
from repro.serve import MatchService
from repro.text import Vocabulary


class TestConstruction:
    def test_requires_fitted_matcher(self, word_model, small_benchmark, built_index):
        from repro.er import DeepER

        unfitted = DeepER(word_model, small_benchmark.compare_columns, rng=0)
        with pytest.raises(RuntimeError):
            MatchService(unfitted, built_index)

    def test_requires_built_index(self, trained_matcher):
        from repro.serve import BlockingIndex

        index = BlockingIndex(trained_matcher.embedder, rng=0)
        with pytest.raises(RuntimeError, match="built"):
            MatchService(trained_matcher, index)

    def test_threshold_validated(self, trained_matcher, built_index):
        with pytest.raises(ValueError, match="threshold"):
            MatchService(trained_matcher, built_index, threshold=1.5)

    def test_construction_puts_matcher_in_eval(self, service):
        assert not service.matcher.classifier.training


class TestBatching:
    def test_empty_batch(self, service):
        report = service.match_batch([])
        assert report.answers == []
        assert report.predict_calls == 0

    def test_batch_coalesces_to_one_predict_call(self, service, query_records):
        """N queries ⇒ at most one predict_proba call, visible in metrics."""
        with collecting(reset=True):
            report = service.match_batch(query_records[:8])
            assert report.predict_calls == 1
            assert REGISTRY.counter("serve.predict_calls").value == 1
            assert REGISTRY.counter("serve.requests").value == 8
        assert len(report.answers) == 8
        assert report.scored_pairs > 0

    def test_match_one_equals_batch_of_one(self, service, query_records):
        record = query_records[0]
        one = service.match_one(dict(record))
        batch = service.match_batch([record]).answers[0]
        # Same semantic answer; only the cache provenance fields may differ
        # (the second call is warm by construction).
        assert one.to_dict() == batch.to_dict()

    def test_duplicate_queries_share_work(self, service, query_records):
        record = query_records[0]
        report = service.match_batch([record, dict(record), record])
        assert report.embedding_misses == 1
        first, second, third = report.answers
        assert first == second == third


class TestCaching:
    def test_warm_second_pass_skips_model(self, service, query_records):
        batch = query_records[:6]
        cold = service.match_batch(batch)
        warm = service.match_batch([dict(r) for r in batch])  # fresh dicts
        assert cold.predict_calls == 1
        assert warm.predict_calls == 0
        assert warm.scored_pairs == 0
        assert warm.embedding_misses == 0
        for a, b in zip(cold.answers, warm.answers):
            assert a.query_key == b.query_key
            assert a.best_id == b.best_id
            assert a.probability == b.probability
        assert all(a.embedding_cached for a in warm.answers)
        assert service.cache_stats.hits > 0

    def test_disabled_caches_give_identical_answers(
        self, trained_matcher, built_index, query_records
    ):
        cached = MatchService(trained_matcher, built_index, jobs=1)
        uncached = MatchService(
            trained_matcher, built_index, jobs=1,
            embedding_cache_size=0, score_cache_size=0,
        )
        batch = query_records[:10]
        with_cache = [a.to_dict() for a in cached.match_batch(batch).answers]
        without = [a.to_dict() for a in uncached.match_batch(batch).answers]
        assert with_cache == without
        # And the uncached service really re-scores on a second pass.
        assert uncached.match_batch(batch).predict_calls == 1

    def test_eviction_accounting(self, trained_matcher, built_index, query_records):
        tiny = MatchService(
            trained_matcher, built_index, jobs=1,
            embedding_cache_size=2, score_cache_size=2,
        )
        tiny.match_batch(query_records[:8])
        assert tiny.embedding_cache.stats.evictions > 0
        assert len(tiny.embedding_cache) <= 2
        assert len(tiny.score_cache) <= 2


class TestAnswers:
    def test_differential_serving_equals_offline(self, service, query_records):
        """The serving fast path must answer exactly like offline predict."""
        batch = query_records[:12]
        answers = service.match_batch(batch).answers
        compared = 0
        for record, answer in zip(batch, answers):
            embedding = service.index.embed_queries([record], jobs=1)[0]
            candidate_ids = service.index.candidates(embedding)
            assert tuple(candidate_ids) == answer.candidates
            if not candidate_ids:
                assert answer.best_id is None
                assert answer.probability == 0.0
                continue
            offline = service.matcher.predict_proba(
                [(record, service.index.record(c)) for c in candidate_ids]
            )
            scores = dict(zip(candidate_ids, offline))
            best = min(candidate_ids, key=lambda c: (-scores[c], c))
            assert answer.best_id == best
            assert answer.probability == float(scores[best])
            compared += 1
        assert compared >= 5, "too few queries had candidates to compare"

    def test_threshold_controls_matched_flag(self, trained_matcher, built_index,
                                             query_records):
        permissive = MatchService(trained_matcher, built_index, threshold=0.0, jobs=1)
        answers = permissive.match_batch(query_records[:10]).answers
        for answer in answers:
            if answer.best_id is not None:
                assert answer.matched  # every probability >= 0.0

    def test_answers_deterministic_across_services(
        self, trained_matcher, built_index, query_records
    ):
        batch = query_records[:10]
        first = MatchService(trained_matcher, built_index, jobs=1)
        second = MatchService(trained_matcher, built_index, jobs=1)
        a = [x.to_dict() for x in first.match_batch(batch).answers]
        b = [x.to_dict() for x in second.match_batch(batch).answers]
        assert a == b


class TestReadOnlyContract:
    def test_traffic_leaves_parameters_untouched(self, service, query_records):
        before = service.parameter_fingerprint()
        for start in range(0, 30, 6):
            service.match_batch(query_records[start:start + 6])
        assert service.parameter_fingerprint() == before

    def test_matcher_stays_in_eval_mode(self, service, query_records):
        service.match_batch(query_records[:6])
        assert not service.matcher.classifier.training


class TestEmbeddingCost:
    def test_match_batch_never_rescans_vocabulary_counts(
        self, service, query_records, monkeypatch
    ):
        """The SIF matcher's weights come from the vocabulary's probability
        table: serving never-seen records never calls ``frequencies``."""
        calls: list[Vocabulary] = []
        original = Vocabulary.frequencies

        def counting(vocabulary):
            calls.append(vocabulary)
            return original(vocabulary)

        monkeypatch.setattr(Vocabulary, "frequencies", counting)
        assert service.matcher.embedder.method == "sif"
        report = service.match_batch(query_records[:8])
        assert report.embedding_misses == 8
        assert report.scored_pairs > 0
        assert calls == []
