"""MatchService: coalescing, caching, read-only contract, offline parity."""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.embeddings.compose as compose
import repro.serve.service as service_module
from repro.data.types import is_missing
from repro.embeddings import TupleEmbedder
from repro.er import DeepER
from repro.obs import REGISTRY, collecting, drain_roots
from repro.serve import BlockingIndex, MatchService, ShardedMatchService
from repro.serve.cache import LRUCache, MISSING, content_key
from repro.serve.shard import shard_of_id, shard_of_key
from repro.text import Vocabulary, word_tokenize


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

    @pytest.mark.parametrize("name,bad", [
        ("embedding_cache_size", 10.7),
        ("embedding_cache_size", -1),
        ("score_cache_size", 10.7),
        ("score_cache_size", True),
        ("jobs", 1.5),
        ("jobs", 0),
    ])
    def test_sizes_and_jobs_must_be_integers(self, trained_matcher, built_index, name, bad):
        """A fractional size used to be truncated (10.7 held 10 scores)."""
        with pytest.raises(ValueError, match=name):
            MatchService(trained_matcher, built_index, **{name: bad})

    @pytest.mark.parametrize("composition", ["lstm", "cnn"])
    @pytest.mark.parametrize("build", [
        lambda matcher, index: MatchService(matcher, index, jobs=1),
        lambda matcher, index: ShardedMatchService(matcher, index, n_shards=2),
    ], ids=["unsharded", "sharded"])
    def test_trainable_composers_rejected(
        self, word_model, small_benchmark, built_index, composition, build
    ):
        """The kernel scorer reads column stacks, which a trainable
        composer's pair representation is not made of."""
        labeled = small_benchmark.labeled_pairs(negative_ratio=1, rng=1)[:8]
        matcher = DeepER(
            word_model, small_benchmark.compare_columns,
            composition=composition, max_tokens=4, rng=0,
        ).fit([
            (small_benchmark.record_a(a), small_benchmark.record_b(b), y)
            for a, b, y in labeled
        ], epochs=1)
        with pytest.raises(ValueError, match=f"composition '{composition}'"):
            build(matcher, built_index)

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
            embedding = service.index.embed_queries([record])[0]
            candidate_ids = service.index.candidates(service.index.band_keys(embedding))
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

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_one_token_pass_per_never_seen_record(
        self, trained_matcher, built_index, query_records, monkeypatch, n_shards
    ):
        """Counted, not timed: one batch tokenises each never-seen record
        once (one ``word_tokenize`` call per non-missing column) for both
        its tuple vector and its column stack; a warm batch tokenises
        nothing."""
        calls: list[str] = []

        def counting(text, *args, **kwargs):
            calls.append(text)
            return word_tokenize(text, *args, **kwargs)

        monkeypatch.setattr(compose, "word_tokenize", counting)
        service = (
            MatchService(trained_matcher, built_index, jobs=1) if n_shards is None
            else ShardedMatchService(trained_matcher, built_index, n_shards=n_shards)
        )
        batch = query_records[:8]
        columns = trained_matcher.embedder.columns
        assert len({content_key(r) for r in batch}) == 8
        report = service.match_batch(batch)
        assert report.embedding_misses == 8 and report.scored_pairs > 0
        assert len(calls) == sum(
            not is_missing(record.get(c)) for record in batch for c in columns
        )
        calls.clear()
        service.match_batch(batch)
        assert calls == []


class TestEmbedderPin:
    """The matcher's embedder must equal the index's — it makes the
    query column stacks the classifier reads and the cached vectors."""

    @pytest.fixture(scope="class")
    def records(self, reference_records):
        records, ids = reference_records
        return records[:12], ids[:12]

    def index_over(self, embedder, records):
        return BlockingIndex(embedder, n_bits=16, n_bands=4, rng=0).build(*records)

    # One embedder setting changed from the matcher's, by name.
    VARIANTS = {
        "word model": lambda e: {"model": copy.copy(e.model)},
        "vector function": lambda e: {"vector_fn": lambda token: np.ones(e.dim)},
        "columns": lambda e: {"columns": e.columns[:-1]},
        "method": lambda e: {"method": "mean"},
    }

    @pytest.mark.parametrize("setting", list(VARIANTS))
    def test_construction_rejects_a_different_embedder(
        self, trained_matcher, records, setting
    ):
        embedder = trained_matcher.embedder
        index = self.index_over(TupleEmbedder(**{
            "model": embedder.model, "columns": embedder.columns,
            "method": embedder.method, **self.VARIANTS[setting](embedder),
        }), records)
        with pytest.raises(ValueError, match=setting):
            MatchService(trained_matcher, index, jobs=1)

    def test_default_lookups_on_both_sides_count_as_equal(
        self, trained_matcher, records, query_records
    ):
        embedder = trained_matcher.embedder
        twin = TupleEmbedder(embedder.model, embedder.columns, method=embedder.method)
        assert twin.vector_fn is None and embedder.vector_fn is None
        index = self.index_over(twin, records)
        shared = self.index_over(embedder, records)
        got = MatchService(trained_matcher, index, jobs=1).match_batch(query_records[:6])
        want = MatchService(trained_matcher, shared, jobs=1).match_batch(query_records[:6])
        assert [a.to_dict() for a in got.answers] == [a.to_dict() for a in want.answers]

    def test_a_shared_vector_function_counts_as_equal(self, word_model):
        vector = word_model.vector
        one = TupleEmbedder(word_model, ["a"], vector_fn=vector)
        other = TupleEmbedder(word_model, ["a"], vector_fn=word_model.vector)
        assert one.vector_fn == other.vector_fn


class TestCacheCounters:
    """One token pass per record moved work between stages, not cache
    traffic: over a fixed sequence with repeats, a swap and capacity-2
    embedding/column caches, every tier's counters equal the ones the
    two-pass pipeline recorded (measured on it and pinned here)."""

    # Indices into the query records; the swap comes after the sixth batch.
    SEQUENCE = [[1, 0, 1, 2], [2, 0, 2, 3], [4, 5, 1, 5], [3], [1, 3], [3, 1],
                [4], [4, 4], [2, 1, 3, 5], [5, 4, 2, 2], [1], [2, 3]]
    # (hits, misses, inserts, evictions) per tier, summed over shards.
    EXPECTED = {
        None: {"embedding": (10, 16, 16, 14), "score": (207, 383, 383, 255),
               "column": (1, 16, 16, 14)},
        2: {"embedding": (11, 15, 15, 12), "score": (344, 246, 246, 6),
            "column": (3, 8, 8, 5)},
    }

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_counters_equal_the_two_pass_pipeline(
        self, n_shards, trained_matcher, built_index, small_benchmark,
        query_records, monkeypatch,
    ):
        sizes = {"embedding_cache_size": 2, "score_cache_size": 64}
        service = (
            MatchService(trained_matcher, built_index, jobs=1, **sizes)
            if n_shards is None
            else ShardedMatchService(
                trained_matcher, built_index, n_shards=n_shards, **sizes
            )
        )
        labeled = small_benchmark.labeled_pairs(negative_ratio=3, rng=1)[:60]
        candidate = DeepER(
            trained_matcher.embedder.model, small_benchmark.compare_columns,
            composition="sif", rng=1,
        ).fit([
            (small_benchmark.record_a(a), small_benchmark.record_b(b), y)
            for a, b, y in labeled
        ], epochs=1)
        # The sequence reaches the column stage's fallback: an embedding
        # hit whose column entry was evicted.
        fallbacks = []
        compose_stack = service_module.unique_column_stack
        monkeypatch.setattr(
            service_module, "unique_column_stack",
            lambda *a, **k: fallbacks.append(1) or compose_stack(*a, **k),
        )
        for position, batch in enumerate(self.SEQUENCE):
            if position == 6:
                service.swap_matcher(candidate)
            service.match_batch([query_records[i] for i in batch])
        got = {
            tier: tuple(
                sum(getattr(getattr(g.primary, f"{tier}_cache").stats, field)
                    for g in service.groups)
                for field in ("hits", "misses", "inserts", "evictions")
            )
            for tier in ("embedding", "score", "column")
        }
        assert got == self.EXPECTED[n_shards]
        assert fallbacks


def serving(trained_matcher, built_index, n_shards, **kwargs):
    """The unsharded service (``n_shards=None``) or N shards x 2 replicas."""
    if n_shards is None:
        return MatchService(trained_matcher, built_index, jobs=1, **kwargs)
    return ShardedMatchService(
        trained_matcher, built_index, n_shards=n_shards, jobs=1, **kwargs
    )


class TestColumnFallbackJobs:
    """``jobs`` reaches serving only through :meth:`resolve_columns`'
    fallback: a key that hits its embedding tier but lost its column
    entry.  On such a batch, ``jobs=2`` must equal ``jobs=1`` byte for
    byte, unsharded and sharded."""

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_jobs_two_equals_jobs_one(
        self, trained_matcher, built_index, query_records, monkeypatch, n_shards
    ):
        batch = query_records[:10] + query_records[:3]
        fallback_sizes = []
        compose_stack = service_module.unique_column_stack
        monkeypatch.setattr(
            service_module, "unique_column_stack",
            lambda records, *a, **k: fallback_sizes.append(len(records))
            or compose_stack(records, *a, **k),
        )

        def run(jobs):
            service = (
                MatchService(trained_matcher, built_index, jobs=jobs) if n_shards is None
                else ShardedMatchService(
                    trained_matcher, built_index, n_shards=n_shards, jobs=jobs
                )
            )
            service.match_batch(batch)
            for group in service.groups:
                group.primary.column_cache.clear()
                group.primary.score_cache.clear()
            fallback_sizes.clear()
            drain_roots()
            report = service.match_batch(batch)
            modes = [root.meta["mode"] for root in drain_roots() if root.name == "par.map"]
            columns = [
                (key, cache.get(key).tobytes())
                for cache in (group.primary.column_cache for group in service.groups)
                for key in cache.keys()
            ]
            return report, columns, list(fallback_sizes), modes

        serial = run(1)
        parallel = run(2)
        assert sum(serial[2]) == 10 and serial[2] == parallel[2]
        assert serial[3] == ["serial:jobs"] * len(serial[2])
        assert "parallel" in parallel[3]
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]


class TestScoreCacheCalls:
    """Counted, not timed: the score tier is read once per shard and
    written once per owning shard per batch, never key by key."""

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_one_get_many_per_shard_one_put_many_per_owner(
        self, trained_matcher, built_index, query_records, monkeypatch, n_shards
    ):
        calls: list[tuple[str, str]] = []
        for method in ("get", "put", "get_many", "put_many"):
            original = getattr(LRUCache, method)

            def counting(cache, *args, _method=method, _original=original):
                calls.append((_method, cache.name))
                return _original(cache, *args)

            monkeypatch.setattr(LRUCache, method, counting)
        service = serving(trained_matcher, built_index, n_shards)
        tiers = [group.primary.score_cache.name for group in service.groups]
        batch = query_records[:8]
        assert len({content_key(r) for r in batch}) == 8

        def score_calls():
            made = [(method, name) for method, name in calls if name in tiers]
            calls.clear()
            return sorted(made)

        report = service.match_batch(batch)
        assert report.embedding_misses == 8 and report.scored_pairs > 0
        owners = (
            tiers if n_shards is None
            else [tiers[work.shard] for work in report.shards if work.scored_pairs]
        )
        assert len(owners) == len(tiers)
        assert score_calls() == sorted(
            [("get_many", name) for name in tiers]
            + [("put_many", name) for name in owners]
        )
        warm = service.match_batch(batch)
        assert warm.scored_pairs == 0
        assert score_calls() == sorted(("get_many", name) for name in tiers)


def constant_scores(monkeypatch, value=0.5):
    """Every pair the service scores gets ``value``."""
    monkeypatch.setattr(
        service_module, "score_pairs",
        lambda classifier, query_side, reference_side: np.full(len(query_side), value),
    )


class TestTies:
    """Equal scores break to the smallest candidate id in every topology.

    Scores are patched to one constant: equal rows can differ in their
    last bit across GEMM row blocks, so natural ties cannot be built
    reliably.
    """

    # Ids end in the scorer's name, ``kernel``.
    @pytest.mark.parametrize("n_shards", [None, 1, 2, 4], ids="{}-kernel".format)
    def test_ties_break_to_the_smallest_id(
        self, trained_matcher, built_index, query_records, monkeypatch, n_shards,
    ):
        constant_scores(monkeypatch)
        # A small score tier evicts between batches, so the second batch
        # mixes fresh keys, fully cached keys and partly cached keys.
        service = serving(
            trained_matcher, built_index, n_shards, score_cache_size=40,
        )
        answers = []
        for batch in (query_records[:6], query_records[3:12], query_records[:12]):
            answers += service.match_batch(batch).answers
        tied = [a for a in answers if len(a.candidates) > 1]
        assert len(tied) > len(answers) // 2
        assert any(0 < a.scores_cached < len(a.candidates) for a in tied)
        for answer in answers:
            if answer.candidates:
                assert list(answer.candidates) == sorted(answer.candidates)
                assert answer.best_id == min(answer.candidates)
                assert answer.probability == 0.5


class TestAnswerCacheFields:
    """``scores_cached`` and ``embedding_cached`` report what the caches
    held when the batch arrived, read with ``peek`` just before it."""

    SEQUENCE = TestCacheCounters.SEQUENCE

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_fields_match_the_cache_contents(
        self, trained_matcher, built_index, query_records, n_shards
    ):
        service = serving(
            trained_matcher, built_index, n_shards,
            embedding_cache_size=2, score_cache_size=64,
        )
        groups = service.groups
        n = len(groups)
        partial = 0
        for batch in self.SEQUENCE:
            records = [query_records[i] for i in batch]
            expected = []
            for record, embedding in zip(
                records, built_index.embed_queries(records)
            ):
                key = content_key(record)
                home = groups[shard_of_key(key, n) if n_shards else 0].primary
                candidates = built_index.candidates(built_index.band_keys(embedding))
                expected.append((
                    tuple(candidates),
                    home.embedding_cache.peek(key) is not MISSING,
                    sum(
                        groups[shard_of_id(c, n) if n_shards else 0]
                        .primary.score_cache.peek((key, c)) is not MISSING
                        for c in candidates
                    ),
                ))
            answers = service.match_batch(records).answers
            assert [
                (a.candidates, a.embedding_cached, a.scores_cached) for a in answers
            ] == expected
            partial += sum(0 < a.scores_cached < len(a.candidates) for a in answers)
        assert partial
