"""Stateful differential test: serving answers never depend on topology.

A ``hypothesis`` state machine drives an unsharded :class:`MatchService`
and :class:`ShardedMatchService` at N ∈ {1, 2, 4} (two replicas each)
through one stream of ``match_batch`` calls — random sub-batches of the
query table, duplicates and empty batches included — interleaved with
hot swaps to the other of two fitted matchers.  Batches draw from a
small pool of query records, so records recur and their cached pairs
get hit after evictions and swaps; every service gets the same tiny
cache capacity (0–8) against ~24 candidates per query, so entries evict
mid-stream.  After every batch:

* every topology returns the same candidates and best id per answer, and
  the candidates are the full index's LSH candidates for the record;
* each answer's probability is within ``1e-9`` of the served matcher's
  offline ``predict_proba`` for that (query, best candidate) pair, and no
  candidate scores more than ``1e-9`` above it offline.

The bound is deliberately not bit equality.  Cache warmth decides which
pairs a batch still has to score, so it changes the shape of the scoring
batch, and a GEMM's summation order follows that shape: the last bit of
a probability can move (observed up to 2.8e-17, in every topology,
including the unsharded one).  Serving is bit-identical to offline
scoring for a given scoring batch, not for every cache history.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.er import DeepER
from repro.serve import MatchService, ShardedMatchService

SHARD_COUNTS = (1, 2, 4)
POOL = 4
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def other_matcher(word_model, small_benchmark):
    """A second fitted matcher: same columns and composition, new weights."""
    labeled = small_benchmark.labeled_pairs(negative_ratio=3, rng=2)[:80]
    train = [
        (small_benchmark.record_a(a), small_benchmark.record_b(b), y)
        for a, b, y in labeled
    ]
    return DeepER(
        word_model, small_benchmark.compare_columns, composition="sif", rng=1
    ).fit(train, epochs=3)


def test_topologies_agree_through_evictions_and_swaps(
    trained_matcher, other_matcher, built_index, query_records
):
    matchers = (trained_matcher, other_matcher)
    assert matchers[0].parameter_fingerprint() != matchers[1].parameter_fingerprint()
    # The oracle: offline predict_proba of every LSH candidate of every
    # pool record, per matcher — no caches, shards or batching involved.
    pool = query_records[:POOL]
    candidates = [
        built_index.candidates(built_index.band_keys(embedding))
        for embedding in built_index.embed_queries(pool)
    ]
    offline = {
        id(matcher): [
            dict(zip(ids, matcher.predict_proba(
                [(record, built_index.record(c)) for c in ids]
            ).tolist()))
            for record, ids in zip(pool, candidates)
        ]
        for matcher in matchers
    }

    class TopologyMachine(RuleBasedStateMachine):
        @initialize(capacity=st.integers(0, 8))
        def build(self, capacity):
            sizes = {"embedding_cache_size": capacity, "score_cache_size": capacity}
            self.served = matchers[0]
            self.services = [
                MatchService(self.served, built_index, jobs=1, **sizes)
            ] + [
                ShardedMatchService(
                    self.served, built_index, n_shards=n, replicas=2, jobs=1,
                    **sizes,
                )
                for n in SHARD_COUNTS
            ]

        @rule(picks=st.lists(st.integers(0, POOL - 1), max_size=8))
        def match_batch(self, picks):
            batch = [pool[i] for i in picks]
            reports = [service.match_batch(batch) for service in self.services]
            reference = reports[0].answers
            assert len(reference) == len(batch)
            for report in reports[1:]:
                assert [(a.candidates, a.best_id) for a in report.answers] == [
                    (a.candidates, a.best_id) for a in reference
                ]
            oracle = offline[id(self.served)]
            for i, answer in zip(picks, reference):
                assert list(answer.candidates) == candidates[i]
            for report in reports:
                for i, answer in zip(picks, report.answers):
                    if answer.best_id is None:
                        continue
                    expected = oracle[i][answer.best_id]
                    assert abs(answer.probability - expected) <= TOLERANCE
                    assert max(oracle[i].values()) - expected <= TOLERANCE

        @rule()
        def swap_matcher(self):
            self.served = matchers[self.served is matchers[0]]
            fingerprints = {
                service.swap_matcher(self.served) for service in self.services
            }
            assert fingerprints == {self.served.parameter_fingerprint()}

    run_state_machine_as_test(
        TopologyMachine,
        settings=settings(max_examples=25, stateful_step_count=8, deadline=None),
    )
