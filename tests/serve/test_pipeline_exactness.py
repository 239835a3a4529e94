"""The batch pipeline against its frozen per-shard reference, bit for bit.

``match_batch`` hashes each distinct key once, embeds a batch's misses
in one token pass and reads each reference id's owner from a table made
at construction.  :mod:`tests.serve.reference_pipeline` keeps the stages
it replaced: a hash inside every shard's probe, one token pass per home
shard, and an owner map rebuilt per batch.  Twin services run the same
batches, one through each pipeline, and must end with equal answers,
reports (``shards`` and ``failovers`` included), cache tiers (entries,
LRU order and stats) and ``serve.*`` metrics.  Counting tests pin what
the change removes: one ``band_keys`` per distinct key, at most one
token pass per batch.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.er.blocking import LSHBlocker
from repro.faults import Fault, FaultPlan
from repro.obs.metrics import REGISTRY, collecting
from repro.serve import BlockingIndex, MatchService, ShardedMatchService
from repro.serve.cache import content_key

from tests.serve.reference_pipeline import reference_match_batch

POOL = 10
# None is the unsharded service; (n_shards, replicas) otherwise.
TOPOLOGIES = [None] + [(n, r) for n in (1, 2, 3, 4) for r in (1, 2)]


def build(topology, matcher, index, embedding_size, score_size):
    sizes = {"embedding_cache_size": embedding_size, "score_cache_size": score_size}
    if topology is None:
        return MatchService(matcher, index, jobs=1, **sizes)
    n_shards, replicas = topology
    return ShardedMatchService(
        matcher, index, n_shards=n_shards, replicas=replicas, jobs=1, **sizes
    )


def _value(value):
    return value.tobytes() if isinstance(value, np.ndarray) else value


def tiers(service) -> list:
    """Every cache tier's name, entries in LRU order and stats."""
    return [
        (
            cache.name,
            [(key, _value(cache.peek(key))) for key in cache.keys()],
            cache.stats,
        )
        for group in service.groups
        for cache in (
            group.primary.embedding_cache,
            group.primary.score_cache,
            group.primary.column_cache,
        )
    ]


def serve_metrics(snapshot) -> dict:
    return {
        kind: {k: v for k, v in snapshot[kind].items() if k.startswith("serve.")}
        for kind in ("counters", "histograms")
    }


def pipeline_match_batch(service, batch):
    return service.match_batch(batch)


def run(service, batches, match_batch, kill):
    """Every batch through ``match_batch``; reports, tiers and metrics."""
    faults = [Fault("serve.shard.query", "error", hits=(kill,))] if kill is not None else []
    with collecting(reset=True):
        with FaultPlan(faults):
            reports = [match_batch(service, batch) for batch in batches]
        snapshot = REGISTRY.snapshot()
    return reports, tiers(service), serve_metrics(snapshot)


@pytest.fixture(scope="module")
def pool(query_records):
    return query_records[:POOL]


@settings(max_examples=150, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    embedding_size=st.sampled_from([0, 1, 2, 3, 1024]),
    score_size=st.sampled_from([0, 7, 30, 4096]),
    batches=st.lists(
        st.lists(st.integers(0, POOL - 1), max_size=8), min_size=1, max_size=4
    ),
    kill=st.none() | st.integers(0, 24),
)
def test_pipeline_equals_per_shard_reference(
    trained_matcher, built_index, pool, topology, embedding_size, score_size,
    batches, kill,
):
    """Repeated keys, evicting and disabled tiers, warm caches from
    earlier batches, and (with two replicas) one killed shard call."""
    if topology is None or topology[1] == 1:
        kill = None  # no replica to fail over to
    records = [[pool[i] for i in picks] for picks in batches]
    sides = [
        run(
            build(topology, trained_matcher, built_index, embedding_size, score_size),
            records, match_batch, kill,
        )
        for match_batch in (reference_match_batch, pipeline_match_batch)
    ]
    (want_reports, want_tiers, want_metrics), (got_reports, got_tiers, got_metrics) = sides
    assert [type(r) for r in got_reports] == [type(r) for r in want_reports]
    assert got_reports == want_reports
    assert got_tiers == want_tiers
    assert got_metrics == want_metrics


@pytest.mark.parametrize("kill", [0, 4, 9])
def test_a_killed_shard_call_fails_over_like_the_reference(
    trained_matcher, built_index, pool, kill
):
    """Kills land on an embedding lookup (hit 0), a consult and a later
    stage of the first batch; both pipelines make the same shard calls."""
    batches = [[pool[i] for i in (0, 1, 2, 3, 1, 6)], [pool[i] for i in (4, 0, 5)]]
    want, got = (
        run(build((4, 2), trained_matcher, built_index, 2, 7), batches, match_batch, kill)
        for match_batch in (reference_match_batch, pipeline_match_batch)
    )
    assert [report.failovers for report in got[0]] == [1, 0]
    assert got == want


def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        counts[name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_each_key_hashed_once_and_one_pass_per_batch(
    n_shards, monkeypatch, trained_matcher, built_index, pool
):
    counts: Counter = Counter()
    for owner, name in (
        (BlockingIndex, "band_keys"),
        (BlockingIndex, "embed_queries_with_columns"),
        (LSHBlocker, "query_signatures"),
    ):
        count_calls(monkeypatch, owner, name, counts)
    batch = [pool[i] for i in (0, 1, 1, 2, 3, 0, 4)]
    distinct = 5
    service, twin = (
        ShardedMatchService(trained_matcher, built_index, n_shards=n_shards, replicas=1)
        for _ in range(2)
    )
    for cold in (True, False):
        counts.clear()
        service.match_batch(batch)
        assert counts["band_keys"] == distinct
        assert counts["query_signatures"] == distinct
        assert counts["embed_queries_with_columns"] == (1 if cold else 0)
        # The reference hashes each key on every shard, and embeds once
        # per home shard with a miss.
        counts.clear()
        reference_match_batch(twin, batch)
        assert counts["query_signatures"] == distinct * n_shards
        homes = set(twin._route(list(dict.fromkeys(map(content_key, batch)))))
        assert counts["embed_queries_with_columns"] == (len(homes) if cold else 0)
