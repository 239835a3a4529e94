"""Serving's traced stage names stay in use.

``wallbench --trace 1`` times the serving layers by wrapping fixed
method names on a built stack (``wallbench/workloads.py:185-201``): the
``MatchService`` stages below on every service and replica, and the
index probes on each one's index.  A rename, or a stage the pipeline
stops calling, would make its per-layer metric read 0 without failing
anything; these tests fail instead.  They cover the names serving calls
today on one cold 4-record ``match_batch``, unsharded and over 4x2
shards, where a name counts when the service itself or any replica
calls it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.serve import MatchService, ShardedMatchService

STAGES = (
    "resolve_embeddings",
    "candidate_map",
    "consult_scores",
    "resolve_columns",
    "score_uncached",
)
INDEX_PROBES = ("candidates", "column_rows")


def wrap_names(monkeypatch, service) -> Counter:
    """Count calls of every traced name on ``service`` and its replicas."""
    calls: Counter = Counter()

    def wrap(target, name, label):
        method = getattr(target, name)
        assert callable(method), label

        def counted(*args, **kwargs):
            calls[label] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(target, name, counted)

    services = {id(service): service}
    for group in service.groups:
        services.update((id(replica), replica) for replica in group.replicas)
    indexes = {}
    for target in services.values():
        for stage in STAGES:
            wrap(target, stage, stage)
        if hasattr(target, "index"):
            indexes[id(target.index)] = target.index
    for index in indexes.values():
        for probe in INDEX_PROBES:
            wrap(index, probe, f"index.{probe}")
    return calls


@pytest.mark.parametrize("build", [
    lambda matcher, index: MatchService(matcher, index, jobs=1),
    lambda matcher, index: ShardedMatchService(matcher, index, n_shards=4, replicas=2),
], ids=["unsharded", "sharded-4x2"])
def test_every_traced_name_is_called_by_one_cold_batch(
    build, monkeypatch, trained_matcher, built_index, query_records
):
    service = build(trained_matcher, built_index)
    calls = wrap_names(monkeypatch, service)
    report = service.match_batch(query_records[:4])
    assert report.scored_pairs > 0
    expected = list(STAGES) + [f"index.{probe}" for probe in INDEX_PROBES]
    assert [name for name in expected if not calls[name]] == []
