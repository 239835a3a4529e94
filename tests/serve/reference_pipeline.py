"""Frozen reference: the batch pipeline's per-shard stages as they stood
when every shard repeated a query's per-batch work.

:func:`reference_match_batch` is ``MatchService.match_batch`` from before
the batch hashed each key once and embedded once: every home shard's
``resolve_embeddings`` looks its keys up, embeds its own misses in its
own token pass and inserts them (:func:`resolve_embeddings`); every
shard's ``candidate_map`` hashes each key again inside the probe
(:func:`candidates`); and the score write-back rebuilds the owner of
every scored candidate from the batch's pairs (:func:`_owner_of`).

It drives a live :class:`~repro.serve.MatchService` or
:class:`~repro.serve.ShardedMatchService` through the stages this
change left alone — ``_route``, ``_shard_call``, ``consult_scores``,
``_score_canonical``, ``_assemble`` and ``_report`` — so the two
pipelines can be run on twin services and their answers, reports,
caches and counters compared.  Only tests and the micro bench use this
module; nothing under ``src/`` imports it.  Do not edit the stages:
they are the reference.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from repro.faults.plan import inject
from repro.obs.metrics import REGISTRY as _OBS
from repro.serve.cache import MISSING, content_key
from repro.serve.service import BatchReport


def candidates(index, embedding: np.ndarray) -> "list[str]":
    """Reference ids colliding with ``embedding``: the hash inside the probe."""
    if index._buckets is None:
        raise RuntimeError("index not built; call build() first")
    signature = index.blocker.query_signatures(embedding.reshape(1, -1))[0]
    found: set[int] = set()
    for (lo, hi), band_buckets in zip(index.blocker.band_slices(), index._buckets):
        key = signature[lo:hi].tobytes()
        found.update(band_buckets.get(key, ()))
    return sorted(map(index._ids.__getitem__, found))


def resolve_embeddings(service, keyed_records):
    """One home shard's embedding stage: its lookups, its own token pass
    over its misses, and its inserts.  Returns the embedding per key, the
    keys served from the cache, and each miss's column stack."""
    embeddings = {}
    hit_keys = set()
    fresh_columns = {}
    miss_keys = []
    miss_records = []
    for key, record in keyed_records:
        cached = service.embedding_cache.get(key)
        if cached is not MISSING:
            embeddings[key] = cached
            hit_keys.add(key)
        else:
            miss_keys.append(key)
            miss_records.append(record)
    if miss_records:
        vectors, stacks = service.index.embed_queries_with_columns(miss_records)
        for key, vector, columns in zip(miss_keys, vectors, stacks):
            embeddings[key] = vector
            fresh_columns[key] = columns
            service.embedding_cache.put(key, vector)
    return embeddings, hit_keys, fresh_columns


def candidate_map(service, embeddings, keys):
    """Sorted candidate ids per key, each key hashed by this shard."""
    return {key: candidates(service.index, embeddings[key]) for key in keys}


def _owner_of(owned) -> "dict[str, int]":
    """Owning shard per candidate id of the owners' uncached pairs."""
    owner_of: dict[str, int] = {}
    for s, pairs in owned:
        owner_of.update(dict.fromkeys(map(itemgetter(1), pairs), s))
    return owner_of


def keyed_by_home(keys, home_by_key, record_by_key):
    """``(key, record)`` lists per home shard: shards ascending, keys in order."""
    batches: dict[int, list] = {}
    for key in keys:
        batches.setdefault(home_by_key[key], []).append((key, record_by_key[key]))
    return sorted(batches.items())


def _write_back(groups, owned, uncached_by_key, probabilities) -> None:
    if len(owned) == 1:
        (s, pairs), = owned
        groups[s].primary.score_cache.put_many(pairs, probabilities)
        return
    owners = np.fromiter(
        map(_owner_of(owned).__getitem__, chain.from_iterable(uncached_by_key.values())),
        dtype=np.intp, count=len(probabilities),
    )
    scores = np.array(probabilities)
    for s, pairs in owned:
        groups[s].primary.score_cache.put_many(pairs, scores[owners == s].tolist())


def embed_stage(self, groups, by_home):
    """The embedding stage: one ``resolve_embeddings`` shard call per
    home shard, each with its own token pass.  Returns what
    ``MatchService._embed_batch`` returns."""
    failovers = 0
    embeddings = {}
    fresh_columns = {}
    hit_keys = set()
    home_misses = [0] * len(groups)
    for shard_id, keyed in by_home:
        (shard_embeddings, shard_hits, shard_columns), used = self._shard_call(
            groups[shard_id],
            lambda svc, keyed=keyed: resolve_embeddings(svc, keyed),
            validate=lambda r, keyed=keyed: (
                isinstance(r, tuple) and len(r) == 3
                and set(r[0]) == {k for k, _ in keyed}
                and set(r[2]) == set(r[0]) - set(r[1])
            ),
        )
        embeddings.update(shard_embeddings)
        fresh_columns.update(shard_columns)
        hit_keys |= shard_hits
        home_misses[shard_id] = len(keyed) - len(shard_hits)
        failovers += used
    return embeddings, hit_keys, fresh_columns, home_misses, failovers


def reference_match_batch(self, records):
    """``match_batch`` with the per-shard stages above, on ``self``."""
    if not records:
        return self._report(BatchReport([], 0, 0, 0), [], [], 0)
    inject("serve.cache.lookup")
    if _OBS.enabled:
        _OBS.counter("serve.requests").inc(float(len(records)))

    keys = [content_key(record) for record in records]
    record_by_key = {k: r for k, r in zip(keys, records)}
    distinct = list(dict.fromkeys(keys))
    groups = self.groups
    home_by_key = dict(zip(distinct, self._route(distinct)))
    embeddings, hit_keys, fresh_columns, home_misses, failovers = embed_stage(
        self, groups, keyed_by_home(distinct, home_by_key, record_by_key)
    )

    cached_scores = {}
    hits_by_key = dict.fromkeys(distinct, 0)
    candidates_by_shard = []
    to_score_by_shard = []
    def consult(svc):
        local_candidates = candidate_map(svc, embeddings, distinct)
        return local_candidates, svc.consult_scores(local_candidates)
    for group in groups:
        (local_candidates, (local_scores, local_hits, local_to_score)), used = \
            self._shard_call(group, consult)
        candidates_by_shard.append(local_candidates)
        to_score_by_shard.append(local_to_score)
        cached_scores.update(local_scores)
        for key, count in local_hits.items():
            hits_by_key[key] += count
        failovers += used

    candidates_by_key = candidates_by_shard[0] if len(groups) == 1 else {
        key: sorted(chain.from_iterable(local[key] for local in candidates_by_shard))
        for key in distinct
    }

    uncached_by_key = {}
    for key in distinct:
        ids, hits = candidates_by_key[key], hits_by_key[key]
        if not hits and ids:
            uncached_by_key[key] = ids
        elif hits < len(ids):
            uncached_by_key[key] = [c for c in ids if (key, c) not in cached_scores]

    owned = [(s, pairs) for s, pairs in enumerate(to_score_by_shard) if pairs]
    probabilities = []
    if owned:
        probabilities, used = self._score_canonical(
            groups, owned, uncached_by_key, home_by_key, record_by_key,
            fresh_columns,
        )
        failovers += used
        _write_back(groups, owned, uncached_by_key, probabilities)

    scores_by_key = {}
    start = 0
    for key, ids in uncached_by_key.items():
        scores_by_key[key] = probabilities[start:start + len(ids)]
        start += len(ids)
    for key in distinct:
        if hits_by_key[key]:
            fresh = iter(scores_by_key.get(key, ()))
            scores_by_key[key] = [
                cached_scores[(key, c)] if (key, c) in cached_scores else next(fresh)
                for c in candidates_by_key[key]
            ]
    answers = [
        self._assemble(
            key, candidates_by_key[key], scores_by_key.get(key, []),
            key in hit_keys, hits_by_key[key],
        )
        for key in keys
    ]
    if _OBS.enabled:
        _OBS.counter("serve.batches").inc()
        _OBS.histogram("serve.batch_queries").observe(len(records))
    report = BatchReport(
        answers=answers,
        scored_pairs=len(probabilities),
        embedding_misses=len(distinct) - len(hit_keys),
        predict_calls=1 if probabilities else 0,
    )
    return self._report(report, to_score_by_shard, home_misses, failovers)
