"""The online match service: read-only inference over a trained matcher.

:class:`MatchService` answers "does tuple *t* match anything in the
indexed table?" by composing two existing layers behind an inference-only
contract: blocking-index candidate lookup (:class:`repro.serve.index.
BlockingIndex`) followed by one scoring call over every not-yet-cached
(query, candidate) pair in the batch.  That single coalesced scoring call
is the micro-batching win the scheduler (:mod:`repro.serve.sim`) exists
to exploit: N concurrent queries cost one model invocation, not N.

One pipeline, any topology
--------------------------
:meth:`MatchService.match_batch` is the package's only batch pipeline,
written scatter-gather (see its docstring).  A topology supplies three
hooks — routing (:meth:`~MatchService._route`), how a stage runs on a
shard group (:meth:`~MatchService._shard_call`) and the report type
(:meth:`~MatchService._report`).  An unsharded service is the one-shard
case: one group whose only replica is itself, trivial routing, direct
stage calls that touch no ``serve.shard.*`` fault site, and a plain
:class:`BatchReport`; :class:`repro.serve.shard.ShardedMatchService`
overrides the three hooks.

Read-only contract
------------------
Serving never trains.  The service puts the matcher in eval mode at
construction and — with ``DeepER.predict_proba`` now restoring the
*prior* mode — it stays there; lint rule RL901 statically bans ``.fit``,
``optimizer.step``/``.backward`` and ``.data`` mutation anywhere under
``repro/serve/``, and :meth:`parameter_fingerprint` lets tests assert the
weights are byte-identical before and after any amount of traffic.

Fault wiring
------------
The scoring call runs under :data:`repro.faults.retry.HOT_POLICY` at site
``serve.score`` with a shape/finite validator, so an injected error or
corrupted return is retried and a recovered run stays bit-identical; the
per-batch cache consult passes through latency-only site
``serve.cache.lookup``.  Metrics are guarded ``serve.*`` instruments.

Hot swap
--------
:meth:`MatchService.swap_matcher` is the one sanctioned mutation of a
live service: the continuous-curation loop (:mod:`repro.loop`) promotes
a retrained candidate and swaps it in without rebuilding the service.
The cache-invalidation contract is exact: the **score cache is cleared**
(its entries are model outputs) while the **embedding and column caches
are kept** — their contents are functions of the embedder configuration
(word model, vector function, columns, composition method), never of the
classifier weights being replaced.  Construction and swap validation
both pin the matcher's embedder equal to the index's, whose token pass
makes the query column stacks the classifier reads.  Swapping to a
matcher with the *same* parameter fingerprint is a no-op: no rebind, no
cache clear, provably unchanged answers and cache counters.  The commit
covers every replica of every shard group and runs under validated,
retried fault site ``serve.swap`` (idempotent: a retried commit observes
the already-swapped fingerprint and no-ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from repro.er.deeper import DeepER
from repro.faults.plan import inject
from repro.faults.retry import HOT_POLICY, retry_call
from repro.kernels.features import PairSide, unique_column_stack
from repro.kernels.score import score_pairs
from repro.obs.metrics import REGISTRY as _OBS
from repro.serve.cache import LRUCache, MISSING, CacheStatsView, content_key
from repro.serve.index import BlockingIndex
from repro.utils.validation import check_fitted, check_non_negative_int, check_positive_int

__all__ = ["BatchReport", "MatchAnswer", "MatchService", "ShardGroup"]


def looks_like_fingerprint(value: object) -> bool:
    """True for a 40-char lowercase hex sha1 digest (swap validator)."""
    return (
        isinstance(value, str)
        and len(value) == 40
        and all(c in "0123456789abcdef" for c in value)
    )


@dataclass(frozen=True)
class MatchAnswer:
    """One query's answer: best candidate (if any) and its probability."""

    query_key: str
    candidates: tuple[str, ...]
    best_id: str | None
    probability: float
    matched: bool
    embedding_cached: bool
    scores_cached: int

    def to_dict(self) -> dict:
        return {
            "query_key": self.query_key,
            "candidates": list(self.candidates),
            "best_id": self.best_id,
            "probability": self.probability,
            "matched": self.matched,
        }


@dataclass(frozen=True)
class BatchReport:
    """What one coalesced batch actually cost.

    ``scored_pairs`` is the number of *unique uncached* pairs sent to the
    matcher (the simulated cost model charges per scored pair, so cache
    hits make batches measurably faster); ``predict_calls`` is 0 or 1 —
    the whole batch shares at most one scoring call.
    """

    answers: "list[MatchAnswer]"
    scored_pairs: int
    embedding_misses: int
    predict_calls: int


@dataclass(frozen=True)
class ShardGroup:
    """One shard's replica set; ``replicas[0]`` is the primary."""

    shard_id: int
    replicas: tuple[MatchService, ...]

    @property
    def primary(self) -> MatchService:
        return self.replicas[0]


def _embedder_mismatch(embedder, reference) -> "str | None":
    """What ``embedder`` would embed differently from ``reference``.

    Returns the first differing setting — word model (by identity),
    vector function (each side's default lookup counts as the same one),
    columns or method — or None when every record embeds identically.
    """
    if embedder.model is not reference.model:
        return "word model"
    if embedder.vector_fn != reference.vector_fn:
        return "vector function"
    if embedder.columns != reference.columns:
        return f"columns ({embedder.columns!r} != {reference.columns!r})"
    if embedder.method != reference.method:
        return f"method ({embedder.method!r} != {reference.method!r})"
    return None


def _keyed_by_home(keys, home_by_key: dict, record_by_key: dict) -> list:
    """``(key, record)`` lists per home shard: shards ascending, keys in order."""
    batches: dict[int, list] = {}
    for key in keys:
        batches.setdefault(home_by_key[key], []).append((key, record_by_key[key]))
    return sorted(batches.items())


class MatchService:
    """Online ER matching over a blocking index and a trained DeepER model.

    Parameters
    ----------
    matcher:
        Fitted :class:`DeepER` with a fixed composition (``"mean"`` or
        ``"sif"``).  A trainable composer's pair representation is not
        column-decomposable, so the kernel scorer cannot score it and
        construction raises ``ValueError``.  Flipped to eval mode at
        construction and kept there.
    index:
        Built :class:`BlockingIndex` over the reference table.  Its
        embedder must equal the matcher's in word model, vector function,
        columns and method (``ValueError`` otherwise): it makes the query
        column stacks the matcher's classifier reads.
    threshold:
        Probability above which the best candidate counts as a match.
    jobs:
        Explicit :mod:`repro.par` process count for the one fan-out
        serving has left: :meth:`resolve_columns`' pass over keys that hit
        the embedding cache but lost their column entry (bit-identical
        results for every value).
    embedding_cache_size / score_cache_size:
        LRU capacities; 0 disables the respective cache.  Scoring adds
        a third cache (query *column* embeddings) sized like the
        embedding cache.
    cache_scope:
        Prefix for the cache names (and therefore the guarded
        ``serve.cache.<scope><name>.*`` metric counters).  The sharded
        service scopes each shard's cache tier (``"shard3."``) so
        per-shard hit/miss counters stay distinguishable — and provably
        sum to the unsharded totals — instead of all shards conflating
        into one ``serve.cache.embedding.*`` stream.
    """

    def __init__(
        self,
        matcher: DeepER,
        index: BlockingIndex,
        *,
        threshold: float = 0.5,
        jobs: int = 1,
        embedding_cache_size: int = 1024,
        score_cache_size: int = 4096,
        cache_scope: str = "",
    ) -> None:
        check_fitted(matcher, "trained_")
        if not index.built:
            raise RuntimeError("BlockingIndex must be built before serving")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        check_positive_int("jobs", jobs)
        check_non_negative_int("embedding_cache_size", embedding_cache_size)
        check_non_negative_int("score_cache_size", score_cache_size)
        if matcher.composer is not None:
            raise ValueError(
                f"cannot serve matcher: composition {matcher.composition!r} is "
                f"trainable; serving scores 'mean' and 'sif' matchers only"
            )
        mismatch = _embedder_mismatch(matcher.embedder, index.embedder)
        if mismatch is not None:
            raise ValueError(
                f"cannot serve matcher: its embedder's {mismatch} differs "
                f"from the index's"
            )
        self.index = index
        self.threshold = threshold
        self.jobs = jobs
        # Serving owns the matcher: inference-only mode.
        self._bind(matcher)
        self.embedding_cache = LRUCache(embedding_cache_size,
                                        name=f"{cache_scope}embedding")
        self.score_cache = LRUCache(score_cache_size, name=f"{cache_scope}score")
        self.column_cache = LRUCache(embedding_cache_size,
                                     name=f"{cache_scope}columns")

    def _bind(self, matcher: DeepER) -> None:
        """Serve ``matcher`` from this replica, in eval mode."""
        matcher.classifier.eval()
        self.matcher = matcher

    @property
    def groups(self) -> "tuple[ShardGroup, ...]":
        """The shard groups serving batches: this service, alone."""
        return (ShardGroup(shard_id=0, replicas=(self,)),)

    # ------------------------------------------------------------------ #
    # read-only contract
    # ------------------------------------------------------------------ #

    def parameter_fingerprint(self) -> str:
        """sha1 over every model parameter's bytes (order-stable).

        Serving must never move a weight on its own: tests take the
        fingerprint before and after traffic and assert equality.  The
        only sanctioned change is an explicit :meth:`swap_matcher`.
        """
        return self.matcher.parameter_fingerprint()

    def swap_matcher(self, matcher: DeepER) -> str:
        """Hot-swap a promoted matcher in; returns its fingerprint.

        Validates compatibility first — the same composition, and an
        embedder equal to the index's in word model, vector function,
        columns and method: the configuration the kept caches and the
        query column stacks depend on — then commits for every replica of
        every shard group under **one** validated fault site
        ``serve.swap`` call.  The commit
        clears exactly the score caches (model outputs) and keeps the
        embedding/column caches (model-independent contents); swapping to
        the currently served fingerprint is a no-op that touches neither
        caches nor counters.
        """
        check_fitted(matcher, "trained_")
        served = self.matcher
        if matcher.composition != served.composition:
            raise ValueError(
                f"cannot swap matcher: composition differs "
                f"({matcher.composition!r} != {served.composition!r})"
            )
        mismatch = _embedder_mismatch(
            matcher.embedder, self.groups[0].primary.index.embedder
        )
        if mismatch is not None:
            raise ValueError(
                f"cannot swap matcher: its embedder's {mismatch} differs "
                f"from the index's"
            )
        before = self.parameter_fingerprint()
        fingerprint = retry_call(
            self._swap,
            matcher,
            site="serve.swap",
            policy=HOT_POLICY,
            validate=looks_like_fingerprint,
        )
        if _OBS.enabled and fingerprint != before:
            _OBS.counter("serve.swaps").inc()
        return fingerprint

    def _swap(self, matcher: DeepER) -> str:
        """Idempotent swap commit (runs under the ``serve.swap`` site).

        A retried commit that already ran sees the new fingerprint as
        current and returns without clearing again, so the net effect of
        any number of attempts equals exactly one.
        """
        fingerprint = matcher.parameter_fingerprint()
        if fingerprint == self.parameter_fingerprint():
            return fingerprint
        for group in self.groups:
            for replica in group.replicas:
                replica._bind(matcher)
            # Invalidate exactly the model-dependent tier.  Embedding and
            # column cache entries are functions of the embedder config
            # (validated identical above), so they stay warm across the
            # swap.  Replicas share their group's tier: one clear each.
            group.primary.score_cache.clear()
        return fingerprint

    @property
    def cache_stats(self) -> CacheStatsView:
        """Hit/miss/eviction view over every group's embedding+score caches.

        Column caches are excluded, so bench rows report the same
        ``cache_hit_rate`` definition sharded or not.
        """
        return CacheStatsView(*(
            cache.stats
            for group in self.groups
            for cache in (group.primary.embedding_cache, group.primary.score_cache)
        ))

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def match_one(self, record: dict[str, object]) -> MatchAnswer:
        """Single-query convenience wrapper over :meth:`match_batch`."""
        return self.match_batch([record]).answers[0]

    def match_batch(self, records: list[dict[str, object]]) -> BatchReport:
        """Answer a coalesced batch of queries with one scoring call.

        Stages: route distinct keys to home shards → :meth:`_embed_batch`
        (cache lookups and inserts on each key's home shard, one token
        pass for the batch) → band keys once per key → candidate lookup +
        score-cache consult on every shard → sorted-union merge →
        :meth:`_score_canonical` → each score written back to the shard
        owning its pair → answers assembled from this batch's scores.  The
        score cache is read with one ``get_many`` per shard and written
        with one ``put_many`` per owning shard; the rest of the
        bookkeeping runs per key, not per pair, and no per-key work is
        repeated per shard.  The topology hooks :meth:`_route`,
        :meth:`_shard_call` and :meth:`_report` supply routing, per-shard
        calls and the report.
        """
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
        embeddings, hit_keys, fresh_columns, home_misses, failovers = self._embed_batch(
            groups, _keyed_by_home(distinct, home_by_key, record_by_key)
        )

        # Candidate + score-cache stage on every shard (each sees every
        # query; its candidates are the global set ∩ its members).  Each
        # key is hashed once, by any shard's view (they share the frozen
        # blocker), and every shard looks its band keys up in its own
        # buckets.  Answers read this batch's scores, never the cache, so
        # they do not depend on cache capacity (a 0-capacity cache
        # stores nothing).
        index = groups[0].primary.index
        band_keys = {key: index.band_keys(embeddings[key]) for key in distinct}
        cached_scores: dict[tuple[str, str], float] = {}
        hits_by_key = dict.fromkeys(distinct, 0)
        candidates_by_shard: list[dict[str, list[str]]] = []
        to_score_by_shard: list[list[tuple[str, str]]] = []
        def consult(svc):
            local_candidates = svc.candidate_map(band_keys, distinct)
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

        # Merge: sorted union of the shard candidate lists.  The shard
        # views partition the reference table, so the union has no
        # duplicates and sorting restores exactly the unsharded (sorted)
        # candidate order; score ties later break to the first maximum
        # of that list — the smallest tuple id — sharded or not.  One
        # shard's lists are already that union.
        candidates_by_key = candidates_by_shard[0] if len(groups) == 1 else {
            key: sorted(chain.from_iterable(local[key] for local in candidates_by_shard))
            for key in distinct
        }

        # Canonical order of the uncached pairs: keys in first-occurrence
        # order, ids ascending within a key — a subsequence of each key's
        # merged list.  A key with no cached score has all its candidates
        # uncached, so its ids are that list as it stands.
        uncached_by_key: dict[str, list[str]] = {}
        for key in distinct:
            ids, hits = candidates_by_key[key], hits_by_key[key]
            if not hits and ids:
                uncached_by_key[key] = ids
            elif hits < len(ids):
                uncached_by_key[key] = [c for c in ids if (key, c) not in cached_scores]

        # Scoring stage: one call over every shard's uncached pairs, then
        # each score written back to the shard whose consult returned it.
        owned = [(s, pairs) for s, pairs in enumerate(to_score_by_shard) if pairs]
        probabilities: list[float] = []
        if owned:
            probabilities, used = self._score_canonical(
                groups, owned, uncached_by_key, home_by_key, record_by_key,
                fresh_columns,
            )
            failovers += used
            self._write_back(groups, owned, uncached_by_key, probabilities)

        # Each key's scores in candidate order: an uncached key's are one
        # contiguous run of the canonical probabilities; a key with cached
        # scores interleaves them with its run.
        scores_by_key: dict[str, list[float]] = {}
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

    def _embed_batch(self, groups, keyed_by_home):
        """The embedding stage: every distinct key's embedding, once.

        ``keyed_by_home`` lists each home shard's ``(key, record)`` pairs
        (shards ascending, keys in order).  Each home shard looks its
        keys up in its own embedding tier (:meth:`resolve_embeddings`,
        one shard call each); every home shard's misses then go through
        one token pass, which also makes their column stacks for this
        batch's column stage; and each home shard's misses are inserted
        into its tier in key order.  Every tier sees the same gets, then
        puts, as when each home shard embedded its own misses, and a
        record's rows do not depend on the other records in its pass.

        Returns the embedding per key, the keys served from a cache, the
        misses' column stacks, the misses per shard and the failovers.
        """
        embeddings: dict[str, np.ndarray] = {}
        hit_keys: set[str] = set()
        missed: list[tuple[int, list]] = []
        failovers = 0
        for shard_id, keyed in keyed_by_home:
            (hits, misses), used = self._shard_call(
                groups[shard_id],
                lambda svc, keyed=keyed: svc.resolve_embeddings(keyed),
                validate=lambda r, keyed=keyed: (
                    isinstance(r, tuple) and len(r) == 2
                    and len(r[0]) + len(r[1]) == len(keyed)
                    and set(r[0]).union(map(itemgetter(0), r[1]))
                    == set(map(itemgetter(0), keyed))
                ),
            )
            embeddings.update(hits)
            hit_keys.update(hits)
            if misses:
                missed.append((shard_id, misses))
            failovers += used
        home_misses = [0] * len(groups)
        fresh_columns: dict[str, np.ndarray] = {}
        if missed:
            vectors, stacks = groups[0].primary.index.embed_queries_with_columns(
                [record for _, misses in missed for _, record in misses]
            )
            start = 0
            for shard_id, misses in missed:
                keys = [key for key, _ in misses]
                rows = list(vectors[start:start + len(keys)])
                embeddings.update(zip(keys, rows))
                fresh_columns.update(zip(keys, stacks[start:start + len(keys)]))
                groups[shard_id].primary.embedding_cache.put_many(keys, rows)
                home_misses[shard_id] = len(keys)
                start += len(keys)
        return embeddings, hit_keys, fresh_columns, home_misses, failovers

    def _score_canonical(
        self, groups, owned, uncached_by_key, home_by_key, record_by_key,
        fresh_columns,
    ):
        """Score the owners' uncached pairs in one call, in canonical order.

        ``owned`` lists ``(shard_id, uncached pairs)`` per scoring shard;
        ``uncached_by_key`` gives the same pairs in canonical order — key
        first-occurrence, then candidate id — as each key's ids.  Each
        pair's reference side comes from its owner.  The scored *work*
        belongs to the shards — the cost model and the ShardWork
        breakdown charge each shard its own pairs — but the floating-point
        evaluation must not: a GEMM's summation strategy depends on its
        batch shape, so scoring shard-by-shard would drift the
        probabilities by ulps as N changes.  One call in canonical order
        makes the bits a pure function of the pair set, i.e.
        byte-identical for every shard count.

        Each side goes to the scorer as a :class:`PairSide`: the
        distinct rows (the scoring keys' column stacks; each owner's
        distinct candidate rows) plus each pair's row, so the feature
        kernel works out per-row terms once per row, not once per pair.
        The row indices are built per key and by C-level maps, with no
        per-pair Python loop.

        Returns the probabilities in canonical order and the failovers
        used.  The gathered stacks die with this frame, before write-back
        and assembly (holding them raised peak RSS).
        """
        failovers = 0
        n_pairs = sum(len(pairs) for _, pairs in owned)
        # Column stage: each scoring key's column stack once, on its
        # home shard — one column-cache consult per key for any shard
        # count, keys in first-occurrence order over the owners' pairs.
        columns_by_key: dict[str, np.ndarray] = {}
        scoring_keys = dict.fromkeys(chain.from_iterable(
            map(itemgetter(0), pairs) for _, pairs in owned
        ))
        for shard_id, keyed in _keyed_by_home(
            scoring_keys, home_by_key, record_by_key
        ):
            shard_columns, used = self._shard_call(
                groups[shard_id],
                lambda svc, keyed=keyed: svc.resolve_columns(keyed, fresh_columns),
                validate=lambda r, keyed=keyed: (
                    isinstance(r, dict) and set(r) == {k for k, _ in keyed}
                ),
            )
            columns_by_key.update(shard_columns)
            failovers += used
        query_row = {key: row for row, key in enumerate(scoring_keys)}
        query_side = PairSide(
            np.array([columns_by_key[key] for key in scoring_keys]),
            np.repeat(
                np.array([query_row[key] for key in uncached_by_key], dtype=np.intp),
                [len(ids) for ids in uncached_by_key.values()],
            ),
        )
        # Each owner's distinct candidate rows, in first-occurrence
        # order, stacked owner after owner; each pair indexes its
        # row, in canonical order (exact row copies, bit-identical to
        # one global gather).  The owners partition the ids.
        parts, row_of = [], {}
        for s, pairs in owned:
            wanted = list(dict.fromkeys(map(itemgetter(1), pairs)))
            rows, used = self._shard_call(
                groups[s],
                lambda svc, ids=wanted: svc.index.column_rows(ids),
                validate=lambda r, ids=wanted: (
                    isinstance(r, np.ndarray) and len(r) == len(ids)
                ),
            )
            row_of.update(zip(wanted, range(len(row_of), len(row_of) + len(wanted))))
            parts.append(rows)
            failovers += used
        reference_side = PairSide(
            parts[0] if len(parts) == 1 else np.concatenate(parts),
            np.fromiter(
                map(row_of.__getitem__, chain.from_iterable(uncached_by_key.values())),
                dtype=np.intp, count=n_pairs,
            ),
        )
        return self.score_uncached(query_side, reference_side), failovers

    def _write_back(self, groups, owned, uncached_by_key, probabilities) -> None:
        """One ``put_many`` per owner: its pairs, in its consult order.

        An owner's consult order is the canonical order restricted to the
        owner's pairs (both run keys in first-occurrence order and ids
        ascending), so its scores are the canonical probabilities whose
        candidate it owns, in order.  Several owners only arise on a
        sharded service, which fixed each reference id's owner when it
        was built (``_owner_by_id``).
        """
        if len(owned) == 1:
            (s, pairs), = owned
            groups[s].primary.score_cache.put_many(pairs, probabilities)
            return
        owners = np.fromiter(
            map(self._owner_by_id.__getitem__, chain.from_iterable(uncached_by_key.values())),
            dtype=np.intp, count=len(probabilities),
        )
        scores = np.array(probabilities)
        for s, pairs in owned:
            groups[s].primary.score_cache.put_many(pairs, scores[owners == s].tolist())

    # ------------------------------------------------------------------ #
    # topology hooks (one shard; ShardedMatchService overrides all three)
    # ------------------------------------------------------------------ #

    def _route(self, keys: "list[str]") -> tuple:
        """Home shard per distinct query key: every key homes on shard 0."""
        return (0,) * len(keys)

    def _shard_call(self, group: ShardGroup, call, validate=None):
        """Run ``call(service)`` on ``group``; returns ``(result, failovers)``.

        The one shard group's only replica is this service, so the stage
        runs directly: no fault site, nothing to fail over to.
        """
        return call(self), 0

    def _report(
        self, report: BatchReport, to_score_by_shard, home_misses, failovers
    ) -> BatchReport:
        """The batch's report, flat: one shard has no breakdown to add.

        A plain :class:`BatchReport` keeps :func:`repro.serve.sim.simulate`
        on its flat cost model.
        """
        return report

    # ------------------------------------------------------------------ #
    # pipeline stages
    # ------------------------------------------------------------------ #
    # Each stage is a pure function of its inputs plus this service's
    # cache state, so :meth:`match_batch` can run them shard-by-shard —
    # embedding and column lookups on a query key's home shard, candidate
    # lookup on every shard — and still merge to byte-identical answers.

    def resolve_embeddings(
        self, keyed_records: "list[tuple[str, dict[str, object]]]"
    ) -> "tuple[dict[str, np.ndarray], list[tuple[str, dict[str, object]]]]":
        """This home shard's embedding-cache lookups for distinct keys.

        One :meth:`LRUCache.get_many` over the keys, in order.  Returns
        the cached embedding per hit key and the missed ``(key, record)``
        pairs, in order.  :meth:`match_batch` embeds the misses of every
        home shard in one token pass (no ``jobs`` fan-out: a process pool
        per 16-record batch took ~70 ms against ~1 ms serially) and
        inserts each shard's misses into that shard's tier.  Callers must
        pass each key at most once.
        """
        cached = self.embedding_cache.get_many([key for key, _ in keyed_records])
        hits: dict[str, np.ndarray] = {}
        misses: list[tuple[str, dict[str, object]]] = []
        for pair, value in zip(keyed_records, cached):
            if value is MISSING:
                misses.append(pair)
            else:
                hits[pair[0]] = value
        return hits, misses

    def candidate_map(
        self, band_keys: "dict[str, list[bytes]]", keys: "list[str]"
    ) -> "dict[str, list[str]]":
        """Deterministic (sorted) candidate ids per query key, looked up
        in this service's index by the key's :meth:`BlockingIndex.
        band_keys`."""
        return {key: self.index.candidates(band_keys[key]) for key in keys}

    def consult_scores(
        self, candidates_by_key: "dict[str, list[str]]"
    ) -> "tuple[dict[tuple[str, str], float], dict[str, int], list[tuple[str, str]]]":
        """Score-cache consult over every (query key, candidate id) pair.

        One :meth:`LRUCache.get_many` over the pairs, key by key, each
        key's candidates in order.  Returns the cached scores, the
        per-key hit counts, and the ordered list of uncached pairs still
        needing the matcher.
        """
        pair_keys: list[tuple[str, str]] = []
        for key, candidate_ids in candidates_by_key.items():
            pair_keys += zip(repeat(key), candidate_ids)
        cached = self.score_cache.get_many(pair_keys)
        hits_by_key = dict.fromkeys(candidates_by_key, 0)
        if cached.count(MISSING) == len(pair_keys):
            return {}, hits_by_key, pair_keys
        scores_now: dict[tuple[str, str], float] = {}
        to_score: list[tuple[str, str]] = []
        for pair_key, value in zip(pair_keys, cached):
            if value is MISSING:
                to_score.append(pair_key)
            else:
                scores_now[pair_key] = value
                hits_by_key[pair_key[0]] += 1
        return scores_now, hits_by_key, to_score

    def resolve_columns(
        self,
        keyed_records: "list[tuple[str, dict[str, object]]]",
        fresh: "dict[str, np.ndarray]",
    ) -> "dict[str, np.ndarray]":
        """Cache-aware per-attribute embedding stacks for query keys.

        A miss takes the stack the embedding stage made this batch
        (``fresh``).  A key that hit the embedding cache but lost its
        column entry has none; such keys go through one deduplicated
        :func:`unique_column_stack` pass.  Misses are inserted in key
        order; callers pass each key at most once.
        """
        columns: dict[str, np.ndarray] = {}
        miss_keys: list[str] = []
        unmade: list[tuple[str, dict[str, object]]] = []
        for key, record in keyed_records:
            cached = self.column_cache.get(key)
            if cached is not MISSING:
                columns[key] = cached
            else:
                miss_keys.append(key)
                if key not in fresh:
                    unmade.append((key, record))
        if unmade:
            stack, indices = unique_column_stack(
                [record for _, record in unmade], self.index.embedder, jobs=self.jobs
            )
            fresh = {**fresh, **{key: stack[row] for (key, _), row in zip(unmade, indices)}}
        for key in miss_keys:
            columns[key] = fresh[key]
            self.column_cache.put(key, fresh[key])
        return columns

    def score_uncached(self, query_side, reference_side) -> "list[float]":
        """One validated, retried scoring call over canonical-order pairs.

        Takes the query and reference sides as
        :class:`~repro.kernels.features.PairSide` values of shape
        ``(pairs, columns, dim)``: one classifier forward, bit-identical
        to ``predict_proba``.  Returns the probabilities in pair order.
        """
        n_pairs = len(query_side)
        probabilities = retry_call(
            score_pairs,
            self.matcher.classifier,
            query_side,
            reference_side,
            site="serve.score",
            policy=HOT_POLICY,
            validate=lambda p: (
                isinstance(p, np.ndarray)
                and p.shape == (n_pairs,)
                and bool(np.all(np.isfinite(p)))
            ),
        )
        if _OBS.enabled:
            _OBS.counter("serve.predict_calls").inc()
            _OBS.counter("serve.scored_pairs").inc(float(n_pairs))
            _OBS.histogram("serve.score_batch_pairs").observe(n_pairs)
        return probabilities.tolist()

    def _assemble(
        self,
        key: str,
        candidate_ids: list[str],
        scores: list[float],
        embedding_cached: bool,
        scores_cached: int,
    ) -> MatchAnswer:
        """Build one answer from its candidates' scores, in candidate order."""
        if not candidate_ids:
            return MatchAnswer(
                query_key=key, candidates=(), best_id=None, probability=0.0,
                matched=False, embedding_cached=embedding_cached, scores_cached=0,
            )
        # Highest probability wins; ties break to the first maximum, which
        # is the smallest id because candidate lists are sorted and
        # distinct — deterministic whatever the probe order was.
        probability = max(scores)
        best_id = candidate_ids[scores.index(probability)]
        return MatchAnswer(
            query_key=key,
            candidates=tuple(candidate_ids),
            best_id=best_id,
            probability=probability,
            matched=probability >= self.threshold,
            embedding_cached=embedding_cached,
            scores_cached=scores_cached,
        )
