"""Sharded, replicated serving: deterministic scatter-gather matching.

:class:`ShardedMatchService` splits the reference table into ``n_shards``
shards by a stable hash of tuple id (:func:`shard_of_id`, built on
:func:`repro.utils.content.content_key` — PYTHONHASHSEED-proof), gives
each shard its own frozen :class:`~repro.serve.index.BlockingIndex` view
and its own embedding/score/column cache tier, and answers batches
through the one scatter-gather pipeline,
:meth:`repro.serve.service.MatchService.match_batch`.  This module
supplies the three things a topology decides — routing, the per-shard
call and the report — and three invariants make the topology invisible:

**Partition, not re-hash.**  Every shard view shares the *global*
frozen LSH transform (centering/whitening fitted over the full reference
table — :meth:`BlockingIndex.shard_view`), so a query's band keys are
the same on every shard: the router hashes each distinct key once
(:meth:`BlockingIndex.band_keys`), every shard looks those keys up in
its own buckets, and the per-shard candidate sets exactly partition the
global candidate set.  The merge is a sorted union of the shard
candidate lists (ties between equal scores break to the smallest tuple
id, exactly as in :meth:`MatchService._assemble`), so the merged answer
is byte-identical for any shard count — ``N = 1`` equals the unsharded
service equals the offline ``predict_proba``.

**Home-shard routing.**  Each distinct query key's embedding and column
cache lookups and inserts run once, on the key's *home* shard
(:func:`shard_of_key`); the embedding misses of every home shard are
embedded by one token pass per batch, between the lookups and the
inserts.  Score-cache pairs live on the shard owning the candidate,
fixed per reference id at construction.  Every cache consult the
unsharded service would make happens exactly once somewhere, so the
per-shard ``serve.cache.shard<i>.*`` counters *sum* to the unsharded
totals (the metrics tests pin this down).

**Replica failover.**  Each shard group holds ``replicas`` services
sharing one cache tier.  Every shard call passes through fault site
``serve.shard.query``; a killed primary (injected error at call entry —
the chaos model of a dead shard, which never processed the request)
fails over to the next replica with bit-identical results, because the
replica sees the same shared caches and the same frozen view.  Budget =
the replica count: exhaustion raises :class:`~repro.faults.retry.
RetryExhausted` naming the site.  Routing itself is wrapped at validated
site ``serve.shard.route`` (pure recompute under
:data:`~repro.faults.retry.HOT_POLICY`, so corrupt-return chaos is
detected and retried).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.er.deeper import DeepER
from repro.faults.plan import inject, inject_result
from repro.faults.retry import CorruptedResult, HOT_POLICY, RetryExhausted, retry_call
# score_pairs, retry_call and content_key stay attributes of this module:
# ``wallbench --trace 1`` wraps them here by name.
from repro.kernels.score import score_pairs
from repro.obs.metrics import REGISTRY as _OBS
from repro.serve.cache import content_key
from repro.serve.index import BlockingIndex
from repro.serve.service import BatchReport, MatchService, ShardGroup
from repro.utils.validation import check_positive_int

__all__ = [
    "ShardBatchReport",
    "ShardGroup",
    "ShardWork",
    "ShardedMatchService",
    "shard_of_id",
    "shard_of_key",
]


def shard_of_key(key: str, n_shards: int) -> int:
    """Home shard of a content key: stable hash, PYTHONHASHSEED-proof.

    Takes the first 64 bits of the (hex sha1) content key modulo the
    shard count — pure arithmetic on the digest, so the routing table is
    a deterministic function of record content alone.
    """
    return int(key[:16], 16) % n_shards


def shard_of_id(reference_id: str, n_shards: int) -> int:
    """Owning shard of a reference tuple id (content-hashed, stable)."""
    return shard_of_key(content_key(str(reference_id)), n_shards)


def _home_shards(keys: "list[str]", n_shards: int) -> tuple:
    """Home shard per distinct query key (pure, recomputable)."""
    return tuple(shard_of_key(key, n_shards) for key in keys)


@dataclass(frozen=True)
class ShardWork:
    """One shard's share of a batch (drives the sim's straggler model)."""

    shard: int
    scored_pairs: int
    embedding_misses: int
    predict_calls: int


@dataclass(frozen=True)
class ShardBatchReport(BatchReport):
    """A :class:`BatchReport` plus the per-shard work breakdown.

    ``scored_pairs``/``embedding_misses`` aggregate over shards exactly
    as the unsharded report counts them, so the flat cost model prices a
    sharded batch identically; the ``shards`` tuple lets
    :func:`repro.serve.sim.simulate` instead charge each shard its own
    queue and take the max-of-shards (straggler) completion time.
    ``failovers`` counts replica failovers this batch absorbed.
    """

    shards: tuple[ShardWork, ...] = ()
    failovers: int = 0


def _keep_faults(name: str) -> bool:
    return name.startswith("faults.")


class ShardedMatchService(MatchService):
    """:class:`MatchService` over N shard replica groups.

    Construction partitions ``index.ids`` by :func:`shard_of_id` (the
    ``{id: shard}`` table stays, for the score write-back), builds one
    shard view per shard (shared frozen transform), and instantiates
    ``replicas`` :class:`MatchService` per shard — all replicas of a
    shard share one cache tier (scoped ``shard<i>.``), which is what
    makes failover invisible in cache metrics and answers alike.

    The pipeline and the rest of the public surface (``match_batch`` /
    ``match_one`` / ``swap_matcher`` / ``cache_stats`` /
    ``parameter_fingerprint``) are :class:`MatchService`'s; this class
    holds no cache tier or index of its own and overrides only the three
    topology hooks: :meth:`_route`, :meth:`_shard_call` and
    :meth:`_report`.
    """

    def __init__(
        self,
        matcher: DeepER,
        index: BlockingIndex,
        *,
        n_shards: int,
        replicas: int = 2,
        threshold: float = 0.5,
        jobs: int = 1,
        embedding_cache_size: int = 1024,
        score_cache_size: int = 4096,
    ) -> None:
        check_positive_int("n_shards", n_shards)
        check_positive_int("replicas", replicas)
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        ids = index.ids
        owners = [shard_of_id(reference_id, self.n_shards) for reference_id in ids]
        # Each reference id's owning shard, fixed for the service's life:
        # the score write-back reads it.
        self._owner_by_id = dict(zip(ids, owners))
        members: list[list[str]] = [[] for _ in range(self.n_shards)]
        for reference_id, shard_id in zip(ids, owners):
            members[shard_id].append(reference_id)
        groups: list[ShardGroup] = []
        for shard_id, shard_members in enumerate(members):
            view = index.shard_view(shard_members)
            services = tuple(
                MatchService(
                    matcher, view,
                    threshold=threshold, jobs=jobs,
                    embedding_cache_size=embedding_cache_size,
                    score_cache_size=score_cache_size,
                    cache_scope=f"shard{shard_id}.",
                )
                for _ in range(self.replicas)
            )
            # Replicas share the primary's cache tier: a failover target
            # sees exactly the state the primary would have, so recovered
            # batches (and their cache metrics) are bit-identical.
            for replica in services[1:]:
                replica.embedding_cache = services[0].embedding_cache
                replica.score_cache = services[0].score_cache
                replica.column_cache = services[0].column_cache
            groups.append(ShardGroup(shard_id=shard_id, replicas=services))
        self._groups: tuple[ShardGroup, ...] = tuple(groups)
        self.threshold = threshold

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def groups(self) -> tuple[ShardGroup, ...]:
        return self._groups

    def shard_sizes(self) -> list[int]:
        """Reference tuples per shard (sums to the full table)."""
        return [len(group.primary.index) for group in self._groups]

    @property
    def matcher(self) -> DeepER:
        """The served matcher (one object, shared by every replica)."""
        return self._groups[0].primary.matcher

    # ------------------------------------------------------------------ #
    # topology hooks: routing + failover + per-shard report
    # ------------------------------------------------------------------ #

    def _route(self, keys: "list[str]") -> tuple:
        """Home shard per distinct key, validated at ``serve.shard.route``."""
        n = self.n_shards
        return retry_call(
            _home_shards,
            keys,
            n,
            site="serve.shard.route",
            policy=HOT_POLICY,
            validate=lambda a: (
                isinstance(a, tuple)
                and len(a) == len(keys)
                and all(isinstance(s, int) and 0 <= s < n for s in a)
            ),
        )

    def _shard_call(self, group: ShardGroup, call, validate=None):
        """Run ``call(service)`` on ``group`` with replica failover.

        Attempt *k* targets replica *k*; fault site ``serve.shard.query``
        fires at attempt entry (a killed shard never processed the call,
        so nothing needs rolling back), and each failed attempt restores
        the metrics checkpoint (keeping ``faults.*``) exactly like
        :func:`repro.faults.retry.retry_call`.  Returns ``(result,
        failovers_used)``; exhausting every replica raises
        :class:`RetryExhausted` naming the site.
        """
        for attempt, service in enumerate(group.replicas):
            checkpoint = _OBS.checkpoint() if _OBS.enabled else None
            try:
                inject("serve.shard.query")
                result = inject_result("serve.shard.query", call(service))
                if validate is not None and not validate(result):
                    raise CorruptedResult(
                        f"site 'serve.shard.query': shard {group.shard_id} "
                        f"returned a result that failed validation: {result!r}"
                    )
            except Exception as exc:
                if checkpoint is not None:
                    _OBS.restore(checkpoint, keep=_keep_faults)
                if attempt == len(group.replicas) - 1:
                    raise RetryExhausted(
                        "serve.shard.query", attempt + 1, 0.0
                    ) from exc
                if _OBS.enabled:
                    _OBS.counter("serve.shard.failovers").inc()
            else:
                return result, attempt
        raise AssertionError("unreachable")  # pragma: no cover

    def _report(
        self, report: BatchReport, to_score_by_shard, home_misses, failovers
    ) -> ShardBatchReport:
        """The flat report plus one :class:`ShardWork` per shard."""
        return ShardBatchReport(
            **vars(report),
            shards=tuple(
                ShardWork(shard_id, len(pairs), misses, 1 if pairs else 0)
                for shard_id, (pairs, misses)
                in enumerate(zip(to_score_by_shard, home_misses))
            ),
            failovers=failovers,
        )
