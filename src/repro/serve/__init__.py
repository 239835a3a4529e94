"""repro.serve: deterministic online serving for ER match queries.

An online entity-resolution service answers "does tuple *t* match
anything in the indexed table?" with bounded latency.  This package
reproduces that serving path — micro-batching, content-addressed
caching, admission control — entirely on a simulated clock, so every
latency percentile and every load-shedding decision is bit-identical
across runs, hosts and ``jobs`` settings:

* :mod:`repro.serve.clock` — the monotonic simulated clock, the one
  discrete-event core and the report arithmetic that ``simulate`` and
  :meth:`repro.gateway.Gateway.run` share;
* :mod:`repro.serve.cache` — content-addressed LRU caches with
  hit/miss/eviction accounting;
* :mod:`repro.serve.index` — build-once/probe-often LSH blocking index;
* :mod:`repro.serve.service` — :class:`MatchService`, read-only
  inference and the one batch pipeline: scatter-gather index lookup and
  one coalesced scoring call per batch, unsharded as the one-shard case;
* :mod:`repro.serve.workload` — seeded open-loop query generator and
  the arrival drawer the gateway's traffic uses too;
* :mod:`repro.serve.sim` — the micro-batching/admission-control
  policy on that core, and its latency/throughput report;
* :mod:`repro.serve.shard` — :class:`ShardedMatchService`, the same
  pipeline over hash-partitioned shard replica groups (routing, failover
  and report hooks), byte-identical answers for any shard count.
"""

from repro.serve.cache import CacheStats, CacheStatsView, LRUCache, MISSING, content_key
from repro.serve.clock import SimClock
from repro.serve.index import BlockingIndex
from repro.serve.service import BatchReport, MatchAnswer, MatchService
from repro.serve.shard import (
    ShardBatchReport,
    ShardGroup,
    ShardWork,
    ShardedMatchService,
    shard_of_id,
    shard_of_key,
)
from repro.serve.sim import QueryResult, ServerConfig, SimReport, percentile, simulate
from repro.serve.workload import Query, WorkloadConfig, generate_workload

__all__ = [
    "BatchReport",
    "BlockingIndex",
    "CacheStats",
    "CacheStatsView",
    "LRUCache",
    "MISSING",
    "MatchAnswer",
    "MatchService",
    "Query",
    "QueryResult",
    "ServerConfig",
    "ShardBatchReport",
    "ShardGroup",
    "ShardWork",
    "ShardedMatchService",
    "SimClock",
    "SimReport",
    "WorkloadConfig",
    "content_key",
    "generate_workload",
    "percentile",
    "shard_of_id",
    "shard_of_key",
    "simulate",
]
