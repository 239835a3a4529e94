"""Metric definitions and how each is computed from a pass.

End-to-end metrics come from untraced passes; per-layer metrics from a
traced pass.  ``_us`` metrics are microseconds per completed request;
counts are per traced pass; ratios are useful outcomes over attempts.
Every time is measured wall clock (``time.perf_counter``).
"""

from __future__ import annotations

import statistics

from wallbench.tracing import Profile
from wallbench.workloads import STAGES, TIERS, PassResult

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ROUTES = ("match", "clean", "discover")
# What the sharded router calls on its shards: the first four stages and
# the reference-column gather.
SHARD_CALLS = tuple(f"serve.service.{stage}" for stage in STAGES[:4]) + ("serve.index.column_rows",)

PER_LAYER = {
    "gateway.loop.self_us": "us",
    "gateway.groups": "count",
    "gateway.group_size.mean": "count",
    "gateway.shed": "count",
    **{f"gateway.router.{route}.busy_us": "us" for route in ROUTES},
    "serve.shard.self_us": "us",
    "serve.shard.stage_calls": "count",
    "serve.shard.failovers": "count",
    "serve.shard.swap.busy_us": "us",
    **{f"serve.service.{stage}.busy_us": "us" for stage in STAGES},
    "serve.service.self_us": "us",
    "serve.service.scored_pairs": "count",
    "serve.service.embedding_misses": "count",
    **{f"serve.cache.{tier}.hit_ratio": "ratio" for tier in TIERS},
    "serve.cache.evictions": "count",
    **{f"serve.index.{probe}.busy_us": "us" for probe in ("embed_queries", "candidates", "column_rows")},
    "serve.index.candidates.mean": "count",
    "serve.index.match_ratio": "ratio",
    "serve.index.store_bytes": "bytes",
    "embeddings.embed.busy_us": "us",
    "embeddings.embed_columns.busy_us": "us",
    "embeddings.records": "count",
    **{f"kernels.{kernel}.busy_us": "us" for kernel in ("unique_column_stack", "pair_feature_matrix", "score_pairs")},
    "kernels.compose.unique_ratio": "ratio",
    "kernels.features.bytes_per_pair": "bytes",
    "nn.forward.busy_us": "us",
    "par.pmap.calls": "count",
    "par.pmap.self_us": "us",
    "faults.retry_call.self_us": "us",
    "faults.retries": "count",
    "utils.content_key.busy_us": "us",
    "obs.spans.per_req": "count",
    "obs.trace_overhead": "ratio",
    "cleaning.repair.busy_us": "us",
    "discovery.match_tables.busy_us": "us",
    **{f"setup.{phase}_s": "s" for phase in ("embeddings_fit", "matcher_fit", "index_build", "services")},
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(result: PassResult, setup_s: float, peak_rss_mb: float) -> "dict[str, float]":
    """Throughput and p50 over the whole run; p99 the median of block p99s.

    On a shared 2-vCPU Xeon VM whose speed drifts by a fifth from one
    stretch of seconds to the next, whole-run figures of 30-second
    stretches of one gateway process spread least (IQR/median 0.07 for
    throughput and p50, against 0.10-0.20 for the median or the fastest
    of their blocks).  A p99 is set by a run's few slowest calls, and
    there other tenants' CPU stalls land: over nine 15-second stretches
    of one bulk process the whole-stretch p99 spread 0.17, the median of
    the ~1,000-request blocks' p99 0.09.
    """
    return {
        "throughput_rps": _ratio(result.requests, result.wall),
        "latency_p50_ms": result.latency_ms(50),
        "latency_p99_ms": statistics.median(result.block_p99) * 1e3 if result.block_p99 else result.latency_ms(99),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    result: PassResult,
    profile: Profile,
    notes: "dict[str, float]",
    counters: "dict[str, float]",
    phases: "dict[str, float]",
    *,
    store_bytes: int,
    trace_overhead: float,
) -> "dict[str, float]":
    """Every per-layer metric; layers a workload does not run read 0."""
    busy, self_time, calls = profile.busy, profile.self_time, profile.calls

    def us(seconds: float) -> float:
        return _ratio(seconds, result.requests) * 1e6

    cache = result.cache
    metrics = {
        "gateway.loop.self_us": us(busy["gateway.run"] - sum(busy[f"gateway.router.{r}"] for r in ROUTES)),
        "gateway.groups": result.groups,
        "gateway.group_size.mean": _ratio(result.requests, result.groups),
        "gateway.shed": result.shed,
        **{f"gateway.router.{r}.busy_us": us(busy[f"gateway.router.{r}"]) for r in ROUTES},
        "serve.shard.self_us": us(self_time["serve.shard.match_batch"]),
        "serve.shard.stage_calls": sum(profile.child_calls[("serve.shard.match_batch", n)] for n in SHARD_CALLS),
        "serve.shard.failovers": counters.get("serve.shard.failovers", 0.0),
        "serve.shard.swap.busy_us": us(busy["serve.shard.swap"]),
        **{f"serve.service.{s}.busy_us": us(busy[f"serve.service.{s}"]) for s in STAGES},
        "serve.service.self_us": us(sum(v for k, v in self_time.items() if k.startswith("serve.service."))),
        "serve.service.scored_pairs": result.scored_pairs,
        "serve.service.embedding_misses": result.embedding_misses,
        **{
            f"serve.cache.{tier}.hit_ratio": _ratio(
                cache[f"{tier}.hits"], cache[f"{tier}.hits"] + cache[f"{tier}.misses"]
            )
            for tier in TIERS
        },
        "serve.cache.evictions": sum(cache[f"{tier}.evictions"] for tier in TIERS),
        **{f"serve.index.{p}.busy_us": us(busy[f"serve.index.{p}"]) for p in ("embed_queries", "candidates", "column_rows")},
        "serve.index.candidates.mean": _ratio(notes["candidates"], calls["serve.index.candidates"]),
        "serve.index.match_ratio": _ratio(result.log.matched, result.scored_pairs),
        "serve.index.store_bytes": store_bytes,
        "embeddings.embed.busy_us": us(busy["embeddings.embed"]),
        "embeddings.embed_columns.busy_us": us(busy["embeddings.embed_columns"]),
        "embeddings.records": calls["embeddings.embed"] + calls["embeddings.embed_columns"],
        **{
            f"kernels.{k}.busy_us": us(busy[f"kernels.{k}"])
            for k in ("unique_column_stack", "pair_feature_matrix", "score_pairs")
        },
        "kernels.compose.unique_ratio": _ratio(
            counters.get("kernels.compose.unique", 0.0), counters.get("kernels.compose.requests", 0.0)
        ),
        "kernels.features.bytes_per_pair": _ratio(notes["features.bytes"], notes["features.pairs"]),
        # The classifier forward is what score_pairs does beyond features.
        "nn.forward.busy_us": us(self_time["kernels.score_pairs"]),
        "par.pmap.calls": calls["par.pmap"],
        "par.pmap.self_us": us(self_time["par.pmap"]),
        "faults.retry_call.self_us": us(self_time["faults.retry_call"]),
        "faults.retries": counters.get("faults.retry.extra_attempts", 0.0),
        "utils.content_key.busy_us": us(busy["utils.content_key"]),
        "obs.spans.per_req": _ratio(result.program_spans, result.requests),
        "obs.trace_overhead": trace_overhead,
        "cleaning.repair.busy_us": us(busy["cleaning.repair"]),
        "discovery.match_tables.busy_us": us(busy["discovery.match_tables"]),
        **{f"setup.{phase}_s": seconds for phase, seconds in phases.items()},
    }
    return {name: float(metrics[name]) for name in PER_LAYER}
