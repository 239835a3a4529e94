"""Deterministic serving simulator: micro-batching + admission control.

A single-server policy on the discrete-event core that the gateway
shares (:func:`repro.serve.clock.run_events`), shaped like a real
inference server's request path:

* **admission control** — at most ``max_queue`` queries may wait; an
  arrival that finds the queue full is *shed* deterministically (an
  explicit ``rejected`` result, never an exception), so overload degrades
  loudly and reproducibly instead of growing an unbounded queue;
* **micro-batching** — a waiting batch fires when it reaches
  ``max_batch_size`` or when its oldest query has waited ``max_wait``
  simulated seconds, whichever is earlier (and never before the server is
  free) — the classic max-batch/max-wait scheduler of inference servers;
* **cost model** — a fired batch occupies the server for
  ``cost_base + cost_per_query·|batch| + cost_per_miss·scored_pairs
  + cost_per_embed·embedding_misses`` simulated seconds.  The real model *is* invoked (answers are genuine
  ``predict_proba`` outputs), but latency comes from the model above, so
  cache hits make batches measurably faster and the reported
  p50/p95/p99 are bit-identical across runs, hosts and ``jobs`` values;
* **scatter-gather straggler model** — when the service's report carries
  a per-shard work breakdown (:class:`repro.serve.shard.
  ShardBatchReport`), the router pays the scatter cost
  (``cost_base + cost_per_query·|batch|``) serially, each shard then
  works its own queue (``cost_per_miss``/``cost_per_embed`` over *its*
  share), and the batch completes at the **max of the shard finish
  times** — the classic fan-out straggler.  The router frees as soon as
  the scatter is done, so consecutive batches pipeline across shard
  queues; the per-batch ``straggler`` entry records how long the gather
  waited past the mean shard cost.

The loop never reads wall clocks or ambient randomness; given the same
workload, config and service state it replays the exact same schedule —
including *which* queries get shed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.serve.clock import RunReport, RunResult, SimClock, order_arrivals, run_events
from repro.serve.service import MatchAnswer, MatchService
from repro.serve.workload import Query
from repro.utils.stats import percentile
from repro.utils.validation import check_positive_int

__all__ = ["QueryResult", "ServerConfig", "SimReport", "percentile", "simulate"]


@dataclass(frozen=True)
class ServerConfig:
    """Scheduler knobs and the simulated service-cost model (seconds)."""

    max_batch_size: int = 8
    max_wait: float = 0.004
    max_queue: int = 64
    cost_base: float = 0.002
    cost_per_query: float = 0.0004
    cost_per_miss: float = 0.0012
    # Charged per embedding-cache miss: separates composition cost from
    # scoring cost, so kernel-calibrated configs can price "score a cached
    # pair" and "embed a never-seen tuple" independently.  0.0 keeps the
    # historical model (embedding folded into cost_per_miss).
    cost_per_embed: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int("max_batch_size", self.max_batch_size)
        check_positive_int("max_queue", self.max_queue)
        if not self.max_wait >= 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")
        if not all(term >= 0 for term in (self.cost_base, self.cost_per_query,
                                           self.cost_per_miss, self.cost_per_embed)):
            raise ValueError("cost model terms must be >= 0")


@dataclass
class QueryResult(RunResult):
    """Terminal state of one query: completed with an answer, or shed."""

    query_id: int
    status: str  # "ok" | "rejected"
    arrival: float
    start: float | None = None
    finish: float | None = None
    batch_id: int | None = None
    answer: MatchAnswer | None = None


@dataclass
class SimReport(RunReport):
    """Everything one simulated run produced, in deterministic order."""

    config: ServerConfig
    results: list[QueryResult] = field(default_factory=list)
    batches: list[dict] = field(default_factory=list)
    duration: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b["size"] for b in self.batches) / len(self.batches)

    @property
    def scored_pairs(self) -> int:
        return sum(b["scored_pairs"] for b in self.batches)

    @property
    def straggler_overhead(self) -> float:
        """Total simulated seconds the gather waited on the slowest shard.

        Summed per-batch ``max(shard finish) − dispatch − mean(shard
        cost)``; 0.0 for unsharded runs (no per-shard breakdown).
        """
        return sum(b.get("straggler", 0.0) for b in self.batches)


def simulate(
    service: MatchService,
    queries: list[Query],
    config: ServerConfig,
    *,
    clock: SimClock | None = None,
) -> SimReport:
    """Run ``queries`` through ``service`` under the scheduler in ``config``.

    ``service`` only needs a ``match_batch(records) -> BatchReport``
    method, so scheduler tests can drive the loop with a stub.  Results
    come back ordered by ``query_id`` regardless of completion order; a
    repeated ``query_id`` is a ``ValueError``.
    """
    clock = clock or SimClock()
    arrivals = order_arrivals(queries, "query_id")
    pending: list[Query] = []
    results: dict[int, QueryResult] = {}
    batches: list[dict] = []
    server_free_at = 0.0
    shard_free: dict[int, float] = {}

    def admit(query: Query) -> None:
        if len(pending) >= config.max_queue:
            results[query.query_id] = QueryResult(
                query_id=query.query_id, status="rejected", arrival=query.arrival
            )
            if _OBS.enabled:
                _OBS.counter("serve.shed").inc()
        else:
            pending.append(query)

    def next_service() -> float | None:
        # The waiting batch fires at batch-full time or the oldest
        # query's deadline — whichever first — but never while the
        # server is still busy with the previous batch.
        if not pending:
            return None
        full_time = (
            pending[config.max_batch_size - 1].arrival
            if len(pending) >= config.max_batch_size
            else math.inf
        )
        return max(min(pending[0].arrival + config.max_wait, full_time), server_free_at)

    def serve(fire: float) -> float:
        nonlocal server_free_at
        batch = pending[: config.max_batch_size]
        del pending[: config.max_batch_size]
        report = service.match_batch([q.record for q in batch])
        shard_works = tuple(getattr(report, "shards", ()) or ())
        batch_extra: dict = {}
        if shard_works:
            # Scatter-gather: the router serializes the scatter, each
            # shard works its own queue, the gather completes at the
            # max of the shard finish times (straggler-bound).  The
            # router is free again once the scatter is dispatched, so
            # later batches pipeline into idle shard queues.
            scatter = config.cost_base + config.cost_per_query * len(batch)
            dispatch = fire + scatter
            shard_costs = []
            finish = dispatch
            for work in shard_works:
                shard_cost = (
                    config.cost_per_miss * work.scored_pairs
                    + config.cost_per_embed * work.embedding_misses
                )
                shard_costs.append(shard_cost)
                done = max(dispatch, shard_free.get(work.shard, 0.0)) + shard_cost
                shard_free[work.shard] = done
                finish = max(finish, done)
            server_free_at = dispatch
            mean_cost = sum(shard_costs) / len(shard_costs)
            cost = finish - fire
            batch_extra = {
                "shards": len(shard_works),
                "straggler": finish - dispatch - mean_cost,
            }
        else:
            cost = (
                config.cost_base
                + config.cost_per_query * len(batch)
                + config.cost_per_miss * report.scored_pairs
                + config.cost_per_embed * report.embedding_misses
            )
            finish = fire + cost
            server_free_at = finish
        batch_id = len(batches)
        batches.append({
            "batch_id": batch_id,
            "fire": fire,
            "finish": finish,
            "size": len(batch),
            "scored_pairs": report.scored_pairs,
            "embedding_misses": report.embedding_misses,
            "predict_calls": report.predict_calls,
            "cost": cost,
            **batch_extra,
        })
        for query, answer in zip(batch, report.answers):
            results[query.query_id] = QueryResult(
                query_id=query.query_id,
                status="ok",
                arrival=query.arrival,
                start=fire,
                finish=finish,
                batch_id=batch_id,
                answer=answer,
            )
        return finish

    with span("serve.sim", queries=len(arrivals)) as sim_span:
        run_events(arrivals, clock, admit, next_service, serve)
        sim_report = SimReport(
            config=config,
            results=[results[q.query_id] for q in sorted(queries, key=lambda q: q.query_id)],
            batches=batches,
            duration=clock.now,
        )
        sim_span.meta.update({
            "completed": len(sim_report.completed),
            "shed": len(sim_report.shed),
            "batches": len(batches),
            "simulated_duration": round(sim_report.duration, 6),
        })
    if _OBS.enabled:
        _OBS.gauge("serve.sim.duration_seconds").set(sim_report.duration)
    return sim_report
