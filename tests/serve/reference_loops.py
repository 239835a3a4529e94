"""Frozen reference: the two event loops from before the shared core.

``reference_simulate`` is ``repro.serve.sim.simulate`` and
:class:`ReferenceGateway` is ``Gateway.run`` with its ``_dispatch`` and
the latency maps its ``metrics_snapshot`` read, copied as they stood
when each simulated front door wrote its own loop (spans and metrics
counters left out: they never change a result).  Only
``tests/serve/test_event_core.py`` uses this module; nothing under
``src/`` imports it.  Do not edit the loops: they are the reference.
"""

from __future__ import annotations

import math

from repro.faults.retry import HOT_POLICY, retry_call
from repro.gateway.admission import AdmissionController
from repro.gateway.api import (
    Gateway,
    GatewayReport,
    RequestResult,
    RouteCost,
    _valid_outcome,
    _valid_router,
)
from repro.gateway.scheduler import make_scheduler
from repro.serve.clock import SimClock
from repro.serve.sim import QueryResult, SimReport
from repro.utils.stats import percentile


def reference_simulate(service, queries, config, *, clock=None) -> SimReport:
    clock = clock or SimClock()
    arrivals = sorted(queries, key=lambda q: (q.arrival, q.query_id))
    pending = []
    results = {}
    batches = []
    server_free_at = 0.0
    last_finish = 0.0
    shard_free = {}
    index = 0
    total = len(arrivals)

    def admit(query) -> None:
        clock.advance_to(query.arrival)
        if len(pending) >= config.max_queue:
            results[query.query_id] = QueryResult(
                query_id=query.query_id, status="rejected", arrival=query.arrival
            )
        else:
            pending.append(query)

    while index < total or pending:
        if not pending:
            admit(arrivals[index])
            index += 1
            continue
        full_time = (
            pending[config.max_batch_size - 1].arrival
            if len(pending) >= config.max_batch_size
            else math.inf
        )
        fire = max(min(pending[0].arrival + config.max_wait, full_time),
                   server_free_at)
        if index < total and arrivals[index].arrival <= fire:
            admit(arrivals[index])
            index += 1
            continue
        clock.advance_to(fire)
        batch = pending[: config.max_batch_size]
        del pending[: config.max_batch_size]
        report = service.match_batch([q.record for q in batch])
        shard_works = tuple(getattr(report, "shards", ()) or ())
        batch_extra = {}
        if shard_works:
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
        last_finish = max(last_finish, finish)
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
    clock.advance_to(max(server_free_at, last_finish))
    return SimReport(
        config=config,
        results=[results[q.query_id] for q in sorted(queries, key=lambda q: q.query_id)],
        batches=batches,
        duration=clock.now,
    )


class ReferenceGateway(Gateway):
    """``Gateway`` with the loop, dispatch and metrics maps it replaced."""

    def metrics_snapshot(self) -> dict:
        def stats(lat_map):
            out = {}
            for key in sorted(lat_map):
                ordered = sorted(lat_map[key])
                out[key] = {
                    "completed": len(ordered),
                    "p50_ms": round(percentile(ordered, 50) * 1e3, 6),
                    "p95_ms": round(percentile(ordered, 95) * 1e3, 6),
                    "p99_ms": round(percentile(ordered, 99) * 1e3, 6),
                }
            return out

        routes = stats(self._lat_by_route)
        for route in sorted(self._shed_by_route):
            routes.setdefault(route, {"completed": 0})
        for route in routes:
            routes[route]["shed"] = self._shed_by_route.get(route, 0)
        return {
            "completed": sum(len(v) for v in self._lat_by_route.values()),
            "shed": sum(self._shed_by_route.values()),
            "routes": routes,
            "tenants": stats(self._lat_by_tenant),
        }

    def run(self, requests, *, clock=None) -> GatewayReport:
        clock = clock or SimClock()
        arrivals = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        seen_ids = {}
        for request in arrivals:
            if request.request_id in seen_ids:
                raise ValueError(f"duplicate request_id {request.request_id}")
            seen_ids[request.request_id] = True
            if request.route not in self._routers:
                raise ValueError(
                    f"request {request.request_id} targets unknown route "
                    f"{request.route!r}; installed: {self.routes}"
                )

        admission = AdmissionController(self.config.admission)
        scheduler = make_scheduler(
            self.config.policy,
            quantum=self.config.quantum,
            weights=self.config.tenant_weights,
        )
        valve = self.config.make_valve()
        self._scheduler = scheduler
        self._valve = valve
        self._results = {}
        self._groups = []
        self._lat_by_route = {}
        self._lat_by_tenant = {}
        self._shed_by_route = {}
        server_free = 0.0
        index = 0
        total = len(arrivals)

        def admit(request) -> None:
            clock.advance_to(request.arrival)
            decision = admission.decide(request.route, request.arrival)
            if decision.admitted:
                scheduler.enqueue(request)
            else:
                self._results[request.request_id] = RequestResult(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    route=request.route,
                    priority=request.priority,
                    status="shed",
                    arrival=request.arrival,
                    deadline=request.deadline,
                )
                self._shed_by_route[request.route] = (
                    self._shed_by_route.get(request.route, 0) + 1
                )
            if valve is not None:
                valve.observe(clock.now, scheduler.online_depth())

        while index < total or scheduler.has_pending:
            fire = max(server_free, clock.now)
            if index < total and arrivals[index].arrival <= fire:
                admit(arrivals[index])
                index += 1
                continue
            if scheduler.has_pending:
                batch_ok = (
                    valve.batch_allowed(fire, scheduler.online_depth())
                    if valve is not None else True
                )
                if scheduler.has_dispatchable(batch_ok):
                    clock.advance_to(fire)
                    server_free = self._reference_dispatch(fire, scheduler, valve, batch_ok)
                    continue
                wake = valve.resume_time() if valve is not None else None
                if wake is not None and (
                    index >= total or wake < arrivals[index].arrival
                ):
                    clock.advance_to(max(wake, fire))
                    continue
            if index < total:
                admit(arrivals[index])
                index += 1
                continue
            raise RuntimeError(
                "gateway stalled: batch work pending, valve paused with "
                "no resume candidate, and no arrivals left"
            )
        clock.advance_to(max(server_free, clock.now))
        return GatewayReport(
            policy=self.config.policy,
            results=[
                self._results[r.request_id]
                for r in sorted(requests, key=lambda r: r.request_id)
            ],
            groups=self._groups,
            duration=clock.now,
            valve=(
                {**valve.snapshot(), "events": list(valve.events)}
                if valve is not None else None
            ),
        )

    def _reference_dispatch(self, fire, scheduler, valve, batch_ok) -> float:
        group = scheduler.next_group(self.config.max_batch_size, batch_ok)
        router = retry_call(
            self._resolve_router,
            group.route,
            site="gateway.route",
            policy=HOT_POLICY,
            validate=_valid_router(group.route),
        )
        outcome = retry_call(
            router.handle_group,
            group.requests,
            site="gateway.dispatch",
            policy=HOT_POLICY,
            validate=_valid_outcome(len(group.requests)),
        )
        route_cost = self._route_costs.get(group.route, RouteCost())
        cost = (
            route_cost.base
            + route_cost.per_request * len(group.requests)
            + route_cost.per_work * outcome.work
            + route_cost.per_embed * outcome.embed_misses
        )
        finish = fire + cost
        group_id = len(self._groups)
        self._groups.append({
            "group_id": group_id,
            "route": group.route,
            "tenant": group.tenant,
            "priority": group.priority,
            "fire": fire,
            "finish": finish,
            "size": len(group.requests),
            "work": outcome.work,
            "embed_misses": outcome.embed_misses,
            "cost": cost,
        })
        for request, answer in zip(group.requests, outcome.answers):
            self._results[request.request_id] = RequestResult(
                request_id=request.request_id,
                tenant=request.tenant,
                route=request.route,
                priority=request.priority,
                status="ok",
                arrival=request.arrival,
                deadline=request.deadline,
                start=fire,
                finish=finish,
                group_id=group_id,
                answer=answer,
            )
            latency = finish - request.arrival
            self._lat_by_route.setdefault(request.route, []).append(latency)
            self._lat_by_tenant.setdefault(request.tenant, []).append(latency)
        if valve is not None:
            valve.observe(fire, scheduler.online_depth())
        return finish
