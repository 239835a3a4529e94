"""The gateway: one deterministic front door for the whole curation stack.

:class:`Gateway` fronts already-built curation components (match
service, FD repairer, column matcher) behind named routes on the
simulated clock.  A request carries ``(tenant, route, priority,
deadline)``; its life is

1. **admission** — the per-route token bucket
   (:mod:`repro.gateway.admission`) admits or sheds it at arrival, under
   fault site ``gateway.admit``;
2. **scheduling** — the two-class scheduler
   (:mod:`repro.gateway.scheduler`) queues it; interactive strictly
   precedes batch, deficit round robin (:mod:`repro.gateway.tenancy`)
   arbitrates tenants, and the backpressure valve
   (:mod:`repro.gateway.backpressure`) holds batch groups back while the
   interactive queue is above high water;
3. **dispatch** — a same-tenant same-route group becomes one router call
   (fault sites ``gateway.route`` for resolution, ``gateway.dispatch``
   for execution), occupying the single simulated server for the cost
   model's price.

:meth:`Gateway.run` is a policy for the discrete-event core that
:func:`repro.serve.sim.simulate` runs too
(:func:`repro.serve.clock.run_events`): arrivals order before service
events at equal timestamps, nothing reads wall clocks or ambient
randomness, and the same requests + config replay the exact same
schedule — including which requests get shed and when the valve flips.

**Routing never changes answers.**  Every answer is produced by the same
read-only component call an offline caller would make; the gateway
decides *when* work runs, never *what* it computes.  The differential
tests (gateway ≡ service ≡ offline ``predict_proba``) and the
per-scenario ``answers_sha1`` in BENCH_E19 hold the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.faults.retry import HOT_POLICY, retry_call
from repro.gateway.admission import AdmissionController
from repro.gateway.backpressure import BackpressureValve
from repro.gateway.routers.base import Router, RouterOutcome
from repro.gateway.routers.health import HealthRouter
from repro.gateway.routers.metrics import MetricsRouter
from repro.gateway.scheduler import CLASSES, make_scheduler
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.serve.clock import RunReport, RunResult, SimClock, order_arrivals, run_events
from repro.utils.content import digest_rows
from repro.utils.stats import percentile
from repro.utils.validation import check_positive_int

__all__ = [
    "DEFAULT_ROUTE_COSTS",
    "Gateway",
    "GatewayConfig",
    "GatewayReport",
    "GatewayRequest",
    "RequestResult",
    "RouteCost",
]


@dataclass(frozen=True)
class GatewayRequest:
    """One request: who (tenant), what (route + payload), how urgent.

    ``deadline`` is an *absolute* simulated timestamp and is SLO
    metadata only — the gateway reports ``deadline_met`` but never drops
    expired requests, because expiry-dropping would make *what* is
    answered depend on the scheduling policy and break the one-digest-
    per-scenario contract.  ``cost_units`` is the DRR accounting weight
    (how much of a tenant's deficit the request consumes).
    """

    request_id: int
    tenant: str
    route: str
    priority: str = "interactive"
    arrival: float = 0.0
    deadline: float = math.inf
    payload: dict = field(default_factory=dict, compare=False)
    cost_units: float = 1.0

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ValueError(f"request_id must be >= 0, got {self.request_id}")
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        if not self.route:
            raise ValueError("route must be a non-empty string")
        if self.priority not in CLASSES:
            raise ValueError(
                f"priority must be one of {CLASSES}, got {self.priority!r}"
            )
        if not self.arrival >= 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.arrival == math.inf:  # the run's duration would be inf
            raise ValueError(f"arrival must be finite, got {self.arrival}")
        if not self.deadline >= self.arrival:
            raise ValueError(
                f"deadline must be >= arrival, got deadline={self.deadline} "
                f"< arrival={self.arrival}"
            )
        if not self.cost_units > 0:
            raise ValueError(f"cost_units must be > 0, got {self.cost_units}")
        if self.cost_units == math.inf:  # no DRR deficit ever affords it
            raise ValueError(f"cost_units must be finite, got {self.cost_units}")


@dataclass
class RequestResult(RunResult):
    """Terminal state of one request: completed with an answer, or shed."""

    request_id: int
    tenant: str
    route: str
    priority: str
    status: str  # "ok" | "shed"
    arrival: float
    deadline: float = math.inf
    start: float | None = None
    finish: float | None = None
    group_id: int | None = None
    answer: object | None = None

    @property
    def deadline_met(self) -> bool | None:
        """Did the answer arrive by the deadline?  None for shed requests."""
        if self.finish is None:
            return None
        return self.finish <= self.deadline


@dataclass(frozen=True)
class RouteCost:
    """Simulated seconds one dispatched group costs on a route.

    ``cost = base + per_request·|group| + per_work·outcome.work
    + per_embed·outcome.embed_misses`` — the match entries mirror the
    kernel-calibrated :class:`repro.serve.sim.ServerConfig` constants so
    gateway latencies stay comparable with E17's rows.
    """

    base: float = 0.002
    per_request: float = 0.0004
    per_work: float = 0.0
    per_embed: float = 0.0

    def __post_init__(self) -> None:
        if not all(term >= 0 for term in (self.base, self.per_request, self.per_work, self.per_embed)):
            raise ValueError("route cost terms must be >= 0")


# Kernel-calibrated defaults (see bench_micro_substrate / E17's "kernel
# cost" rows): match prices scored pairs + embedding misses exactly like
# ServerConfig(cost_per_miss=5e-5, cost_per_embed=2e-4); clean prices
# cells examined; discover prices column pairs; health/metrics are tiny.
DEFAULT_ROUTE_COSTS: "dict[str, RouteCost]" = {
    "match": RouteCost(base=0.002, per_request=0.0004, per_work=0.00005, per_embed=0.0002),
    "clean": RouteCost(base=0.002, per_request=0.0005, per_work=0.00002),
    "discover": RouteCost(base=0.002, per_request=0.0005, per_work=0.0002),
    "health": RouteCost(base=0.0002, per_request=0.0001),
    "metrics": RouteCost(base=0.0002, per_request=0.0001),
}


@dataclass(frozen=True)
class GatewayConfig:
    """Scheduling policy, fairness, admission and backpressure knobs.

    ``admission`` maps route names to ``(rate, burst)`` token-bucket
    policies (absent routes are never shed).  ``high_water``/
    ``low_water``/``cooldown`` configure the backpressure valve; a
    ``None`` high water disables it.  ``route_costs`` entries override
    :data:`DEFAULT_ROUTE_COSTS` per route.
    """

    policy: str = "priority"
    max_batch_size: int = 8
    quantum: float = 4.0
    tenant_weights: "dict[str, float] | None" = None
    admission: "dict[str, tuple[float, int]] | None" = None
    high_water: int | None = None
    low_water: int = 0
    cooldown: float = 0.0
    route_costs: "dict[str, RouteCost] | None" = None

    def __post_init__(self) -> None:
        if self.policy not in ("priority", "fifo"):
            raise ValueError(
                f"policy must be 'priority' or 'fifo', got {self.policy!r}"
            )
        check_positive_int("max_batch_size", self.max_batch_size)
        if not self.quantum > 0:
            raise ValueError(f"quantum must be > 0, got {self.quantum}")

    def make_valve(self) -> BackpressureValve | None:
        if self.high_water is None:
            return None
        return BackpressureValve(self.high_water, self.low_water, self.cooldown)


@dataclass
class GatewayReport(RunReport):
    """Everything one gateway run produced, in deterministic order;
    latencies narrow by the keywords ``route``, ``tenant`` and ``priority``."""

    policy: str
    results: "list[RequestResult]" = field(default_factory=list)
    groups: "list[dict]" = field(default_factory=list)
    duration: float = 0.0
    valve: dict | None = None

    def _select(self, route=None, tenant=None, priority=None):
        return [
            r for r in self.completed
            if (route is None or r.route == route)
            and (tenant is None or r.tenant == tenant)
            and (priority is None or r.priority == priority)
        ]

    def deadline_hit_rate(self, *, route=None, tenant=None, priority=None) -> float:
        """Fraction of matching completed requests that met their deadline."""
        selected = self._select(route, tenant, priority)
        if not selected:
            return 0.0
        return sum(1 for r in selected if r.deadline_met) / len(selected)

    def completed_share(self, first: int | None = None) -> "dict[str, float]":
        """Per-tenant share of completions, in completion order.

        ``first`` restricts to the earliest ``first`` completions (by
        finish time, request id as the deterministic tie-break) — the
        fairness metric that matters *under contention*, before the
        work-conserving server has drained every queue.
        """
        ordered = sorted(self.completed, key=lambda r: (r.finish, r.request_id))
        if first is not None:
            ordered = ordered[:first]
        counts: "dict[str, int]" = {}
        for result in ordered:
            counts[result.tenant] = counts.get(result.tenant, 0) + 1
        total = len(ordered)
        return {t: counts[t] / total for t in sorted(counts)} if total else {}

    def answers(self, route: str = "match") -> "list":
        """Completed answers on ``route``, ordered by request id."""
        return [r.answer for r in self.completed if r.route == route]

    def answers_digest(self, route: str = "match") -> str:
        """One sha1 over the route's answers — the "same answers" witness.

        Uses the shared :func:`repro.utils.digest_rows` quantization, so
        digests are comparable with :func:`repro.loop.answers_digest`
        over the same answer sequence.
        """
        rows = []
        for result in self.completed:
            if result.route != route:
                continue
            answer = result.answer
            payload = answer.to_dict() if hasattr(answer, "to_dict") else answer
            rows.append({"request_id": result.request_id, "answer": payload})
        return digest_rows(rows)


def _valid_router(route: str):
    def check(router: object) -> bool:
        return getattr(router, "name", None) == route and callable(
            getattr(router, "handle_group", None)
        )
    return check


def _valid_outcome(size: int):
    def check(outcome: object) -> bool:
        return (
            isinstance(outcome, RouterOutcome)
            and len(outcome.answers) == size
            and outcome.work >= 0.0
            and outcome.embed_misses >= 0
        )
    return check


class Gateway:
    """Deterministic multi-tenant front door over curation routers.

    ``routers`` is an iterable of :class:`Router` instances (keyed by
    their ``name``); a :class:`HealthRouter` and :class:`MetricsRouter`
    are installed automatically unless the caller provides their own.
    ``registry`` (optional) is a :class:`repro.loop.ModelRegistry` whose
    snapshot the health route exposes.
    """

    def __init__(
        self,
        routers,
        *,
        config: GatewayConfig | None = None,
        registry=None,
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.registry = registry
        self._routers: "dict[str, Router]" = {}
        for router in routers:
            name = getattr(router, "name", None)
            if not name or not callable(getattr(router, "handle_group", None)):
                raise ValueError(f"not a router (need .name and .handle_group): {router!r}")
            if name in self._routers:
                raise ValueError(f"duplicate router for route {name!r}")
            self._routers[name] = router
        if "health" not in self._routers:
            self._routers["health"] = HealthRouter(self)
        if "metrics" not in self._routers:
            self._routers["metrics"] = MetricsRouter(self)
        self._route_costs = {**DEFAULT_ROUTE_COSTS, **(self.config.route_costs or {})}
        self._scheduler = None
        self._valve: BackpressureValve | None = None
        self._results: "dict[int, RequestResult]" = {}
        self._groups: "list[dict]" = []

    @property
    def routes(self) -> "list[str]":
        return sorted(self._routers)

    # ------------------------------------------------------------------ #
    # snapshots (health / metrics routes)
    # ------------------------------------------------------------------ #

    def health_snapshot(self) -> dict:
        """Liveness + registry/valve/fingerprint state, all deterministic."""
        snapshot: dict = {
            "status": "ok",
            "policy": self.config.policy,
            "routes": self.routes,
            "depth": dict(self._scheduler.depths()) if self._scheduler is not None else {},
        }
        match_router = self._routers.get("match")
        service = getattr(match_router, "service", None)
        if service is not None:
            snapshot["fingerprint"] = service.parameter_fingerprint()
        if self._valve is not None:
            snapshot["valve"] = self._valve.snapshot()
        if self.registry is not None:
            active = self.registry.active
            snapshot["registry"] = {
                "versions": [v.version_id for v in self.registry.versions],
                "active": active.version_id if active is not None else None,
            }
        return snapshot

    def metrics_snapshot(self) -> dict:
        """Per-route / per-tenant completions and latency percentiles so far."""
        so_far = GatewayReport(self.config.policy, results=list(self._results.values()))

        def stats(key: str) -> "dict[str, dict]":
            out = {}
            for value in sorted({getattr(r, key) for r in so_far.completed}):
                ordered = so_far.latencies(**{key: value})
                out[value] = {"completed": len(ordered)}
                for q in (50, 95, 99):
                    out[value][f"p{q}_ms"] = round(percentile(ordered, q) * 1e3, 6)
            return out

        shed = [r.route for r in so_far.shed]
        routes = stats("route")
        for route in sorted(set(shed)):
            routes.setdefault(route, {"completed": 0})
        for route in routes:
            routes[route]["shed"] = shed.count(route)
        return {
            "completed": len(so_far.completed),
            "shed": len(shed),
            "routes": routes,
            "tenants": stats("tenant"),
        }

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        requests: "list[GatewayRequest]",
        *,
        clock: SimClock | None = None,
    ) -> GatewayReport:
        """Play ``requests`` through admission → scheduling → dispatch."""
        clock = clock or SimClock()
        arrivals = order_arrivals(requests, "request_id")
        for request in arrivals:
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
        server_free = 0.0

        def admit(request: GatewayRequest) -> None:
            if _OBS.enabled:
                _OBS.counter("gateway.requests").inc()
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
            if valve is not None:
                valve.observe(clock.now, scheduler.online_depth())

        def next_service() -> float | None:
            if not scheduler.has_pending:
                return None
            fire = max(server_free, clock.now)
            if valve is None or not valve.paused or scheduler.has_dispatchable(False):
                return fire
            # Only valve-held batch work is pending: it runs once the
            # cooldown dwell completes, if one is under way.
            resume = valve.resume_time()
            return max(resume, fire) if resume is not None else None

        def serve(fire: float) -> float:
            nonlocal server_free
            server_free = self._dispatch(fire, scheduler, valve)
            return server_free

        with span("gateway.run", requests=len(arrivals), policy=self.config.policy) as run_span:
            run_events(arrivals, clock, admit, next_service, serve)
            if scheduler.has_pending:
                raise RuntimeError(
                    "gateway stalled: batch work pending, valve paused with "
                    "no resume candidate, and no arrivals left"
                )
            report = GatewayReport(
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
            run_span.meta.update({
                "completed": len(report.completed),
                "shed": len(report.shed),
                "groups": len(report.groups),
                "simulated_duration": round(report.duration, 6),
                "valve_pauses": valve.pauses if valve is not None else 0,
            })
        if _OBS.enabled:
            _OBS.gauge("gateway.duration_seconds").set(report.duration)
        return report

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _resolve_router(self, route: str) -> Router:
        """Pure route-table lookup (the ``gateway.route`` fault site)."""
        return self._routers[route]

    def _dispatch(self, fire, scheduler, valve) -> float:
        # batch_allowed resumes a due dwell, so it is asked only here,
        # after every arrival up to ``fire`` was observed.
        batch_ok = valve.batch_allowed(fire, scheduler.online_depth()) if valve is not None else True
        group = scheduler.next_group(self.config.max_batch_size, batch_ok)
        router = retry_call(
            self._resolve_router,
            group.route,
            site="gateway.route",
            policy=HOT_POLICY,
            validate=_valid_router(group.route),
        )
        # An injected error here fires *before* the router touches its
        # component — the dead-router model; the retry replays the same
        # pure group call, so a recovered dispatch is bit-identical.
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
        if _OBS.enabled:
            _OBS.counter("gateway.groups").inc()
            _OBS.counter("gateway.dispatched").inc(float(len(group.requests)))
        if valve is not None:
            valve.observe(fire, scheduler.online_depth())
        return finish
