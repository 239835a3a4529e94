"""repro.gateway: the curation stack as one deterministic multi-tenant service.

The paper's framing is curation-as-a-service: matching, cleaning and
discovery behind a single interface rather than offline scripts.  This
package is that interface — an async-shaped request/response gateway
running entirely on the simulated clock, so every admission decision,
scheduling choice and latency percentile is byte-reproducible:

* :mod:`repro.gateway.api` — :class:`Gateway`, the request model and its
  policy on the serving layer's discrete-event core (fault sites
  ``gateway.admit`` / ``gateway.route`` / ``gateway.dispatch``);
* :mod:`repro.gateway.admission` — per-route token-bucket admission with
  deterministic shedding;
* :mod:`repro.gateway.scheduler` — two-class priority (interactive over
  batch) plus the FIFO baseline;
* :mod:`repro.gateway.tenancy` — deficit-round-robin multi-tenant
  fairness with tenant-id tie-breaks;
* :mod:`repro.gateway.backpressure` — the high/low-water valve (with a
  cooldown dwell) that pauses batch work and `repro.loop` retrains while
  the online queue is hot;
* :mod:`repro.gateway.routers` — match / clean / discover / health /
  metrics route handlers over existing read-only components;
* :mod:`repro.gateway.workload` — seeded multi-tenant diurnal traffic,
  drawn with :mod:`repro.serve.workload`'s arrival drawer.

Gateway routing never changes *what* is answered — only *when*: answers
stay differentially equal to the offline components, and BENCH_E19 pins
one ``answers_sha1`` per scenario across scheduling policies.
"""

from repro.gateway.admission import AdmissionController, AdmitDecision, TokenBucket
from repro.gateway.api import (
    DEFAULT_ROUTE_COSTS,
    Gateway,
    GatewayConfig,
    GatewayReport,
    GatewayRequest,
    RequestResult,
    RouteCost,
)
from repro.gateway.backpressure import BackpressureValve
from repro.gateway.routers import (
    CleanRouter,
    DiscoverRouter,
    HealthRouter,
    MatchRouter,
    MetricsRouter,
    Router,
    RouterOutcome,
)
from repro.gateway.scheduler import CLASSES, FifoScheduler, TwoClassScheduler
from repro.gateway.tenancy import DeficitRoundRobin, DispatchGroup
from repro.gateway.workload import RequestStream, generate_requests

__all__ = [
    "AdmissionController",
    "AdmitDecision",
    "BackpressureValve",
    "CLASSES",
    "CleanRouter",
    "DEFAULT_ROUTE_COSTS",
    "DeficitRoundRobin",
    "DiscoverRouter",
    "DispatchGroup",
    "FifoScheduler",
    "Gateway",
    "GatewayConfig",
    "GatewayReport",
    "GatewayRequest",
    "HealthRouter",
    "MatchRouter",
    "MetricsRouter",
    "RequestResult",
    "RequestStream",
    "RouteCost",
    "Router",
    "RouterOutcome",
    "TokenBucket",
    "TwoClassScheduler",
    "generate_requests",
]
