"""Seeded multi-tenant, multi-route gateway traffic (open loop, diurnal).

A scenario is a list of :class:`RequestStream`\\ s — one per (tenant,
route, priority) traffic source.  Each stream draws open-loop Poisson
arrivals whose rate follows an optional *diurnal profile*: ``phases``
is a cycle of ``(duration, multiplier)`` segments, so ``((0.5, 4.0),
(0.5, 0.25))`` alternates half-second peaks at 4× the base rate with
half-second troughs at a quarter of it.  Arrivals and payload repeats
come from the serving workload's drawer
(:func:`repro.serve.workload.draw_arrivals` /
:func:`~repro.serve.workload.draw_repeats`), so both front doors draw
traffic one way.

Every stream gets its own ``np.random.Generator`` seeded from
``SeedSequence([0x6A7E, seed, stream_index])``, so adding a stream never
perturbs the arrivals of existing ones.  The merged sequence is ordered
by ``(arrival, stream_index, per-stream sequence)`` and request ids are
assigned in that merged order — byte-reproducible, with deterministic
tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gateway.api import GatewayRequest
from repro.serve.workload import draw_arrivals, draw_repeats
from repro.utils.validation import check_positive_int

__all__ = ["RequestStream", "generate_requests"]

_GATEWAY_SALT = 0x6A7E  # "GATE", keeps gateway traffic rng disjoint from serve's


@dataclass(frozen=True)
class RequestStream:
    """One tenant's traffic on one route.

    ``payloads`` is the pool of payload dicts requests draw from
    (uniformly, with ``repeat_fraction`` re-issuing an earlier draw —
    the cache-hit knob); an empty pool sends empty payloads, which is
    what the health/metrics routes want.  ``deadline`` is a *relative*
    SLO in simulated seconds (absolute deadline = arrival + deadline).
    """

    tenant: str
    route: str
    n_requests: int
    rate: float
    priority: str = "interactive"
    start: float = 0.0
    phases: tuple = ()
    deadline: float = math.inf
    repeat_fraction: float = 0.0
    cost_units: float = 1.0
    payloads: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        check_positive_int("n_requests", self.n_requests)
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not self.start >= 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ValueError(
                f"repeat_fraction must be in [0, 1], got {self.repeat_fraction}"
            )
        if not self.deadline > 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        for phase in self.phases:
            duration, multiplier = phase
            if not (duration > 0 and multiplier > 0):
                raise ValueError(
                    f"phases need positive (duration, multiplier), got {phase}"
                )


def generate_requests(
    streams: "list[RequestStream]", seed: int = 0
) -> "list[GatewayRequest]":
    """Merge every stream's arrivals into one id-stamped request list."""
    if not streams:
        raise ValueError("need at least one request stream")
    stamped: "list[tuple[float, int, int, RequestStream, dict]]" = []
    for stream_index, stream in enumerate(streams):
        rng = np.random.default_rng(
            np.random.SeedSequence([_GATEWAY_SALT, int(seed), stream_index])
        )
        arrivals = draw_arrivals(
            rng, stream.n_requests, stream.rate, stream.start, stream.phases
        )
        picks = draw_repeats(
            rng, stream.n_requests, len(stream.payloads), stream.repeat_fraction
        ) if stream.payloads else ()
        for sequence, arrival in enumerate(arrivals):
            payload = stream.payloads[picks[sequence]] if picks else {}
            stamped.append((arrival, stream_index, sequence, stream, payload))
    stamped.sort(key=lambda item: (item[0], item[1], item[2]))
    requests: "list[GatewayRequest]" = []
    for request_id, (arrival, _, _, stream, payload) in enumerate(stamped):
        requests.append(GatewayRequest(
            request_id=request_id,
            tenant=stream.tenant,
            route=stream.route,
            priority=stream.priority,
            arrival=arrival,
            deadline=arrival + stream.deadline,
            payload=payload,
            cost_units=stream.cost_units,
        ))
    return requests
