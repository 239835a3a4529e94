"""Deficit-round-robin multi-tenant fairness.

Classic DRR (Shreedhar & Varghese) over per-tenant FIFO queues: each
tenant's turn adds ``quantum × weight`` to its deficit counter, and the
tenant may dispatch requests while the deficit covers their
``cost_units``.  An emptied queue forfeits its remaining deficit, so a
tenant cannot bank idle time; a backlogged tenant's deficit grows every
rotation until even its most expensive head request becomes affordable —
DRR is starvation-free by construction.

Determinism contract: the rotation order is the *sorted tenant ids* of
the currently backlogged tenants, and the round-robin cursor is tracked
by tenant id (not list position), so the schedule is byte-reproducible —
ties between tenants are always broken by tenant id, never by dict or
arrival-bookkeeping order.

One dispatch group is one tenant's head-run of same-route requests (the
gateway coalesces a group into a single router call, e.g. one
``match_batch``).  Groups never mix tenants: cross-tenant coalescing
would let a greedy tenant ride along on every other tenant's turn,
which is exactly what DRR exists to prevent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["DeficitRoundRobin", "DispatchGroup"]


@dataclass(frozen=True)
class DispatchGroup:
    """A coalesced unit of dispatch: same tenant, same route, same class."""

    requests: tuple
    route: str
    tenant: str
    priority: str

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a DispatchGroup must carry at least one request")


class DeficitRoundRobin:
    """DRR scheduler over per-tenant FIFO queues for one priority class."""

    def __init__(self, quantum: float = 4.0, weights: "dict[str, float] | None" = None) -> None:
        if not quantum > 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        self._weights = dict(weights or {})
        for tenant in sorted(self._weights):
            if not self._weights[tenant] > 0:
                raise ValueError(
                    f"tenant weight must be > 0, got {self._weights[tenant]} "
                    f"for {tenant!r}"
                )
        self.quantum = float(quantum)
        self._queues: "dict[str, deque]" = {}
        self._deficits: "dict[str, float]" = {}
        self._resume_after: str | None = None

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def enqueue(self, request) -> None:
        self._queues.setdefault(request.tenant, deque()).append(request)

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def pending_by_tenant(self) -> "dict[str, int]":
        return {t: len(self._queues[t]) for t in sorted(self._queues) if self._queues[t]}

    def next_group(self, max_batch: int) -> DispatchGroup | None:
        """Dequeue the next tenant's affordable head-run, or ``None``."""
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        backlogged = sorted(t for t in self._queues if self._queues[t])
        if not backlogged:
            return None
        # Rotation starts strictly after the cursor tenant, wrapping; a
        # cursor pointing at a now-idle tenant still lands correctly
        # because the comparison is by id, not position.
        if self._resume_after is None:
            order = backlogged
        else:
            after = [t for t in backlogged if t > self._resume_after]
            order = after + [t for t in backlogged if t <= self._resume_after]
        while True:
            for tenant in order:
                queue = self._queues[tenant]
                self._deficits[tenant] = (
                    self._deficits.get(tenant, 0.0) + self.quantum * self.weight(tenant)
                )
                taken: "list" = []
                route = queue[0].route
                while (
                    queue
                    and len(taken) < max_batch
                    and queue[0].route == route
                    and queue[0].cost_units <= self._deficits[tenant]
                ):
                    request = queue.popleft()
                    self._deficits[tenant] -= request.cost_units
                    taken.append(request)
                if not queue:
                    # Forfeit: an idle tenant must not bank credit.
                    self._deficits[tenant] = 0.0
                if taken:
                    self._resume_after = tenant
                    return DispatchGroup(
                        requests=tuple(taken),
                        route=route,
                        tenant=tenant,
                        priority=taken[0].priority,
                    )
            # No head request was affordable this rotation; every visited
            # deficit just grew by quantum × weight, so a later rotation
            # must succeed — bounded by max(cost_units)/quantum rounds.
