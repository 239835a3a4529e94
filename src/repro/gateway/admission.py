"""Per-route token-bucket admission control.

One :class:`TokenBucket` per configured route: a request is admitted when
the bucket holds at least one token (continuous refill at ``rate`` tokens
per simulated second, capped at ``burst``), and shed otherwise.  Routes
without a configured bucket are never shed here — the scheduler's queue
is the only limit.

Shedding is *deterministic*: the decision is a pure function of the
bucket state and the arrival timestamp, so the same workload sheds the
same requests every run.  The decision itself is computed by the pure
:meth:`TokenBucket.preview` under the validated fault site
``gateway.admit`` (retried under ``HOT_POLICY``) and only *committed* to
the bucket after the retry layer has accepted the return value — an
injected error or corrupted return never moves the bucket, so a
recovered run is bit-identical to a fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.retry import HOT_POLICY, retry_call
from repro.obs.metrics import REGISTRY as _OBS
from repro.utils.validation import check_positive_int

__all__ = ["AdmissionController", "AdmitDecision", "TokenBucket"]


@dataclass(frozen=True)
class AdmitDecision:
    """Outcome of one admission check: pure data, safe to recompute."""

    admitted: bool
    tokens_after: float
    at: float


def _valid_decision(result: object) -> bool:
    return (
        isinstance(result, AdmitDecision)
        and isinstance(result.admitted, bool)
        and isinstance(result.tokens_after, float)
        and result.tokens_after >= 0.0
    )


class TokenBucket:
    """Continuous-refill token bucket on simulated time."""

    def __init__(self, rate: float, burst: int) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        check_positive_int("burst", burst)
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._updated = 0.0

    def preview(self, now: float) -> AdmitDecision:
        """The admission decision at ``now`` — pure, nothing is consumed."""
        refilled = min(
            float(self.burst),
            self._tokens + max(0.0, now - self._updated) * self.rate,
        )
        if refilled >= 1.0:
            return AdmitDecision(admitted=True, tokens_after=refilled - 1.0, at=now)
        return AdmitDecision(admitted=False, tokens_after=refilled, at=now)

    def commit(self, decision: AdmitDecision) -> None:
        """Apply a previewed decision to the bucket state."""
        self._tokens = decision.tokens_after
        self._updated = decision.at


class AdmissionController:
    """Route name → optional :class:`TokenBucket`, with fault wiring.

    ``policies`` maps route names to ``(rate, burst)`` pairs; routes
    absent from the mapping are always admitted.
    """

    def __init__(self, policies: "dict[str, tuple[float, int]] | None" = None) -> None:
        self._buckets: "dict[str, TokenBucket]" = {}
        for route in sorted(policies or {}):
            rate, burst = (policies or {})[route]
            self._buckets[route] = TokenBucket(rate, burst)

    def decide(self, route: str, now: float) -> AdmitDecision:
        """Admit or shed one arrival on ``route`` at simulated time ``now``."""
        bucket = self._buckets.get(route)
        if bucket is None:
            decision = AdmitDecision(admitted=True, tokens_after=1.0, at=now)
        else:
            decision = retry_call(
                bucket.preview,
                now,
                site="gateway.admit",
                policy=HOT_POLICY,
                validate=_valid_decision,
            )
            bucket.commit(decision)
        if _OBS.enabled:
            if decision.admitted:
                _OBS.counter("gateway.admitted").inc()
            else:
                _OBS.counter("gateway.shed").inc()
        return decision
