"""Simulated clock, discrete-event core and run-report arithmetic.

The online path is *simulated-time* end to end: arrivals, batching
deadlines and service completions all advance a :class:`SimClock` instead
of reading ``time.perf_counter``.  That is what makes the serving bench
deterministic — latency percentiles are pure functions of the workload,
the server config and the cost model, so two runs (at any ``--jobs``)
produce byte-identical result rows.  Wall-clock time still exists in the
observability layer (spans time the real computation), but it never feeds
back into scheduling decisions or reported simulated latencies.

Both simulated front doors — :func:`repro.serve.sim.simulate` and
:meth:`repro.gateway.Gateway.run` — run the one event loop here
(:func:`run_events`) and supply only their policy, and both reports
share :class:`RunReport`'s arithmetic.
"""

from __future__ import annotations

from repro.utils.stats import percentile

__all__ = ["RunReport", "RunResult", "SimClock", "order_arrivals", "run_events"]


class SimClock:
    """Monotonic simulated clock (seconds as floats, starting at 0.0).

    Only two operations exist — relative :meth:`advance` and absolute
    :meth:`advance_to` — and both refuse to move backwards, so event loops
    built on the clock cannot accidentally reorder history.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds`` (>= 0); returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time ({seconds})")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move forward to ``timestamp`` (no-op when already past it)."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


def order_arrivals(items, id_field: str) -> list:
    """``items`` sorted by ``(arrival, id)``; a repeated id (which would
    overwrite one result with another) raises ``ValueError``."""
    ordered = sorted(items, key=lambda item: (item.arrival, getattr(item, id_field)))
    seen: set = set()
    for item in ordered:
        key = getattr(item, id_field)
        if key in seen:
            raise ValueError(f"duplicate {id_field} {key}")
        seen.add(key)
    return ordered


def run_events(arrivals: list, clock: SimClock, admit, next_service, serve) -> None:
    """Play time-ordered ``arrivals`` through one server's policy.

    ``admit(item)`` queues (or sheds) an arrival; ``next_service()`` is
    when the server would next serve, or None when nothing can be served;
    ``serve(at)`` serves once and returns when that work finishes.  At
    equal timestamps arrivals come before service, so simultaneous work
    coalesces.  Once no arrival is left and nothing can be served, the
    clock ends at the last finish.
    """
    index, drained = 0, 0.0
    while True:
        at = next_service()
        if index < len(arrivals) and (at is None or arrivals[index].arrival <= at):
            clock.advance_to(arrivals[index].arrival)
            admit(arrivals[index])
            index += 1
        elif at is None:
            clock.advance_to(drained)
            return
        else:
            clock.advance_to(at)
            drained = max(drained, serve(at))


class RunResult:
    """Base of a run's per-item result: ``status``, ``arrival``, ``finish``."""

    @property
    def latency(self) -> float | None:
        """Simulated arrival→completion latency; None when shed."""
        return None if self.finish is None else self.finish - self.arrival


class RunReport:
    """Base of a run's report: ``results`` (status ``"ok"`` when served,
    any other when shed) and ``duration``; :meth:`_select` narrows them."""

    @property
    def completed(self) -> list:
        return [r for r in self.results if r.status == "ok"]

    @property
    def shed(self) -> list:
        return [r for r in self.results if r.status != "ok"]

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / len(self.results) if self.results else 0.0

    @property
    def throughput(self) -> float:
        """Completed results per simulated second."""
        return len(self.completed) / self.duration if self.duration > 0 else 0.0

    def _select(self) -> list:
        return self.completed

    def latencies(self, **where) -> "list[float]":
        """Completed latencies (narrowed by ``where``), sorted ascending."""
        return sorted(r.latency for r in self._select(**where))

    def latency_percentiles(self, quantiles: tuple = (50, 95, 99), **where) -> "dict[int, float]":
        """Nearest-rank percentiles of simulated latency (0.0 when empty)."""
        ordered = self.latencies(**where)
        return {q: percentile(ordered, q) for q in quantiles}
