"""High/low-water backpressure between the online path and batch work.

The :class:`BackpressureValve` watches the *interactive* queue depth and
gates everything that is allowed to steal server time from it: batch
dispatch groups inside the gateway, and — through
:meth:`retrain_allowed` — `repro.loop` background retrains outside it.

Semantics (all on simulated time, all deterministic):

* **pause** the moment observed depth reaches ``high_water``;
* **resume** only after depth has stayed at or below ``low_water``
  *continuously* for ``cooldown`` simulated seconds.

The cooldown dwell is what makes the valve useful under bursty traffic:
an open-loop burst drains to depth 0 for a few hundred microseconds
between micro-batches, and a pure high/low hysteresis would reopen in
every such gap — admitting a long batch job exactly where it does the
most damage.  Requiring the queue to *hold* below low water turns
"momentarily empty" and "actually in a trough" into different states.

The valve never drops or reorders work; it only decides *when* batch
groups may run, so answers are unaffected by construction.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY as _OBS

__all__ = ["BackpressureValve"]


class BackpressureValve:
    """Hysteresis valve with a cooldown dwell on the resume edge."""

    def __init__(self, high_water: int, low_water: int, cooldown: float = 0.0) -> None:
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1, got {high_water}")
        if not 0 <= low_water < high_water:
            raise ValueError(
                f"low_water must be in [0, high_water), got {low_water} "
                f"with high_water={high_water}"
            )
        if not cooldown >= 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.high_water = int(high_water)
        self.low_water = int(low_water)
        self.cooldown = float(cooldown)
        self.paused = False
        self.pauses = 0
        self.resumes = 0
        self.events: "list[dict]" = []
        self._candidate_since: float | None = None

    def observe(self, now: float, depth: int) -> None:
        """Feed one ``(time, interactive queue depth)`` observation."""
        if depth >= self.high_water:
            self._candidate_since = None
            if not self.paused:
                self.paused = True
                self.pauses += 1
                self.events.append({"at": now, "event": "pause", "depth": depth})
                if _OBS.enabled:
                    _OBS.counter("gateway.backpressure.pauses").inc()
            return
        if not self.paused:
            return
        if depth <= self.low_water:
            if self._candidate_since is None:
                self._candidate_since = now
            # Compare against the same sum resume_time() hands the event
            # loop as a wake-up: with ``now - since >= cooldown`` instead,
            # float rounding can make the dwell unsatisfiable at exactly
            # the announced wake time and spin the loop forever.
            if now >= self._candidate_since + self.cooldown:
                self._resume(now, depth)
        else:
            self._candidate_since = None

    def _resume(self, now: float, depth: int) -> None:
        self.paused = False
        self.resumes += 1
        self._candidate_since = None
        self.events.append({"at": now, "event": "resume", "depth": depth})
        if _OBS.enabled:
            _OBS.counter("gateway.backpressure.resumes").inc()

    def resume_time(self) -> float | None:
        """Earliest simulated time the dwell could complete, if any.

        The gateway takes this as its next service time when only
        valve-held batch work is pending: without it, a paused valve with
        an empty interactive queue would stall the run (nothing
        dispatchable, no arrival to advance the clock).
        """
        if self.paused and self._candidate_since is not None:
            return self._candidate_since + self.cooldown
        return None

    def batch_allowed(self, now: float, depth: int) -> bool:
        """May a batch group dispatch at ``now``?  Completes due dwells."""
        if (
            self.paused
            and self._candidate_since is not None
            and depth <= self.low_water
            and now >= self._candidate_since + self.cooldown
        ):
            self._resume(now, depth)
        return not self.paused

    def retrain_allowed(self) -> bool:
        """Gate for `repro.loop` background retrains (see ``retrain_gate``)."""
        return not self.paused

    def snapshot(self) -> dict:
        """Deterministic state summary for the health router."""
        return {
            "state": "paused" if self.paused else "open",
            "high_water": self.high_water,
            "low_water": self.low_water,
            "cooldown": self.cooldown,
            "pauses": self.pauses,
            "resumes": self.resumes,
        }
