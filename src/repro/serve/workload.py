"""Seeded synthetic query workloads (open-loop arrivals, simulated clock).

The generator models the traffic an online ER service sees: queries
arrive according to a Poisson process (exponential inter-arrival gaps at
``rate`` queries per simulated second) regardless of how fast the server
drains them — *open loop*, so overload actually builds a queue instead of
politely self-throttling.  A ``repeat_fraction`` of queries re-issue an
earlier query's record, which is what gives the content-addressed caches
something to hit.

Everything is drawn from one ``np.random.Generator`` seeded from
``SeedSequence([0x5E17E, seed])``: same seed → byte-identical workload,
across runs and processes.  :func:`draw_arrivals` and
:func:`draw_repeats` are the one arrival drawer and repeat draw, shared
with the gateway's traffic generator (:mod:`repro.gateway.workload`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["Query", "WorkloadConfig", "draw_arrivals", "draw_repeats", "generate_workload"]

_WORKLOAD_SALT = 0x5E17E  # "SErVE", keeps workload rng disjoint from model rngs


@dataclass(frozen=True)
class Query:
    """One arriving request: a record to match, stamped with arrival time."""

    query_id: int
    arrival: float
    record: dict[str, object] = field(compare=False)

    def __post_init__(self) -> None:
        if not self.arrival >= 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.arrival == math.inf:  # the run's duration would be inf
            raise ValueError(f"arrival must be finite, got {self.arrival}")


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a synthetic workload.

    ``rate`` is the mean arrival rate in queries per *simulated* second;
    ``repeat_fraction`` is the probability that a query (after the first)
    re-issues a uniformly chosen earlier query's record.
    """

    n_queries: int
    rate: float
    repeat_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int("n_queries", self.n_queries)
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ValueError(
                f"repeat_fraction must be in [0, 1], got {self.repeat_fraction}"
            )


def draw_arrivals(rng, n: int, rate: float, start: float = 0.0, phases: tuple = ()) -> "list[float]":
    """``n`` open-loop Poisson arrival times after ``start``.

    With ``phases`` (a cycle of ``(duration, multiplier)`` segments),
    unit-rate exponential budgets are spent through the piecewise-constant
    rate curve — the time-change construction, exact and deterministic.
    """
    times: "list[float]" = []
    t = start
    if not phases:
        for gap in rng.exponential(1.0 / rate, size=n):
            t += float(gap)
            times.append(t)
        return times
    phase_index = 0
    phase_left = float(phases[0][0])
    for _ in range(n):
        budget = float(rng.exponential(1.0))
        while True:
            local_rate = rate * phases[phase_index][1]
            needed = budget / local_rate
            if needed <= phase_left:
                t += needed
                phase_left -= needed
                break
            budget -= phase_left * local_rate
            t += phase_left
            phase_index = (phase_index + 1) % len(phases)
            phase_left = float(phases[phase_index][0])
        times.append(t)
    return times


def draw_repeats(rng, n: int, pool: int, repeat_fraction: float) -> "list[int]":
    """``n`` uniform indices into ``range(pool)``; each after the first
    re-issues an earlier draw with probability ``repeat_fraction``."""
    issued: "list[int]" = []
    for _ in range(n):
        if issued and rng.random() < repeat_fraction:
            issued.append(issued[int(rng.integers(len(issued)))])
        else:
            issued.append(int(rng.integers(pool)))
    return issued


def generate_workload(
    records: list[dict[str, object]], config: WorkloadConfig
) -> list[Query]:
    """Draw an open-loop arrival sequence over ``records``.

    Returns queries ordered by arrival time (ties impossible: exponential
    gaps are strictly positive almost surely, and running sums keep
    float order).  The record *objects* are shared, not copied — the
    serving layer treats them as read-only.
    """
    if not records:
        raise ValueError("need at least one record to draw queries from")
    rng = np.random.default_rng(
        np.random.SeedSequence([_WORKLOAD_SALT, int(config.seed)])
    )
    arrivals = draw_arrivals(rng, config.n_queries, config.rate)
    picks = draw_repeats(rng, config.n_queries, len(records), config.repeat_fraction)
    return [Query(query_id=k, arrival=arrivals[k], record=records[i]) for k, i in enumerate(picks)]
