"""Deterministic order statistics shared by the serving and gateway layers.

:func:`percentile` is the single nearest-rank implementation behind
``RunReport.latency_percentiles`` (:mod:`repro.serve.clock`, shared by
the simulator's and the gateway's reports) and the gateway's
per-route/per-tenant metrics snapshot (:mod:`repro.gateway`).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["percentile"]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty).

    Nearest-rank (ceil) rather than interpolation: the result is always an
    observed value, which keeps reported tail latencies honest and the
    arithmetic trivially bit-stable.  The rank is ⌈q·n/100⌉ computed
    exactly for ``q`` as written (``99.9`` is 999/10): in floating point,
    ``7 / 100.0 * 100`` rounds up past 7 and would pick the 8th value.
    """
    if not ordered:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(Fraction(str(q)) * len(ordered) / 100)
    return ordered[rank - 1]
