"""Deterministic statistics shared across layers.

:func:`percentile` is the single nearest-rank implementation behind
``RunReport.latency_percentiles`` (:mod:`repro.serve.clock`, shared by
the simulator's and the gateway's reports) and the gateway's
per-route/per-tenant metrics snapshot (:mod:`repro.gateway`).
:func:`segment_sums` is the in-order row sum behind the token pass
(:mod:`repro.embeddings.compose`), the subword back-off
(:mod:`repro.text.subword`) and the SGNS update
(:mod:`repro.text.word2vec`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["percentile", "segment_sums"]


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


def segment_sums(
    rows: np.ndarray, segments: "np.ndarray | list[int]", n_segments: int
) -> np.ndarray:
    """``(n_segments, dim)`` sums of ``rows`` grouped by ``segments``.

    One weighted ``np.bincount`` over the ``(segment, dim)`` cells: it
    adds each row to its segment in input order, starting from +0.0 —
    the IEEE additions ``rows[segments == s].sum(axis=0)`` makes for
    ``dim >= 2``, signed zeros included.  (``np.add.reduceat`` does not
    keep that order.)  Segments without rows sum to zero.
    """
    dim = rows.shape[1]
    cells = np.add.outer(np.asarray(segments, dtype=np.intp) * dim, np.arange(dim))
    return np.bincount(
        cells.ravel(), weights=rows.ravel(), minlength=n_segments * dim
    ).reshape(n_segments, dim)
