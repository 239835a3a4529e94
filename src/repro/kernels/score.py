"""Batched classifier scoring over precomputed column embeddings.

:func:`score_pairs` is the serving-side kernel: given the two
``(pairs, columns, dim)`` sides of a micro-batch it builds the feature
matrix with :func:`repro.kernels.features.pair_feature_matrix` and runs
**one** classifier forward — the same maths as
:meth:`repro.er.deeper.DeepER.predict_proba` on the same batch, without
re-tokenising or re-embedding any tuple.  The sigmoid matches
``predict_proba`` digit for digit (same clip bounds), so a serving
answer scored here is bit-equal to the offline probability.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.obs.metrics import REGISTRY as _OBS

from repro.kernels.features import PairSide, pair_feature_matrix

__all__ = ["score_pairs", "sigmoid"]


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Clipped logistic: the output map of ``DeepER.predict_proba``, of
    ``MatcherHead.predict_proba`` and of :func:`score_pairs`."""
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))


def score_pairs(
    classifier: Module, u_cols: "PairSide | np.ndarray", v_cols: "PairSide | np.ndarray"
) -> np.ndarray:
    """Match probabilities for a batch of column-embedded pairs.

    ``classifier`` is consumed as-is (no train/eval flipping — serving
    parks it in eval mode once); the caller guarantees both sides share
    the ``(pairs, columns, dim)`` shape, as :class:`PairSide` values
    (distinct rows plus a per-pair row index) or per-pair stacks.
    """
    features = pair_feature_matrix(u_cols, v_cols)
    if len(features) == 0:
        return np.zeros(0)
    logits = classifier(Tensor(features)).data
    if _OBS.enabled:
        _OBS.counter("kernels.score.pairs").inc(float(len(features)))
        _OBS.counter("kernels.score.calls").inc()
    return sigmoid(logits[:, 0])
