"""repro.kernels: batched matrix-op rewrites of the ER scoring hot path.

The compute core of distributed-representation matching (paper
Section 5.2) is pair scoring: compose each tuple's attribute embeddings,
build similarity features per pair, run a classifier.  Executed one pair
at a time in Python that path dominated serving latency (BENCH_E17);
this package re-expresses it as one gather + one reduction + one matmul
per micro-batch, **provably** equivalent to the loops it replaces:

* :mod:`repro.kernels.features` — batched attribute-aligned pair
  features, bit-identical to the per-pair loop in float mode, with
  content-keyed deduplication so repeated tuples are composed once and
  per-row terms (norms, unit vectors) computed once per distinct row;
* :mod:`repro.kernels.score` — one classifier forward + sigmoid per
  batch, matching ``DeepER.predict_proba`` digit for digit.

The differential test tier under ``tests/kernels/`` enforces the
equivalence claims against the loop references in
:mod:`repro.kernels.reference`, which no production module imports; run
it standalone with::

    PYTHONPATH=src python -m pytest tests/kernels -q
"""

from repro.kernels.features import (
    PairSide,
    compose_pair_features,
    pair_feature_matrix,
    unique_column_stack,
)
from repro.kernels.score import score_pairs, sigmoid

__all__ = [
    "PairSide",
    "compose_pair_features",
    "pair_feature_matrix",
    "score_pairs",
    "sigmoid",
    "unique_column_stack",
]
