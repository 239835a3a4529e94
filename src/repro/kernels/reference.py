"""Loop references the batched scoring path must reproduce bit for bit.

:func:`_pair_feature_row` is the per-pair reference for
:func:`repro.kernels.features.pair_feature_matrix`, and
:func:`loop_match_batch` the one-``predict_proba`` reference for
:meth:`repro.serve.MatchService.match_batch`.  The differential tests and
the micro bench compare against them; no module under ``repro`` imports
this one, so nothing here runs in production.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.compose import TupleEmbedder
from repro.kernels.features import COSINE_GUARD, NORM_GUARD
from repro.utils.content import content_key

__all__ = ["loop_match_batch"]


def _pair_feature_row(
    pair: "tuple[dict[str, object], dict[str, object]]", embedder: TupleEmbedder
) -> np.ndarray:
    """Attribute-aligned similarity features for one record pair.

    This is the **loop reference** of the kernel contract: the batched
    :func:`repro.kernels.features.pair_feature_matrix` must reproduce
    these rows bit for bit, which the differential tier asserts.  To make
    that possible every reduction here is a ``(x * y).sum()`` (numpy's
    pairwise summation, identical per row in scalar and batched form) —
    never ``np.linalg.norm`` or ``@``, whose BLAS accumulation order
    drifts in the last ulp.
    """
    record_a, record_b = pair
    u_cols = embedder.embed_columns(record_a)
    v_cols = embedder.embed_columns(record_b)
    parts = []
    for u, v in zip(u_cols, v_cols):
        norm_u = float(np.sqrt((u * u).sum()))
        norm_v = float(np.sqrt((v * v).sum()))
        unit_u = u / norm_u if norm_u > NORM_GUARD else u
        unit_v = v / norm_v if norm_v > NORM_GUARD else v
        parts.append(np.abs(unit_u - unit_v))
        if norm_u < COSINE_GUARD or norm_v < COSINE_GUARD:
            cos = 0.0
        else:
            cos = float((u * v).sum()) / (norm_u * norm_v)
        parts.append(np.array([cos]))
    return np.concatenate(parts)


def loop_match_batch(
    matcher, index, records: "list[dict[str, object]]", *, threshold: float = 0.5
) -> "tuple[list[dict], int]":
    """A cold batch's answers from one ``matcher.predict_proba`` call.

    Each distinct record (by content key) is embedded alone and probed in
    ``index``; every (record, candidate) pair is scored in one call — a
    GEMM's summation order follows its batch shape — in canonical order:
    keys first-seen first, candidate ids ascending.  Ties go to the
    first maximum, the smallest id.  Returns the answers in record order
    as ``MatchAnswer.to_dict()`` dicts, and the number of pairs scored.
    """
    keys = [content_key(record) for record in records]
    record_by_key = dict(zip(keys, records))
    candidates = {
        key: index.candidates(index.band_keys(index.embedder.embed(record)))
        for key, record in record_by_key.items()
    }
    pairs = [
        (record_by_key[key], index.record(c))
        for key, ids in candidates.items() for c in ids
    ]
    probabilities = matcher.predict_proba(pairs).tolist()
    answers: dict[str, dict] = {}
    start = 0
    for key, ids in candidates.items():
        scores = probabilities[start:start + len(ids)]
        start += len(ids)
        best = max(scores, default=0.0)
        answers[key] = {
            "query_key": key,
            "candidates": ids,
            "best_id": ids[scores.index(best)] if ids else None,
            "probability": best,
            "matched": bool(ids) and best >= threshold,
        }
    return [answers[key] for key in keys], len(pairs)
