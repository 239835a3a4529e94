"""Batched pair-feature kernels: one reduction per micro-batch.

The DeepER hot path (fixed compositions) turns a record pair into
attribute-aligned similarity features: per compare column, the
elementwise ``|û − v̂|`` of the unit-normalised attribute vectors plus
``cos(u, v)``.  The loop reference computes this one pair at a time in
Python (:func:`repro.kernels.reference._pair_feature_row`); these
kernels compute the identical features for a whole batch with numpy
array ops — one multiply/reduce over a ``(pairs, columns, dim)`` stack
instead of ``pairs × columns`` scalar loop iterations.

Bit-exactness contract
----------------------
Float-mode kernel output is **bit-identical** to the per-pair loop, not
merely close.  That only holds because both sides use the same IEEE
operations in the same order:

* norms and dot products reduce with ``(x * y).sum(axis=-1)`` — numpy's
  pairwise summation over the contiguous innermost axis is the same
  algorithm whether the array is one row or a batch.  ``np.linalg.norm``
  and ``@`` (BLAS) are **banned** in this path: BLAS reductions use a
  different accumulation order and drift in the last ulp;
* unit-normalisation and cosine are elementwise divisions, identical
  per-lane in scalar and array form;
* guarded lanes (zero-norm columns) select precomputed safe values via
  ``np.where`` with a sanitised denominator, so the selected lanes see
  exactly the scalar arithmetic and the unselected lanes never divide
  by zero;
* per-row terms — each column's norm and unit vector — are computed
  once per *distinct* row of a side (:class:`PairSide`) and gathered
  per pair; a gather copies values, so the per-pair steps (subtract,
  abs, dot, cosine) see exactly the operands the loop computes.

The differential tier (``tests/kernels/``) asserts this equivalence over
batch sizes 1/2/7/32/1000, empty input, duplicate pairs and ``bulk``'s
shape (16 query rows over a 155-row store, zero-norm rows on both
sides); any numpy change that breaks the assumption
fails loudly there.

Deduplicated composition
------------------------
:func:`compose_pair_features` additionally fixes a latent inefficiency
class of per-pair paths: a tuple appearing in many pairs (every serving
query versus its candidate set) had its attribute embeddings recomputed
per pair.  Here records are deduplicated by :func:`repro.utils.content.
content_key` first, embedded **once each**, and gathered per pair —
metrics-counted so tests can assert one composition per unique tuple per
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.embeddings.compose import TupleEmbedder
from repro.obs.metrics import REGISTRY as _OBS
# ``pmap`` stays a module attribute: wallbench's ``--trace`` wraps it by name.
from repro.par import pmap, pmap_chunks  # noqa: F401
from repro.utils.content import content_key

__all__ = [
    "PairSide",
    "compose_pair_features",
    "pair_feature_matrix",
    "unique_column_stack",
]

# Guard thresholds shared with the loop reference (repro.er.deeper):
# columns with norm <= NORM_GUARD are compared un-normalised, and cosine
# is defined as 0.0 when either side's norm is < COSINE_GUARD.
NORM_GUARD = 1e-9
COSINE_GUARD = 1e-12


@dataclass(frozen=True)
class PairSide:
    """One side of a pair batch: distinct rows plus each pair's row.

    ``rows`` is a ``(distinct, columns, dim)`` stack and ``index`` holds
    each pair's row in it, so ``rows[index]`` is the per-pair stack.
    ``shape`` and ``len`` are that per-pair stack's: ``(pairs, columns,
    dim)`` and ``pairs``.
    """

    rows: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.index.shape + self.rows.shape[1:]

    def __len__(self) -> int:
        return len(self.index)

    @classmethod
    def of(cls, side: "PairSide | np.ndarray") -> "PairSide":
        """``side`` itself, or a per-pair stack as one row per pair."""
        if isinstance(side, PairSide):
            return side
        rows = np.asarray(side)
        return cls(rows, np.arange(len(rows)))


def pair_feature_matrix(
    u_cols: "PairSide | np.ndarray", v_cols: "PairSide | np.ndarray"
) -> np.ndarray:
    """Batched attribute-aligned pair features.

    Parameters
    ----------
    u_cols / v_cols:
        The two sides of ``n`` pairs, each a :class:`PairSide` or a
        ``(n, columns, dim)`` stack of per-attribute embeddings.

    Returns
    -------
    ``(n, columns * (dim + 1))`` feature matrix laid out exactly like the
    per-pair loop: for each column, ``dim`` values of ``|û − v̂|``
    followed by one cosine.

    Each column's norm and unit vector are computed once per distinct
    row of a side; only the gather, subtract, abs, dot and cosine run
    per pair.
    """
    u, v = PairSide.of(u_cols), PairSide.of(v_cols)
    if u.shape != v.shape:
        raise ValueError(
            f"pair sides must share a shape, got {u.shape} != {v.shape}"
        )
    if len(u.shape) != 3:
        raise ValueError(f"expected (pairs, columns, dim), got shape {u.shape}")
    pairs, columns, dim = u.shape
    if pairs == 0:
        return np.zeros((0, columns * (dim + 1)))

    u_rows = np.asarray(u.rows, dtype=np.float64)
    v_rows = np.asarray(v.rows, dtype=np.float64)
    norm_u, unit_u = _row_terms(u_rows)
    norm_v, unit_v = _row_terms(v_rows)

    absdiff = unit_u[u.index] - unit_v[v.index]
    np.abs(absdiff, out=absdiff)

    # sum(axis=-1) == per-row sum(): same pairwise reduction as the loop.
    dots = (u_rows[u.index] * v_rows[v.index]).sum(axis=-1)
    pair_norm_u, pair_norm_v = norm_u[u.index], norm_v[v.index]
    defined = (pair_norm_u >= COSINE_GUARD) & (pair_norm_v >= COSINE_GUARD)
    denominator = np.where(defined, pair_norm_u * pair_norm_v, 1.0)
    cosine = np.where(defined, dots / denominator, 0.0)

    if _OBS.enabled:
        _OBS.counter("kernels.features.pairs").inc(float(pairs))
    # Per pair, per column: dim absdiff values then the cosine — the
    # loop's np.concatenate(parts) layout, produced by one reshape.
    return np.concatenate([absdiff, cosine[:, :, None]], axis=2).reshape(
        pairs, columns * (dim + 1)
    )


def _row_terms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's norm and guarded unit vector, per distinct row."""
    norms = np.sqrt((rows * rows).sum(axis=-1))
    return norms, _unit_guarded(rows, norms)


def _unit_guarded(cols: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Unit-normalise columns with norm > NORM_GUARD; pass others through."""
    normalise = norms > NORM_GUARD
    safe = np.where(normalise, norms, 1.0)[:, :, None]
    return np.where(normalise[:, :, None], cols / safe, cols)


def _column_stacks(
    records: "list[dict[str, object]]", embedder: TupleEmbedder
) -> np.ndarray:
    """A slice of records' per-attribute embeddings from one token pass;
    module-level so :func:`repro.par.pmap_chunks` workers can pickle it
    by reference."""
    return embedder.embed_many_with_columns(records)[1]


def unique_column_stack(
    records: "list[dict[str, object]]",
    embedder: TupleEmbedder,
    *,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-attribute embeddings of ``records``, composed once per unique
    record.

    Returns ``(stack, indices)`` where ``stack`` has shape
    ``(unique, columns, dim)`` and ``indices`` maps each input position
    to its row in ``stack`` — so ``stack[indices]`` is the full batch.
    Uniqueness is by record *content* (:func:`content_key`), matching the
    serving caches' identity notion.
    """
    if not records:
        return (
            np.zeros((0, len(embedder.columns), embedder.dim)),
            np.zeros(0, dtype=np.intp),
        )
    row_of: dict[str, int] = {}
    unique_records: list[dict[str, object]] = []
    indices = np.empty(len(records), dtype=np.intp)
    for position, record in enumerate(records):
        key = content_key(record)
        row = row_of.get(key)
        if row is None:
            row = len(unique_records)
            row_of[key] = row
            unique_records.append(record)
        indices[position] = row
    stack = np.concatenate(
        pmap_chunks(
            partial(_column_stacks, embedder=embedder),
            unique_records,
            jobs=jobs,
            label="kernels.compose",
        )
    )
    if _OBS.enabled:
        _OBS.counter("kernels.compose.requests").inc(float(len(records)))
        _OBS.counter("kernels.compose.unique").inc(float(len(unique_records)))
    return stack, indices


def compose_pair_features(
    pairs: "list[tuple[dict[str, object], dict[str, object]]]",
    embedder: TupleEmbedder,
) -> np.ndarray:
    """Feature matrix for ``pairs`` via one deduplicated composition pass
    and one batched feature kernel.

    Bit-identical to featurising each pair with the per-pair loop (see
    module docstring); a tuple repeated across pairs is embedded once.
    """
    if not pairs:
        return np.zeros((0, len(embedder.columns) * (embedder.dim + 1)))
    flat: list[dict[str, object]] = []
    for record_a, record_b in pairs:
        flat.append(record_a)
        flat.append(record_b)
    stack, indices = unique_column_stack(flat, embedder)
    return pair_feature_matrix(
        PairSide(stack, indices[0::2]), PairSide(stack, indices[1::2])
    )
