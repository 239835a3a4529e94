"""Data imputation (paper Section 5.3): denoising-autoencoder multiple
imputation (MIDA-style, [25]) and the classic baselines it is compared to.

All imputers share one interface: ``fit(table)`` then
``transform(table) -> Table`` returning a copy with missing cells filled.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.encoding import TableEncoder
from repro.data.table import Table
from repro.data.types import ColumnType, coerce_numeric, is_missing
from repro.nn.autoencoder import DenoisingAutoencoder
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.nn.training import iterate_minibatches
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted


class _BaseImputer:
    """Shared plumbing: column stats + fill loop."""

    def fit(self, table: Table) -> "_BaseImputer":
        raise NotImplementedError

    def transform(self, table: Table) -> Table:
        raise NotImplementedError

    def fit_transform(self, table: Table) -> Table:
        return self.fit(table).transform(table)


class MeanModeImputer(_BaseImputer):
    """Numeric → column mean, categorical → column mode."""

    def __init__(self, numeric_columns: list[str] | None = None) -> None:
        self._forced_numeric = set(numeric_columns or [])
        self.fill_: dict[str, object] | None = None

    def fit(self, table: Table) -> "MeanModeImputer":
        fill: dict[str, object] = {}
        for column in table.columns:
            kind = (
                ColumnType.NUMERIC
                if column in self._forced_numeric
                else table.column_type(column)
            )
            present = [v for v in table.column(column) if not is_missing(v)]
            if not present:
                fill[column] = None
            elif kind == ColumnType.NUMERIC:
                numbers = [coerce_numeric(v) for v in present]
                numbers = [v for v in numbers if v is not None]
                fill[column] = float(np.mean(numbers)) if numbers else None
            else:
                counts: dict[object, int] = {}
                for value in present:
                    counts[value] = counts.get(value, 0) + 1
                fill[column] = max(counts, key=counts.get)
        self.fill_ = fill
        return self

    def transform(self, table: Table) -> Table:
        check_fitted(self, "fill_")
        out = table.copy()
        for column in out.columns:
            replacement = self.fill_.get(column)
            values = out.column(column)
            for i, value in enumerate(values):
                if is_missing(value) and replacement is not None:
                    out.set_cell(i, column, replacement)
        return out


class MedianImputer(MeanModeImputer):
    """Numeric → column median (categoricals still go to the mode)."""

    def fit(self, table: Table) -> "MedianImputer":
        super().fit(table)
        for column in table.columns:
            kind = (
                ColumnType.NUMERIC
                if column in self._forced_numeric
                else table.column_type(column)
            )
            if kind != ColumnType.NUMERIC:
                continue
            numbers = [
                coerce_numeric(v) for v in table.column(column) if not is_missing(v)
            ]
            numbers = [v for v in numbers if v is not None]
            if numbers:
                self.fill_[column] = float(np.median(numbers))
        return self


class HotDeckImputer(_BaseImputer):
    """Fill each missing cell with a random observed value of the column."""

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = ensure_rng(rng)
        self.donors_: dict[str, list[object]] | None = None

    def fit(self, table: Table) -> "HotDeckImputer":
        self.donors_ = {
            column: [v for v in table.column(column) if not is_missing(v)]
            for column in table.columns
        }
        return self

    def transform(self, table: Table) -> Table:
        check_fitted(self, "donors_")
        out = table.copy()
        for column in out.columns:
            donors = self.donors_.get(column, [])
            if not donors:
                continue
            values = out.column(column)
            for i, value in enumerate(values):
                if is_missing(value):
                    out.set_cell(i, column, donors[int(self._rng.integers(len(donors)))])
        return out


class KNNImputer(_BaseImputer):
    """k-nearest-neighbour imputation in encoded space.

    Distance uses only dimensions observed in *both* rows; each missing
    cell takes the (mode / mean) of its neighbours' values.
    """

    def __init__(
        self, k: int = 5, numeric_columns: list[str] | None = None
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.encoder = TableEncoder(numeric_columns)
        self._train_matrix: np.ndarray | None = None
        self._train_mask: np.ndarray | None = None
        self._train_table: Table | None = None

    def fit(self, table: Table) -> "KNNImputer":
        self.encoder.fit(table)
        self._train_matrix, self._train_mask = self.encoder.encode(table)
        self._train_table = table
        return self

    def transform(self, table: Table) -> Table:
        check_fitted(self, "_train_matrix")
        matrix, mask = self.encoder.encode(table)
        out = table.copy()
        for i in range(table.num_rows):
            missing_columns = [
                c for c in out.columns if is_missing(out.cell(i, c))
            ]
            if not missing_columns:
                continue
            neighbours = self._nearest(matrix[i], mask[i], exclude=i if table is self._train_table else None)
            for column in missing_columns:
                value = self._vote(neighbours, column)
                if value is not None:
                    out.set_cell(i, column, value)
        return out

    def _nearest(
        self, row: np.ndarray, row_mask: np.ndarray, exclude: int | None
    ) -> list[int]:
        shared = self._train_mask & row_mask
        diffs = (self._train_matrix - row) ** 2
        counts = shared.sum(axis=1)
        distances = np.where(
            counts > 0,
            (diffs * shared).sum(axis=1) / np.maximum(counts, 1),
            np.inf,
        )
        if exclude is not None:
            distances[exclude] = np.inf
        order = np.argsort(distances)
        return [int(j) for j in order[: self.k] if np.isfinite(distances[j])]

    def _vote(self, neighbours: list[int], column: str) -> object:
        values = [
            self._train_table.cell(j, column)
            for j in neighbours
            if not is_missing(self._train_table.cell(j, column))
        ]
        if not values:
            return None
        if self.encoder.column_kind(column) == ColumnType.NUMERIC:
            numbers = [coerce_numeric(v) for v in values]
            numbers = [v for v in numbers if v is not None]
            return float(np.mean(numbers)) if numbers else None
        counts: dict[object, int] = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        return max(counts, key=counts.get)


class DAEImputer(_BaseImputer):
    """MIDA-style multiple imputation with a denoising autoencoder.

    Training: rows are mean/mode pre-filled, the DAE corrupts inputs and is
    optimised to reconstruct the *observed* entries only (masked MSE), so
    it learns "local (tuple level) and global (relation level) patterns".

    Imputation: missing cells take the model's reconstruction; with
    ``n_draws > 1``, multiple stochastic corruptions are decoded and
    averaged — the *multiple imputation* of [25].
    """

    def __init__(
        self,
        hidden_sizes: list[int] | None = None,
        corruption: float = 0.25,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 5e-3,
        n_draws: int = 5,
        refinement_rounds: int = 2,
        numeric_columns: list[str] | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.hidden_sizes = hidden_sizes
        self.corruption = corruption
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.n_draws = n_draws
        self.refinement_rounds = refinement_rounds
        self._rng = ensure_rng(rng)
        self.encoder = TableEncoder(numeric_columns)
        self._prefill = MeanModeImputer(numeric_columns)
        self.model_: DenoisingAutoencoder | None = None

    def fit(self, table: Table) -> "DAEImputer":
        self.encoder.fit(table)
        self._prefill.fit(table)
        filled = self._prefill.transform(table)
        matrix, _ = self.encoder.encode(filled)
        _, observed = self.encoder.encode(table)
        hidden = self.hidden_sizes or [
            max(4, int(self.encoder.width_ * 0.7)),
            max(2, int(self.encoder.width_ * 0.4)),
        ]
        self.model_ = DenoisingAutoencoder(
            self.encoder.width_, hidden, corruption=self.corruption, rng=self._rng
        )
        optimizer = Adam(self.model_.parameters(), lr=self.lr)
        mask = observed.astype(np.float64)
        for _ in range(self.epochs):
            for batch in iterate_minibatches(matrix.shape[0], self.batch_size, rng=self._rng):
                noisy = self.model_.corrupt(matrix[batch])
                recon = self.model_.decode(self.model_.encode(Tensor(noisy)))
                diff = recon - Tensor(matrix[batch])
                masked = diff * diff * Tensor(mask[batch])
                denom = max(1.0, float(mask[batch].sum()))
                loss = masked.sum() * (1.0 / denom)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        return self

    def transform(self, table: Table) -> Table:
        check_fitted(self, "model_")
        filled = self._prefill.transform(table)
        matrix, _ = self.encoder.encode(filled)
        _, observed = self.encoder.encode(table)
        current = matrix.copy()
        self.model_.eval()
        # Iterative refinement: feed back imputed values, re-reconstruct.
        for round_index in range(self.refinement_rounds + 1):
            draws = []
            for _ in range(self.n_draws):
                noisy = (
                    self.model_.corrupt(current)
                    if round_index == 0 and self.n_draws > 1
                    else current
                )
                recon = self.model_(Tensor(noisy)).data
                draws.append(recon)
            reconstruction = np.mean(draws, axis=0)
            current = np.where(observed, matrix, reconstruction)
        self.model_.train()
        out = table.copy()
        for i in range(table.num_rows):
            for column in out.columns:
                if is_missing(out.cell(i, column)):
                    value = self.encoder.decode_cell(current[i], column)
                    if isinstance(value, float):
                        value = round(value, 4)
                    out.set_cell(i, column, value)
        return out


def evaluate_imputation(
    imputed: Table,
    truth: Table,
    missing_cells: set[tuple[int, str]],
    numeric_columns: list[str] | None = None,
) -> dict[str, float]:
    """Score imputations against ground truth on the held-out cells.

    Returns categorical accuracy and numeric normalised RMSE (by the truth
    column's std), each over the corresponding cell subsets.
    """
    numeric = set(numeric_columns or [])
    cat_total = cat_correct = 0
    squared: dict[str, list[float]] = {}
    # Sorted, not set order: the sums must not follow the string hash seed.
    for row, column in sorted(missing_cells):
        true_value = truth.cell(row, column)
        guess = imputed.cell(row, column)
        if column in numeric or truth.column_type(column) == ColumnType.NUMERIC:
            t = coerce_numeric(true_value)
            g = coerce_numeric(guess)
            if t is None:
                continue
            g = g if g is not None else 0.0
            squared.setdefault(column, []).append((t - g) ** 2)
        else:
            cat_total += 1
            if guess is not None and str(guess) == str(true_value):
                cat_correct += 1
    nrmse_values = []
    for column, errors in squared.items():
        truths = [
            coerce_numeric(v) for v in truth.column(column) if not is_missing(v)
        ]
        truths = [v for v in truths if v is not None]
        std = float(np.std(truths)) or 1.0
        nrmse_values.append(float(np.sqrt(np.mean(errors))) / std)
    return {
        "categorical_accuracy": cat_correct / cat_total if cat_total else float("nan"),
        "numeric_nrmse": float(np.mean(nrmse_values)) if nrmse_values else float("nan"),
        "n_cells": float(len(missing_cells)),
    }
