"""Fidelity metrics for synthetic tables: does the generated data carry the
same statistical structure as the real data?"""

from __future__ import annotations

import numpy as np

from repro.data.table import Table
from repro.data.types import ColumnType, coerce_numeric, is_missing


def categorical_tv_distance(real: Table, synthetic: Table, column: str) -> float:
    """Total-variation distance between the two value distributions (0..1)."""
    real_counts = real.value_counts(column)
    synthetic_counts = synthetic.value_counts(column)
    domain = set(map(str, real_counts)) | set(map(str, synthetic_counts))
    n_real = sum(real_counts.values()) or 1
    n_synth = sum(synthetic_counts.values()) or 1
    real_str = {str(k): v for k, v in real_counts.items()}
    synth_str = {str(k): v for k, v in synthetic_counts.items()}
    tv = 0.0
    for value in domain:
        tv += abs(real_str.get(value, 0) / n_real - synth_str.get(value, 0) / n_synth)
    return tv / 2.0


def numeric_ks_statistic(real: Table, synthetic: Table, column: str) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (0 = identical, 1 = disjoint)."""
    real_values = _numeric_values(real, column)
    synth_values = _numeric_values(synthetic, column)
    if not real_values or not synth_values:
        return 1.0
    from scipy import stats  # deferred: scipy.stats costs ~0.5 s to import

    return float(stats.ks_2samp(real_values, synth_values).statistic)


def correlation_preservation(
    real: Table, synthetic: Table, numeric_columns: list[str]
) -> float:
    """Mean |Δ Pearson correlation| over numeric column pairs (0 = perfect)."""
    if len(numeric_columns) < 2:
        return 0.0
    diffs = []
    for i, col_a in enumerate(numeric_columns):
        for col_b in numeric_columns[i + 1 :]:
            r_real = _pearson(real, col_a, col_b)
            r_synth = _pearson(synthetic, col_a, col_b)
            if r_real is None or r_synth is None:
                continue
            diffs.append(abs(r_real - r_synth))
    return float(np.mean(diffs)) if diffs else 0.0


def fidelity_report(
    real: Table,
    synthetic: Table,
    numeric_columns: list[str] | None = None,
) -> dict[str, float]:
    """Aggregate fidelity summary: mean TV, mean KS, correlation drift."""
    numeric = set(numeric_columns or [])
    tv_scores, ks_scores = [], []
    for column in real.columns:
        is_numeric = column in numeric or real.column_type(column) == ColumnType.NUMERIC
        if is_numeric:
            ks_scores.append(numeric_ks_statistic(real, synthetic, column))
        else:
            tv_scores.append(categorical_tv_distance(real, synthetic, column))
    numeric_list = sorted(numeric) or [
        c for c in real.columns if real.column_type(c) == ColumnType.NUMERIC
    ]
    return {
        "mean_tv_distance": float(np.mean(tv_scores)) if tv_scores else float("nan"),
        "mean_ks_statistic": float(np.mean(ks_scores)) if ks_scores else float("nan"),
        "correlation_drift": correlation_preservation(real, synthetic, numeric_list),
    }


def _numeric_values(table: Table, column: str) -> list[float]:
    values = [coerce_numeric(v) for v in table.column(column) if not is_missing(v)]
    return [v for v in values if v is not None]


def _pearson(table: Table, col_a: str, col_b: str) -> float | None:
    rows = []
    for i in range(table.num_rows):
        a = coerce_numeric(table.cell(i, col_a))
        b = coerce_numeric(table.cell(i, col_b))
        if a is not None and b is not None:
            rows.append((a, b))
    if len(rows) < 3:
        return None
    arr = np.array(rows)
    if arr[:, 0].std() < 1e-12 or arr[:, 1].std() < 1e-12:
        return None
    return float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
