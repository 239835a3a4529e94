"""Frozen reference: holistic repair scoring each cell by a rescan of every row.

``reference_holistic_repair(repairer, table)`` is
``HolisticRepairer.repair`` as it stood when ``_score`` rebuilt a
cell's LHS group for every scored (cell, candidate) pair by comparing the
row's lhs with every other row of the current table.  It reads the
repairer's FDs and weights only, and finds suspect cells through the
row-by-row reference scans.  Only the tests under ``tests/cleaning`` use
this module; nothing under ``src/`` imports it.  Do not edit it: it is
the reference.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.cleaning import RepairReport
from repro.cleaning.repair import Repair
from repro.data.types import is_missing

from tests.cleaning.reference_fd_scans import reference_violating_rows


class _ColumnStatistics:
    def __init__(self):
        self.priors = Counter()
        self.cooccurrence = defaultdict(Counter)
        self.total = 0


def reference_holistic_repair(repairer, table):
    repaired = table.copy(f"{table.name}_holistic")
    report = RepairReport()
    suspects = {(row, fd.rhs) for fd in repairer.fds for row in reference_violating_rows(fd, repaired)}
    if not suspects:
        return repaired, report
    statistics = _column_statistics(repaired, {c for _, c in suspects})
    for row, column in sorted(suspects):
        current = repaired.cell(row, column)
        candidates = list(statistics[column].priors)
        if len(candidates) < 2:
            continue
        best = max(
            candidates,
            key=lambda value: _score(repairer, repaired, row, column, value, statistics),
        )
        if best != current:
            repaired.set_cell(row, column, best)
            report.repairs.append(Repair(row, column, current, best, "holistic"))
    return repaired, report


def _column_statistics(table, columns):
    statistics = {c: _ColumnStatistics() for c in columns}
    for i in range(table.num_rows):
        record = table.row_dict(i)
        for column in columns:
            value = record.get(column)
            if is_missing(value):
                continue
            stats = statistics[column]
            stats.priors[value] += 1
            stats.total += 1
            for other_column, other_value in record.items():
                if other_column == column or is_missing(other_value):
                    continue
                stats.cooccurrence[(other_column, other_value)][value] += 1
    return statistics


def _score(repairer, table, row, column, candidate, statistics):
    stats = statistics[column]
    s = repairer.smoothing
    domain = max(1, len(stats.priors))
    score = repairer.prior_weight * math.log(
        (stats.priors[candidate] + s) / (stats.total + s * domain)
    )
    for fd in repairer.fds:
        if fd.rhs != column:
            continue
        key = tuple(table.cell(row, c) for c in fd.lhs)
        if any(is_missing(v) for v in key):
            continue
        group_counts = Counter()
        for i in range(table.num_rows):
            if i == row:
                continue
            if tuple(table.cell(i, c) for c in fd.lhs) == key:
                value = table.cell(i, fd.rhs)
                if not is_missing(value):
                    group_counts[value] += 1
        total = sum(group_counts.values())
        score += repairer.fd_weight * math.log(
            (group_counts[candidate] + s) / (total + s * domain)
        )
    record = table.row_dict(row)
    fd_columns = {c for fd in repairer.fds for c in fd.lhs if fd.rhs == column}
    for other_column, other_value in record.items():
        if other_column == column or other_column in fd_columns:
            continue
        if is_missing(other_value):
            continue
        counts = stats.cooccurrence.get((other_column, other_value))
        if counts is None:
            continue
        total = sum(counts.values())
        score += repairer.context_weight * math.log(
            (counts[candidate] + s) / (total + s * domain)
        )
    return score
