"""Holistic repair — combining signals probabilistically (HoloClean-lite).

The paper cites HoloClean [49] ("holistic data repairs with probabilistic
inference") as the state of the art in constraint-based cleaning.  This is
a lightweight reproduction of its core idea: instead of repairing each
signal in isolation, treat suspect cells as random variables and score
candidate values by *combining* independent evidence sources:

* **FD evidence** — how strongly the cell's LHS group supports each
  candidate (the majority signal minimal repair uses alone);
* **co-occurrence evidence** — a naive-Bayes score of the candidate given
  the row's other attribute values, estimated from the relation itself;
* **prior evidence** — the candidate's global frequency.

Suspect cells are those involved in FD violations; each is reassigned the
maximum-posterior candidate.  Compared to :class:`FDRepairer`, the extra
context lets holistic repair recover the *true* value in groups where the
corruption happens to be the majority.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.cleaning.repair import Repair, RepairReport
from repro.data.dependencies import FunctionalDependency
from repro.data.table import Table
from repro.data.types import is_missing
from repro.utils.validation import check_positive


@dataclass
class _ColumnStatistics:
    """Frequencies needed for the naive-Bayes candidate scoring."""

    priors: Counter = field(default_factory=Counter)
    # (other_column, other_value, candidate) -> count
    cooccurrence: dict = field(default_factory=lambda: defaultdict(Counter))
    total: int = 0


class _GroupCounts:
    """One FD's rhs-value counts per lhs key, kept current as cells change.

    Built from one ``group_rows`` scan, so it counts exactly the rows that
    a scan of the current table would group; :meth:`tally` keeps that true
    across every write to one of the FD's columns.  Keys and values
    compare by dict equality, as ``group_rows`` groups them.
    """

    def __init__(self, fd: FunctionalDependency, table: Table) -> None:
        self.fd = fd
        self.table = table
        groups, rhs = fd.group_rows(table)
        self.counts = {key: Counter(map(rhs.__getitem__, rows)) for key, rows in groups.items()}
        self.violating_rows = [
            row for key, rows in groups.items() if len(self.counts[key]) > 1 for row in rows
        ]

    def _key(self, row: int) -> tuple[object, ...] | None:
        key = tuple(self.table.cell(row, c) for c in self.fd.lhs)
        return None if any(map(is_missing, key)) else key

    def others(self, row: int) -> Counter | None:
        """The row's group counts without the row; None when its lhs is missing."""
        key = self._key(row)
        if key is None:
            return None
        counts = Counter(self.counts.get(key, ()))
        value = self.table.cell(row, self.fd.rhs)
        if not is_missing(value):
            counts[value] -= 1
        return counts

    def tally(self, row: int, step: int) -> None:
        """Add ``step`` to the count of the row's current (lhs, rhs), if grouped."""
        key = self._key(row)
        value = self.table.cell(row, self.fd.rhs)
        if key is not None and not is_missing(value):
            self.counts.setdefault(key, Counter())[value] += step


class HolisticRepairer:
    """Probabilistic multi-signal repair of FD-violating cells.

    Parameters
    ----------
    fds:
        The integrity constraints whose violations define suspect cells.
    fd_weight / context_weight / prior_weight:
        Log-linear weights of the three evidence sources (finite, >= 0).
    smoothing:
        Laplace smoothing for all frequency estimates (finite, > 0).
    """

    def __init__(
        self,
        fds: list[FunctionalDependency],
        fd_weight: float = 2.0,
        context_weight: float = 1.0,
        prior_weight: float = 0.3,
        smoothing: float = 0.5,
    ) -> None:
        if not fds:
            raise ValueError("HolisticRepairer needs at least one FD")
        for name, value, strict in (
            ("smoothing", smoothing, True),
            ("fd_weight", fd_weight, False),
            ("context_weight", context_weight, False),
            ("prior_weight", prior_weight, False),
        ):
            check_positive(name, value, strict=strict)
            if value == math.inf:  # every score would read inf or nan
                raise ValueError(f"{name} must be finite, got {value}")
        self.fds = list(fds)
        self.fd_weight = fd_weight
        self.context_weight = context_weight
        self.prior_weight = prior_weight
        self.smoothing = smoothing

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def repair(self, table: Table) -> tuple[Table, RepairReport]:
        """Return ``(repaired_copy, report)``; the input is untouched.

        Each FD is grouped once.  A write takes the row out of the counts
        of every FD that reads the written column and puts it back under
        its new cells, so a later cell is scored against the table as it
        then stands.
        """
        repaired = table.copy(f"{table.name}_holistic")
        report = RepairReport()
        groups = [_GroupCounts(fd, repaired) for fd in self.fds]
        suspects = {(row, g.fd.rhs) for g in groups for row in g.violating_rows}
        if not suspects:
            return repaired, report
        statistics = self._column_statistics(repaired, {c for _, c in suspects})
        for row, column in sorted(suspects):
            current = repaired.cell(row, column)
            stats = statistics[column]
            candidates = list(stats.priors)
            if len(candidates) < 2:
                continue
            evidence = self._evidence(repaired, row, column, stats, groups)
            domain = max(1, len(stats.priors))
            best = max(candidates, key=lambda value: self._score(value, evidence, domain))
            if best != current:
                touched = [g for g in groups if column == g.fd.rhs or column in g.fd.lhs]
                for g in touched:
                    g.tally(row, -1)
                repaired.set_cell(row, column, best)
                for g in touched:
                    g.tally(row, 1)
                report.repairs.append(
                    Repair(row, column, current, best, "holistic")
                )
        return repaired, report

    # ------------------------------------------------------------------ #
    # evidence
    # ------------------------------------------------------------------ #

    def _column_statistics(
        self, table: Table, columns: set[str]
    ) -> dict[str, _ColumnStatistics]:
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

    def _evidence(
        self,
        table: Table,
        row: int,
        column: str,
        stats: _ColumnStatistics,
        groups: list[_GroupCounts],
    ) -> list[tuple[float, Counter, int]]:
        """``(weight, counts, total)`` per evidence term of one cell, prior first.

        FD evidence: the candidate's support within the row's LHS group of
        each FD on ``column``, the row itself left out.  Context evidence:
        naive Bayes over the row's other attributes, FD lhs columns aside.
        """
        evidence = [(self.prior_weight, stats.priors, stats.total)]
        for g in groups:
            if g.fd.rhs == column:
                counts = g.others(row)
                if counts is not None:
                    evidence.append((self.fd_weight, counts, sum(counts.values())))
        fd_columns = {c for fd in self.fds for c in fd.lhs if fd.rhs == column}
        for other_column, other_value in table.row_dict(row).items():
            if other_column == column or other_column in fd_columns:
                continue
            if is_missing(other_value):
                continue
            counts = stats.cooccurrence.get((other_column, other_value))
            if counts is not None:
                evidence.append((self.context_weight, counts, sum(counts.values())))
        return evidence

    def _score(
        self, candidate: object, evidence: list[tuple[float, Counter, int]], domain: int
    ) -> float:
        s = self.smoothing
        (weight, counts, total), *terms = evidence
        score = weight * math.log((counts[candidate] + s) / (total + s * domain))
        for weight, counts, total in terms:
            score += weight * math.log((counts[candidate] + s) / (total + s * domain))
        return score
