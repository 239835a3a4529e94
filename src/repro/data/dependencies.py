"""Functional dependencies: declaration, violation detection and discovery.

The paper (Section 3.1, limitation 3) argues FDs are "important hints
between semantically related cells" that representation learning should
capture, and Figure 4's heterogeneous graph encodes them as directed edges.
This module provides the FD machinery: checking, violation enumeration,
and a pruned TANE-style discovery over small relations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, compress

from repro.data.table import Table
from repro.data.types import is_missing


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs → rhs``: rows agreeing on all of ``lhs`` must agree on ``rhs``."""

    lhs: tuple[str, ...]
    rhs: str

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("FD left-hand side must be non-empty")
        if self.rhs in self.lhs:
            raise ValueError(f"trivial FD: {self.rhs} appears on both sides")

    def __str__(self) -> str:
        return f"{', '.join(self.lhs)} -> {self.rhs}"

    def holds(self, table: Table) -> bool:
        """True when the table has no violating row pair."""
        return not self.violations(table)

    def violations(self, table: Table) -> list[tuple[int, int]]:
        """Row-index pairs that jointly violate the FD.

        Rows with a missing value in any participating column are skipped
        (missing values never witness a violation).
        """
        groups, rhs = self.group_rows(table)
        bad_pairs: list[tuple[int, int]] = []
        for rows in groups.values():
            by_rhs: dict[object, list[int]] = {}
            for row in rows:
                by_rhs.setdefault(rhs[row], []).append(row)
            if len(by_rhs) <= 1:
                continue
            buckets = list(by_rhs.values())
            for i, bucket_a in enumerate(buckets):
                for bucket_b in buckets[i + 1 :]:
                    for a in bucket_a:
                        for b in bucket_b:
                            bad_pairs.append((min(a, b), max(a, b)))
        return sorted(set(bad_pairs))

    def violating_rows(self, table: Table) -> set[int]:
        """All row indices involved in at least one violation.

        A row is in a violating pair exactly when its lhs group holds
        more than one rhs value (by the dict-key equality
        :meth:`violations` buckets with), so no pair is listed.
        """
        groups, rhs = self.group_rows(table)
        return {
            row
            for rows in groups.values()
            if len({rhs[r] for r in rows}) > 1
            for row in rows
        }

    def group_rows(
        self, table: Table
    ) -> tuple[dict[tuple[object, ...], list[int]], list[object]]:
        """Row indices by lhs value, and the rhs column they index.

        Each group is placed at its first row, as a row-by-row scan places
        it.  Rows with a missing value in any lhs column or in the rhs are
        left out.  Missingness is decided once per distinct value: once per
        distinct rhs value before the scan, and once per distinct lhs key
        after it, since values that compare equal are equally missing.  So
        every rhs cell is hashed, even in a row whose lhs is missing.  A
        one-column lhs groups by the raw cell and wraps each key as a
        1-tuple at the end.  The rhs is ``Table.column``'s shared list, not
        a copy: writing to it writes the table.  A table without rows reads
        no column and gives ``({}, [])``.
        """
        if not table.num_rows:
            return {}, []
        rhs = table.column(self.rhs)
        missing = {value for value in set(rhs) if is_missing(value)}
        wide = len(self.lhs) > 1
        keys = zip(*(table.column(c) for c in self.lhs)) if wide else table.column(self.lhs[0])
        indexed = enumerate(keys)
        if missing:
            indexed = compress(indexed, [value not in missing for value in rhs])
        by_key: defaultdict[object, list[int]] = defaultdict(list)
        for i, key in indexed:
            by_key[key].append(i)
        if wide:
            return {
                key: rows for key, rows in by_key.items() if not any(map(is_missing, key))
            }, rhs
        return {(key,): rows for key, rows in by_key.items() if not is_missing(key)}, rhs


def violation_rate(table: Table, fds: list[FunctionalDependency]) -> float:
    """Fraction of rows involved in at least one FD violation."""
    if table.num_rows == 0 or not fds:
        return 0.0
    bad: set[int] = set()
    for fd in fds:
        bad |= fd.violating_rows(table)
    return len(bad) / table.num_rows


def discover_fds(
    table: Table,
    max_lhs: int = 2,
    min_support: int = 2,
) -> list[FunctionalDependency]:
    """Discover FDs that hold exactly on ``table`` (TANE-style, pruned).

    Only minimal FDs are returned: if ``A → C`` holds, ``A,B → C`` is not
    reported.  ``min_support`` requires at least that many LHS groups with
    more than one row, filtering vacuously-true dependencies.
    """
    found: list[FunctionalDependency] = []
    minimal_lhs: dict[str, list[tuple[str, ...]]] = {c: [] for c in table.columns}
    for size in range(1, max_lhs + 1):
        for lhs in combinations(table.columns, size):
            for rhs in table.columns:
                if rhs in lhs:
                    continue
                if any(set(prev) <= set(lhs) for prev in minimal_lhs[rhs]):
                    continue  # a subset already determines rhs
                fd = FunctionalDependency(lhs, rhs)
                if _holds_with_support(fd, table, min_support):
                    found.append(fd)
                    minimal_lhs[rhs].append(lhs)
    return found


def fd_error(fd: FunctionalDependency, table: Table) -> float:
    """The g3 error of an FD: minimum fraction of rows to delete so it holds.

    Per LHS group, every row outside the group's majority RHS value must
    go; 0.0 means the FD holds exactly.  This is the standard measure for
    *approximate* FDs over dirty data.
    """
    return _g3_error(*fd.group_rows(table))


def _g3_error(groups: dict, rhs: list) -> float:
    """:func:`fd_error` over groups and rhs already taken by ``group_rows``."""
    total = sum(len(rows) for rows in groups.values())
    if total == 0:
        return 0.0
    removals = sum(
        len(rows) - max(Counter(map(rhs.__getitem__, rows)).values())
        for rows in groups.values()
    )
    return removals / total


def discover_approximate_fds(
    table: Table,
    max_error: float = 0.05,
    max_lhs: int = 2,
    min_support: int = 2,
) -> list[tuple[FunctionalDependency, float]]:
    """Discover FDs that hold up to a g3 error of ``max_error``.

    Exact discovery (:func:`discover_fds`) misses every dependency the
    dirty data violates even once; approximate discovery is what makes FD
    mining usable on uncleaned relations.  Returns minimal dependencies
    with their measured error, best (lowest error) first.
    """
    found: list[tuple[FunctionalDependency, float]] = []
    minimal_lhs: dict[str, list[tuple[str, ...]]] = {c: [] for c in table.columns}
    for size in range(1, max_lhs + 1):
        for lhs in combinations(table.columns, size):
            for rhs in table.columns:
                if rhs in lhs:
                    continue
                if any(set(prev) <= set(lhs) for prev in minimal_lhs[rhs]):
                    continue
                fd = FunctionalDependency(lhs, rhs)
                groups, rhs_values = fd.group_rows(table)
                multi = sum(1 for rows in groups.values() if len(rows) > 1)
                if multi < min_support:
                    continue
                error = _g3_error(groups, rhs_values)
                if error <= max_error:
                    found.append((fd, error))
                    minimal_lhs[rhs].append(lhs)
    return sorted(found, key=lambda item: item[1])


def _holds_with_support(
    fd: FunctionalDependency, table: Table, min_support: int
) -> bool:
    groups, rhs = fd.group_rows(table)
    multi = 0
    for rows in groups.values():
        rhs_values = {rhs[r] for r in rows}
        if len(rhs_values) > 1:
            return False
        if len(rows) > 1:
            multi += 1
    return multi >= min_support
