"""Constraint-based repair: minimal FD repair (paper Section 5.3 mentions
"non-probabilistic (such as minimal FD repair)" solutions).

For every FD ``lhs → rhs`` and every LHS group with conflicting RHS values,
the minority values are rewritten to the group's majority value (cost =
number of changed cells, which majority voting minimises per group).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.data.dependencies import FunctionalDependency
from repro.data.table import Table
from repro.utils.validation import check_positive_int


class Repair(NamedTuple):
    """One repaired cell.

    A named tuple, because one repair of a gateway slice builds hundreds
    and a tuple is the cheapest immutable record to build; like any tuple
    it also equals a plain tuple of its fields.
    """

    row: int
    column: str
    old_value: object
    new_value: object
    reason: str


@dataclass
class RepairReport:
    repairs: list[Repair] = field(default_factory=list)

    def cells(self) -> set[tuple[int, str]]:
        return {(r.row, r.column) for r in self.repairs}

    def __len__(self) -> int:
        return len(self.repairs)


class FDRepairer:
    """Majority-vote minimal repair for a set of functional dependencies.

    ``max_passes`` must be an integer >= 1; more than one pass lets repairs
    of one FD re-trigger checks of another (e.g. repairing ``dept_id`` can
    change which ``dept_name`` group a row belongs to).
    """

    def __init__(self, fds: list[FunctionalDependency], max_passes: int = 3) -> None:
        if not fds:
            raise ValueError("FDRepairer needs at least one FD")
        check_positive_int("max_passes", max_passes)
        self.fds = list(fds)
        self.max_passes = max_passes

    def repair(self, table: Table) -> tuple[Table, RepairReport]:
        """Return ``(repaired_copy, report)``; the input is untouched.

        An FD's run writes only its rhs, which is never in its lhs, and
        leaves each of its groups with one rhs value, so running it again
        changes nothing until another FD writes one of its columns.  Only
        such stale FDs run: every pass ends with the table and report that
        running every FD would give, and the passes stop once none is stale.
        """
        repaired = table.copy(f"{table.name}_repaired")
        report = RepairReport()
        stale = set(range(len(self.fds)))
        for _ in range(self.max_passes):
            for i, fd in enumerate(self.fds):
                if i in stale:
                    stale.discard(i)
                    if self._repair_fd(repaired, fd, report):
                        stale.update(
                            j for j, other in enumerate(self.fds)
                            if j != i and fd.rhs in (other.rhs, *other.lhs)
                        )
            if not stale:
                break
        return repaired, report

    def _repair_fd(
        self, table: Table, fd: FunctionalDependency, report: RepairReport
    ) -> bool:
        groups, values = fd.group_rows(table)
        reason = f"fd:{fd}"
        changed = False
        for rows in groups.values():
            counts = Counter(map(values.__getitem__, rows))
            if len(counts) <= 1:
                continue
            # Majority value; deterministic tie-break by string form.  Counter
            # keeps each value's first-seen object, so this is the group's own.
            majority = max(counts.items(), key=lambda kv: (kv[1], str(kv[0])))[0]
            minority = [row for row in rows if values[row] != majority]
            for row in minority:
                report.repairs.append(Repair(row, fd.rhs, values[row], majority, reason))
                values[row] = majority  # ``values`` is the table's own column
            changed = changed or bool(minority)
        return changed


def repair_quality(
    report: RepairReport,
    truth: Table,
    corrupted_cells: set[tuple[int, str]],
) -> dict[str, float]:
    """Score a repair run against ground truth.

    * precision — repaired cells that were actually corrupted AND restored
      to the true value;
    * recall — corrupted cells that got correctly restored.
    """
    correct = 0
    for repair in report.repairs:
        if (repair.row, repair.column) in corrupted_cells:
            if repair.new_value == truth.cell(repair.row, repair.column):
                correct += 1
    n_repairs = len(report.repairs)
    precision = correct / n_repairs if n_repairs else 0.0
    recall = correct / len(corrupted_cells) if corrupted_cells else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "repairs": float(n_repairs)}
