"""Frozen reference: the row-by-row FD scans that column-at-a-time grouping replaced.

Every scan here reads each cell through ``Table.cell`` and runs
``is_missing`` on every cell it groups: ``reference_group_rows`` is
``FunctionalDependency.group_rows``, ``reference_repair`` is
``FDRepairer.repair`` (every FD on every pass, until a pass changes
nothing), and the rest are the violation, g3-error, discovery-support and
conflict-blanking scans, as they stood before grouping went
column-at-a-time.  Only the tests under ``tests/cleaning`` use this
module; nothing under ``src/`` imports it.  Do not edit the scans: they
are the reference.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.cleaning import RepairReport
from repro.cleaning.repair import Repair
from repro.data import FunctionalDependency, dependencies
from repro.data.types import is_missing


def reference_group_rows(fd, table):
    """LHS groups by a row-by-row scan: every cell through ``Table.cell``."""
    groups = {}
    for i in range(table.num_rows):
        key = tuple(table.cell(i, c) for c in fd.lhs)
        if any(is_missing(v) for v in key) or is_missing(table.cell(i, fd.rhs)):
            continue
        groups.setdefault(key, []).append(i)
    return groups


def reference_group_rows_and_rhs(fd, table):
    """``FunctionalDependency.group_rows``'s pair over the row-by-row scan."""
    rhs = [table.cell(i, fd.rhs) for i in range(table.num_rows)]
    return reference_group_rows(fd, table), rhs


def reference_repair_fd(table, fd, report):
    changed = False
    for rows in reference_group_rows(fd, table).values():
        counts = {}
        for row in rows:
            value = table.cell(row, fd.rhs)
            counts[value] = counts.get(value, 0) + 1
        if len(counts) <= 1:
            continue
        majority = max(counts.items(), key=lambda kv: (kv[1], str(kv[0])))[0]
        for row in rows:
            value = table.cell(row, fd.rhs)
            if value != majority:
                table.set_cell(row, fd.rhs, majority)
                report.repairs.append(Repair(row, fd.rhs, value, majority, f"fd:{fd}"))
                changed = True
    return changed


def reference_repair(fds, table, max_passes):
    """Every FD on every pass, until a pass changes nothing."""
    repaired = table.copy(f"{table.name}_repaired")
    report = RepairReport()
    for _ in range(max_passes):
        changed = False
        for fd in fds:
            changed |= reference_repair_fd(repaired, fd, report)
        if not changed:
            break
    return repaired, report


def reference_violations(fd, table):
    bad_pairs = []
    for rows in reference_group_rows(fd, table).values():
        by_rhs = {}
        for row in rows:
            by_rhs.setdefault(table.cell(row, fd.rhs), []).append(row)
        buckets = list(by_rhs.values())
        for i, bucket_a in enumerate(buckets):
            for bucket_b in buckets[i + 1:]:
                bad_pairs.extend((min(a, b), max(a, b)) for a in bucket_a for b in bucket_b)
    return sorted(set(bad_pairs))


def reference_violating_rows(fd, table):
    """Rows of the listed violating pairs (``violating_rows`` before it
    read the groups)."""
    return {row for pair in reference_violations(fd, table) for row in pair}


def reference_fd_error(fd, table):
    groups = reference_group_rows(fd, table)
    total = sum(len(rows) for rows in groups.values())
    if total == 0:
        return 0.0
    removals = 0
    for rows in groups.values():
        counts = {}
        for row in rows:
            value = table.cell(row, fd.rhs)
            counts[value] = counts.get(value, 0) + 1
        removals += len(rows) - max(counts.values())
    return removals / total


def reference_holds_with_support(fd, table, min_support):
    multi = 0
    for rows in reference_group_rows(fd, table).values():
        if len({table.cell(r, fd.rhs) for r in rows}) > 1:
            return False
        multi += len(rows) > 1
    return multi >= min_support


def reference_blank_conflicts(table, fds):
    blanked = table.copy(f"{table.name}_conflicts_blanked")
    cells = set()
    for fd in fds:
        for rows in reference_group_rows(fd, table).values():
            if len({table.cell(r, fd.rhs) for r in rows}) <= 1:
                continue
            for row in rows:
                blanked.set_cell(row, fd.rhs, None)
                cells.add((row, fd.rhs))
    return blanked, cells


@contextmanager
def reference_scans():
    """Patch the reference scans into the FD module, so discovery runs on them."""
    with ExitStack() as stack:
        for target, name, reference in (
            (FunctionalDependency, "group_rows", reference_group_rows_and_rhs),
            (FunctionalDependency, "violations", reference_violations),
            (FunctionalDependency, "violating_rows", reference_violating_rows),
            (dependencies, "fd_error", reference_fd_error),
            (dependencies, "_holds_with_support", reference_holds_with_support),
        ):
            stack.enter_context(mock.patch.object(target, name, reference))
        yield
