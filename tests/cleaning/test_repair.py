"""Minimal FD repair tests."""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import FDRepairer, RepairReport, blank_conflicts, repair_quality
from repro.cleaning.repair import Repair
from repro.data import (
    ErrorGenerator,
    FunctionalDependency,
    Table,
    World,
    discover_approximate_fds,
    discover_fds,
    fd_error,
    violation_rate,
)
from repro.data import dependencies
from repro.data.types import is_missing


class TestFDRepairer:
    def test_requires_fds(self):
        with pytest.raises(ValueError):
            FDRepairer([])

    def test_majority_value_wins(self):
        table = Table(
            "t", ["dept", "name"],
            rows=[["1", "hr"], ["1", "hr"], ["1", "finance"]],
        )
        fd = FunctionalDependency(("dept",), "name")
        repaired, report = FDRepairer([fd]).repair(table)
        assert repaired.cell(2, "name") == "hr"
        assert len(report) == 1
        assert fd.holds(repaired)

    def test_input_untouched(self):
        table = Table("t", ["a", "b"], rows=[["1", "x"], ["1", "y"]])
        fd = FunctionalDependency(("a",), "b")
        FDRepairer([fd]).repair(table)
        assert table.cell(1, "b") == "y"

    def test_deterministic_tie_break(self):
        table = Table("t", ["a", "b"], rows=[["1", "x"], ["1", "y"]])
        fd = FunctionalDependency(("a",), "b")
        repaired1, _ = FDRepairer([fd]).repair(table)
        repaired2, _ = FDRepairer([fd]).repair(table)
        assert repaired1.equals(repaired2)
        assert repaired1.cell(0, "b") == "y"  # ties break to larger string

    def test_cascading_repairs_across_fds(self):
        """Repairing fd1's rhs regroups rows for fd2."""
        table = Table(
            "t", ["eid", "dept", "dname"],
            rows=[
                ["1", "10", "hr"], ["1", "99", "hr"],
                ["2", "10", "hr"], ["3", "10", "finance"],
            ],
        )
        fds = [
            FunctionalDependency(("eid",), "dept"),
            FunctionalDependency(("dept",), "dname"),
        ]
        repaired, report = FDRepairer(fds, max_passes=3).repair(table)
        assert all(fd.holds(repaired) for fd in fds)

    def test_recovers_injected_violations(self):
        table, fds = World(0).locations_table(120)
        dirty, err_report = ErrorGenerator(rng=0).corrupt(
            table, fd_violation_rate=0.08, fds=fds
        )
        corrupted = {(e.row, e.column) for e in err_report.by_kind("fd_violation")}
        repaired, rep_report = FDRepairer(fds).repair(dirty)
        quality = repair_quality(rep_report, table, corrupted)
        assert quality["recall"] > 0.9
        assert quality["precision"] > 0.9
        assert violation_rate(repaired, fds) == 0.0

    def test_missing_values_skipped(self):
        table = Table("t", ["a", "b"], rows=[["1", None], ["1", "x"], [None, "y"]])
        fd = FunctionalDependency(("a",), "b")
        repaired, report = FDRepairer([fd]).repair(table)
        assert len(report) == 0


class TestRepairQuality:
    def test_empty_report(self):
        from repro.cleaning import RepairReport

        quality = repair_quality(RepairReport(), Table("t", ["a"]), set())
        assert quality["recall"] == 1.0
        assert quality["precision"] == 0.0


# -- reference: the row-by-row scans that column-at-a-time grouping replaced --


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


# -- strategies ---------------------------------------------------------------

# 1, 1.0 and True are equal and hash alike but print apart; "", None and
# NaN are the missing encodings.  FRESH_NAN draws a new NaN object, which
# no other NaN key equals.
FRESH_NAN = object()
CELLS = st.sampled_from(["a", "b", "c", "", None, float("nan"), 1, 1.0, True, 2, FRESH_NAN]).map(
    lambda value: float("nan") if value is FRESH_NAN else value
)
COLUMNS = ["c0", "c1", "c2", "c3"]


@st.composite
def tables(draw):
    """0-40 rows; each column draws from its own few values, so LHS groups
    are large and conflicting, and repairs cascade from FD to FD."""
    columns = COLUMNS[:draw(st.integers(3, 4))]
    palettes = [draw(st.lists(CELLS, min_size=2, max_size=4)) for _ in columns]
    n_rows = draw(st.integers(0, 40))
    return Table("t", columns, [[draw(st.sampled_from(p)) for p in palettes] for _ in range(n_rows)])


@st.composite
def fd_lists(draw, columns):
    """1-3 FDs; cascades, shared rhs columns and two-FD cycles by construction."""
    a, b, c = draw(st.permutations(columns))[:3]
    shape = draw(st.sampled_from(["free", "cascade", "shared_rhs", "cycle"]))
    fds = {
        "free": [],
        "cascade": [FunctionalDependency((a,), b), FunctionalDependency((b,), c)],
        "shared_rhs": [FunctionalDependency((a,), c), FunctionalDependency((b,), c)],
        "cycle": [FunctionalDependency((a,), b), FunctionalDependency((b,), a)],
    }[shape]
    for _ in range(draw(st.integers(0 if fds else 1, 3 - len(fds)))):
        rhs = draw(st.sampled_from(columns))
        lhs = draw(st.lists(
            st.sampled_from([x for x in columns if x != rhs]), min_size=1, max_size=2, unique=True,
        ))
        fds.append(FunctionalDependency(tuple(lhs), rhs))
    return draw(st.permutations(fds))


CASCADE_ROWS = [["1", "10", "hr"], ["1", "99", "hr"], ["2", "10", "hr"], ["3", "10", "finance"]]
EID_DEPT = FunctionalDependency(("eid",), "dept")
DEPT_DNAME = FunctionalDependency(("dept",), "dname")


def cascade_table():
    return Table("t", ["eid", "dept", "dname"], rows=CASCADE_ROWS)


def assert_same_cells(table, expected):
    """Equal by ``repr`` (1, 1.0 and True differ) and by identity (so do NaNs)."""
    assert table.columns == expected.columns
    for column in table.columns:
        got, want = table.column(column), expected.column(column)
        assert list(map(repr, got)) == list(map(repr, want)), column
        assert all(g is w for g, w in zip(got, want)), column


def repair_rows(report):
    return [(r.row, r.column, repr(r.old_value), repr(r.new_value), r.reason) for r in report.repairs]


class TestMatchesPerCellReference:
    """Column-at-a-time grouping and the skipped re-runs change no answer."""

    @staticmethod
    def check_repair(table, fds, max_passes):
        repaired, report = FDRepairer(fds, max_passes=max_passes).repair(table)
        expected, expected_report = reference_repair(fds, table, max_passes)
        assert_same_cells(repaired, expected)
        assert repair_rows(report) == repair_rows(expected_report)

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_repair(self, data):
        table = data.draw(tables())
        fds = data.draw(fd_lists(table.columns))
        self.check_repair(table, fds, data.draw(st.sampled_from([1, 2, 3, 5])))

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_violating_rows_without_pairs(self, data):
        """A row violates exactly when its group holds two rhs values."""
        table = data.draw(tables())
        fds = data.draw(fd_lists(table.columns))
        for fd in fds:
            assert fd.violating_rows(table) == reference_violating_rows(fd, table)
        bad = set().union(*(reference_violating_rows(fd, table) for fd in fds))
        expected = len(bad) / table.num_rows if table.num_rows else 0.0
        assert violation_rate(table, fds) == expected

    @pytest.mark.parametrize("fds", [[EID_DEPT, DEPT_DNAME], [DEPT_DNAME, EID_DEPT]])
    @pytest.mark.parametrize("max_passes", [1, 2, 3, 5])
    def test_repair_cascade_table(self, fds, max_passes):
        self.check_repair(cascade_table(), fds, max_passes)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_other_scans(self, data):
        table = data.draw(tables())
        fds = data.draw(fd_lists(table.columns))
        got = self.scans(table, fds, blank_conflicts)
        with reference_scans():
            expected = self.scans(table, fds, reference_blank_conflicts)
        assert_same_cells(got.pop("blanked"), expected.pop("blanked"))
        assert got == expected

    @staticmethod
    def scans(table, fds, blank):
        blanked, cells = blank(table, fds)
        return {
            "group_rows": [
                (repr(list(groups.items())), rhs)
                for groups, rhs in (fd.group_rows(table) for fd in fds)
            ],
            "violations": [fd.violations(table) for fd in fds],
            "violating_rows": [fd.violating_rows(table) for fd in fds],
            "fd_error": [fd_error(fd, table) for fd in fds],
            "discover_fds": [discover_fds(table, min_support=s) for s in (1, 2)],
            "discover_approximate_fds": [
                discover_approximate_fds(table, max_error=e, min_support=1) for e in (0.0, 0.25)
            ],
            "blanked": blanked,
            "blanked_cells": cells,
        }


class TestMissingColumn:
    """An FD naming a column the table lacks raises KeyError only when the
    table has rows: a table without rows reads no column."""

    FDS = [FunctionalDependency(("zz",), "b"), FunctionalDependency(("a",), "zz")]

    @staticmethod
    def calls(fd, table):
        return [
            lambda: fd.group_rows(table),
            lambda: FDRepairer([fd]).repair(table),
            lambda: fd.violations(table),
            lambda: fd_error(fd, table),
            lambda: dependencies._holds_with_support(fd, table, 0),
            lambda: blank_conflicts(table, [fd]),
        ]

    @pytest.mark.parametrize("fd", FDS, ids=str)
    def test_no_rows_no_error(self, fd):
        table = Table("t", ["a", "b"])
        assert fd.group_rows(table) == ({}, [])
        assert len(FDRepairer([fd]).repair(table)[1]) == 0
        assert fd.violations(table) == reference_violations(fd, table) == []
        assert fd_error(fd, table) == reference_fd_error(fd, table) == 0.0
        assert dependencies._holds_with_support(fd, table, 0)
        assert blank_conflicts(table, [fd])[1] == set()

    @pytest.mark.parametrize("fd", FDS, ids=str)
    def test_rows_raise_key_error(self, fd):
        table = Table("t", ["a", "b"], rows=[["1", "x"], ["1", "y"]])
        with pytest.raises(KeyError):
            reference_group_rows(fd, table)
        for call in self.calls(fd, table):
            with pytest.raises(KeyError):
                call()


class TestScanCount:
    """Counted, not timed: ``repair`` scans an FD once, and again only
    when another FD has written one of its columns since its last scan."""

    @pytest.fixture
    def scans(self, monkeypatch):
        scanned = []
        group_rows = FunctionalDependency.group_rows

        def counting(fd, table):
            scanned.append(fd)
            return group_rows(fd, table)

        monkeypatch.setattr(FunctionalDependency, "group_rows", counting)
        return scanned

    def test_one_fd_one_scan(self, scans):
        """No confirming pass: the FD's own run leaves it consistent."""
        table = Table("t", ["dept", "name"], rows=[["1", "hr"], ["1", "hr"], ["1", "finance"]])
        fd = FunctionalDependency(("dept",), "name")
        _, report = FDRepairer([fd]).repair(table)
        assert len(report) == 1
        assert scans == [fd]

    def test_consistent_table_one_scan_per_fd(self, scans):
        table = Table(
            "t", ["a", "b", "c"], rows=[["1", "x", "p"], ["1", "x", "p"], ["2", "y", "q"]],
        )
        fds = [
            FunctionalDependency(("a",), "b"),
            FunctionalDependency(("b",), "c"),
            FunctionalDependency(("c",), "a"),
        ]
        _, report = FDRepairer(fds).repair(table)
        assert len(report) == 0
        assert scans == fds

    def test_cascade_rescans_only_after_a_write(self, scans):
        # eid -> dept rewrites row 0's dept before dept -> dname first
        # runs; dept -> dname then writes dname, which eid -> dept does
        # not read, so neither runs again.
        FDRepairer([EID_DEPT, DEPT_DNAME], max_passes=3).repair(cascade_table())
        assert scans == [EID_DEPT, DEPT_DNAME]
        scans.clear()
        # dept -> dname runs first; eid -> dept then writes dept, so
        # dept -> dname runs once more, and eid -> dept does not.
        repaired, _ = FDRepairer([DEPT_DNAME, EID_DEPT], max_passes=3).repair(cascade_table())
        assert scans == [DEPT_DNAME, EID_DEPT, DEPT_DNAME]
        assert EID_DEPT.holds(repaired) and DEPT_DNAME.holds(repaired)

    def test_shared_rhs_rescans_the_other_writer(self, scans):
        # Both FDs write c.  a -> c holds at first; b -> c rewrites row 1,
        # which splits a = 1, so a -> c runs again and rewrites row 0,
        # after which b -> c runs again and finds nothing to do.
        table = Table(
            "t", ["a", "b", "c"],
            rows=[["1", "x", "p"], ["1", "y", "p"], ["2", "y", "q"], ["3", "y", "q"]],
        )
        a_c, b_c = FunctionalDependency(("a",), "c"), FunctionalDependency(("b",), "c")
        _, report = FDRepairer([a_c, b_c], max_passes=3).repair(table)
        assert [(r.row, r.reason) for r in report.repairs] == [(1, "fd:b -> c"), (0, "fd:a -> c")]
        assert scans == [a_c, b_c, a_c, b_c]

    def test_one_pass_scans_each_fd_at_most_once(self, scans):
        FDRepairer([DEPT_DNAME, EID_DEPT], max_passes=1).repair(cascade_table())
        assert scans == [DEPT_DNAME, EID_DEPT]

    def test_approximate_discovery_groups_each_candidate_once(self, scans):
        table, _ = World(0).locations_table(60)
        discover_approximate_fds(table)
        assert len(scans) == len(set(scans)) == 20

    def test_violating_rows_lists_no_pairs(self, scans, monkeypatch):
        def no_pairs(fd, table):
            raise AssertionError("violating_rows listed the violating pairs")

        monkeypatch.setattr(FunctionalDependency, "violations", no_pairs)
        table, fds = World(0).locations_table(60)
        violation_rate(table, fds)
        assert scans == list(fds)
