"""Minimal FD repair tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import FDRepairer, blank_conflicts, repair_quality
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

from tests.cleaning.conftest import assert_same_cells, fd_lists, repair_rows, tables
from tests.cleaning.reference_fd_scans import (
    reference_blank_conflicts,
    reference_fd_error,
    reference_group_rows,
    reference_repair,
    reference_scans,
    reference_violating_rows,
    reference_violations,
)


class TestFDRepairer:
    def test_requires_fds(self):
        with pytest.raises(ValueError):
            FDRepairer([])

    @pytest.mark.parametrize("max_passes", [0, -1, 2.5, math.nan, True])
    def test_invalid_settings(self, max_passes):
        """``max_passes`` < 1 would return an unrepaired copy; a float
        would fail only inside ``repair``."""
        with pytest.raises(ValueError, match="max_passes"):
            FDRepairer([FunctionalDependency(("a",), "b")], max_passes=max_passes)

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


CASCADE_ROWS = [["1", "10", "hr"], ["1", "99", "hr"], ["2", "10", "hr"], ["3", "10", "finance"]]
EID_DEPT = FunctionalDependency(("eid",), "dept")
DEPT_DNAME = FunctionalDependency(("dept",), "dname")


def cascade_table():
    return Table("t", ["eid", "dept", "dname"], rows=CASCADE_ROWS)


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
        self.check_scans(table, data.draw(fd_lists(table.columns)))

    @pytest.mark.parametrize("lhs_size", [1, 2])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "present"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_each_grouping_branch(self, data, missing, lhs_size):
        """``group_rows`` groups a one-column lhs by the raw cell and a wider
        one by tuples; each branch on tables with and without missing cells."""
        table = data.draw(tables(missing=missing))
        fds = data.draw(fd_lists(table.columns, lhs_size))
        assert all(len(fd.lhs) == lhs_size for fd in fds)
        self.check_repair(table, fds, data.draw(st.sampled_from([1, 2, 3, 5])))
        self.check_scans(table, fds)

    @classmethod
    def check_scans(cls, table, fds):
        got = cls.scans(table, fds, blank_conflicts)
        with reference_scans():
            expected = cls.scans(table, fds, reference_blank_conflicts)
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


class TestGroupingContract:
    """What ``group_rows`` promises beyond matching the reference scan."""

    FD = FunctionalDependency(("a",), "b")

    def test_dict_equality(self):
        """1, 1.0 and True group together under the first row's cell, and the
        written majority is the first object of that value in the group."""
        majority, equal = float("1"), float("1")
        table = Table("t", ["a", "b"], rows=[[1, "x"], [1.0, majority], [True, 1], [True, equal], [2, "y"]])
        groups, _ = self.FD.group_rows(table)
        assert repr(list(groups.items())) == "[((1,), [0, 1, 2, 3]), ((2,), [4])]"
        repaired, report = FDRepairer([self.FD]).repair(table)
        assert repaired.cell(0, "b") is majority
        assert repaired.cell(3, "b") is equal
        assert [(r.row, r.old_value, r.new_value) for r in report.repairs] == [(0, "x", 1.0)]

    def test_unhashable_rhs_refused_in_every_row(self):
        """Missingness is decided per distinct rhs value, so every rhs cell is
        hashed, also in a row whose lhs is missing."""
        table = Table("t", ["a", "b"], rows=[[None, ["x"]], ["1", "y"]])
        with pytest.raises(TypeError):
            self.FD.group_rows(table)


class TestRepairRecord:
    """``Repair``: five fields in order, a stable repr, immutable and hashable."""

    REPAIR = Repair(3, "b", "y", "x", "fd:a -> b")

    def test_fields_and_repr(self):
        repair = self.REPAIR
        assert (repair.row, repair.column, repair.old_value, repair.new_value, repair.reason) == (
            3, "b", "y", "x", "fd:a -> b"
        )
        assert repr(repair) == (
            "Repair(row=3, column='b', old_value='y', new_value='x', reason='fd:a -> b')"
        )
        assert Repair(row=3, column="b", old_value="y", new_value="x", reason="fd:a -> b") == repair

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.REPAIR.new_value = "z"

    def test_hash_and_equality(self):
        same = Repair(3, "b", "y", "x", "fd:a -> b")
        assert same == self.REPAIR and hash(same) == hash(self.REPAIR)
        assert len({self.REPAIR, same, Repair(4, "b", "y", "x", "fd:a -> b")}) == 2
        assert self.REPAIR != Repair(3, "b", "y", "z", "fd:a -> b")


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
