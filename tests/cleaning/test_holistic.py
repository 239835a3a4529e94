"""HolisticRepairer (HoloClean-lite) tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import FDRepairer, HolisticRepairer
from repro.data import FunctionalDependency, Table

from tests.cleaning.conftest import assert_same_cells, fd_lists, repair_rows, tables
from tests.cleaning.reference_holistic import reference_holistic_repair


@pytest.fixture
def cities_table():
    """FD city→country; the 'lyon' group is majority-corrupted to 'de',
    but the prefix column ties +33 to 'fr' across the relation."""
    rows = []
    rows += [["lyon", "de", "+33"], ["lyon", "de", "+33"], ["lyon", "fr", "+33"]]
    rows += [["nice", "fr", "+33"]] * 5
    rows += [["paris", "fr", "+33"]] * 5
    rows += [["berlin", "de", "+49"]] * 5
    rows += [["munich", "de", "+49"]] * 4
    return Table("cities", ["city", "country", "prefix"], rows=rows)


@pytest.fixture
def fd():
    return FunctionalDependency(("city",), "country")


class TestHolisticRepairer:
    def test_requires_fds(self):
        with pytest.raises(ValueError):
            HolisticRepairer([])

    @pytest.mark.parametrize("setting, value", [
        ("smoothing", 0.0), ("smoothing", -0.5), ("smoothing", math.nan), ("smoothing", math.inf),
        ("fd_weight", math.nan), ("fd_weight", -1.0), ("fd_weight", math.inf),
        ("context_weight", math.nan), ("context_weight", -1.0), ("context_weight", math.inf),
        ("prior_weight", math.nan), ("prior_weight", -0.3), ("prior_weight", math.inf),
    ])
    def test_invalid_settings(self, fd, setting, value):
        """Zero or negative smoothing would fail inside ``_score`` with a math
        domain error; a NaN setting would return a repair with no error."""
        with pytest.raises(ValueError, match=setting):
            HolisticRepairer([fd], **{setting: value})

    def test_input_untouched(self, cities_table, fd):
        snapshot = cities_table.copy()
        HolisticRepairer([fd]).repair(cities_table)
        assert cities_table.equals(snapshot)

    def test_clean_table_no_repairs(self, fd):
        table = Table("t", ["city", "country", "prefix"],
                      rows=[["paris", "fr", "+33"], ["berlin", "de", "+49"]])
        repaired, report = HolisticRepairer([fd]).repair(table)
        assert len(report) == 0
        assert repaired.equals(table)

    def test_recovers_minority_corruption(self, fd):
        table = Table(
            "t", ["city", "country", "prefix"],
            rows=[["paris", "fr", "+33"], ["paris", "fr", "+33"], ["paris", "de", "+33"],
                  ["berlin", "de", "+49"], ["berlin", "de", "+49"]],
        )
        repaired, _ = HolisticRepairer([fd]).repair(table)
        assert repaired.cell(2, "country") == "fr"
        assert fd.holds(repaired)

    def test_context_overturns_corrupted_majority(self, cities_table, fd):
        """The HoloClean advantage: majority repair entrenches a majority
        corruption; holistic evidence from correlated attributes recovers
        the truth."""
        majority_repaired, _ = FDRepairer([fd]).repair(cities_table)
        assert majority_repaired.cell(2, "country") == "de"  # entrenched
        holistic_repaired, report = HolisticRepairer([fd]).repair(cities_table)
        for row in (0, 1, 2):
            assert holistic_repaired.cell(row, "country") == "fr"
        assert len(report) == 2
        assert all(r.reason == "holistic" for r in report.repairs)

    def test_repairs_only_rhs_cells(self, cities_table, fd):
        repaired, report = HolisticRepairer([fd]).repair(cities_table)
        assert all(r.column == "country" for r in report.repairs)
        assert repaired.column("city") == cities_table.column("city")
        assert repaired.column("prefix") == cities_table.column("prefix")

    def test_weights_tunable(self, cities_table, fd):
        """With context evidence muted, it degrades to majority behaviour."""
        repairer = HolisticRepairer(
            [fd], fd_weight=5.0, context_weight=0.0, prior_weight=0.0
        )
        repaired, _ = repairer.repair(cities_table)
        assert repaired.cell(2, "country") == "de"  # majority within group


class TestMatchesRescanReference:
    """Group counts kept across writes score every cell as the rescan of
    every row did: the same repaired cells, objects and report."""

    @staticmethod
    def check(table, repairer):
        repaired, report = repairer.repair(table)
        expected, expected_report = reference_holistic_repair(repairer, table)
        assert_same_cells(repaired, expected)
        assert repair_rows(report) == repair_rows(expected_report)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_repair(self, data):
        table = data.draw(tables())
        fds = data.draw(fd_lists(table.columns))
        weights = st.sampled_from([0.0, 0.3, 1.0, 2.0])
        repairer = HolisticRepairer(
            fds,
            fd_weight=data.draw(weights),
            context_weight=data.draw(weights),
            prior_weight=data.draw(weights),
            smoothing=data.draw(st.sampled_from([0.5, 1e-3, 2.0])),
        )
        self.check(table, repairer)

    def test_write_moves_a_row_between_groups(self):
        """``a -> b`` rewrites row 2's b from y to x before ``b -> c`` scores
        row 5's c, so row 5's b group must then hold row 2."""
        table = Table("t", ["a", "b", "c"], rows=[
            ["1", "x", "p"], ["1", "x", "p"], ["1", "y", "q"],
            ["2", "y", "q"], ["2", "y", "q"], ["3", "x", "q"],
        ])
        repairer = HolisticRepairer([FunctionalDependency(("a",), "b"), FunctionalDependency(("b",), "c")])
        self.check(table, repairer)
