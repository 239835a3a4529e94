"""Shared hypothesis strategies and checks for the FD-scan differential tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.data import FunctionalDependency, Table

# 1, 1.0 and True are equal and hash alike but print apart; "", None and
# NaN are the missing encodings.  FRESH_NAN draws a new NaN object, which
# no other NaN key equals.
FRESH_NAN = object()
PRESENT = ["a", "b", "c", 1, 1.0, True, 2]
MISSING = ["", None, float("nan"), FRESH_NAN]
COLUMNS = ["c0", "c1", "c2", "c3"]


def cells(missing=True):
    palette = PRESENT + MISSING if missing else PRESENT
    return st.sampled_from(palette).map(lambda value: float("nan") if value is FRESH_NAN else value)


@st.composite
def tables(draw, missing=True):
    """0-40 rows; each column draws from its own few values, so LHS groups
    are large and conflicting, and repairs cascade from FD to FD.  With
    ``missing=False`` no cell is missing."""
    columns = COLUMNS[:draw(st.integers(3, 4))]
    palettes = [draw(st.lists(cells(missing), min_size=2, max_size=4)) for _ in columns]
    n_rows = draw(st.integers(0, 40))
    return Table("t", columns, [[draw(st.sampled_from(p)) for p in palettes] for _ in range(n_rows)])


@st.composite
def fd_lists(draw, columns, lhs_size=None):
    """1-3 FDs; cascades, shared rhs columns and two-FD cycles by construction.

    Every lhs has ``lhs_size`` columns; by default the constructed FDs
    have one and the others one or two.
    """

    def fd(first, rhs):
        others = [c for c in columns if c not in (first, rhs)]
        extra = draw(st.permutations(others))[:lhs_size - 1] if lhs_size else []
        return FunctionalDependency((first, *extra), rhs)

    a, b, c = draw(st.permutations(columns))[:3]
    shape = draw(st.sampled_from(["free", "cascade", "shared_rhs", "cycle"]))
    fds = {
        "free": lambda: [],
        "cascade": lambda: [fd(a, b), fd(b, c)],
        "shared_rhs": lambda: [fd(a, c), fd(b, c)],
        "cycle": lambda: [fd(a, b), fd(b, a)],
    }[shape]()
    sizes = (lhs_size, lhs_size) if lhs_size else (1, 2)
    for _ in range(draw(st.integers(0 if fds else 1, 3 - len(fds)))):
        rhs = draw(st.sampled_from(columns))
        lhs = draw(st.lists(
            st.sampled_from([x for x in columns if x != rhs]),
            min_size=sizes[0], max_size=sizes[1], unique=True,
        ))
        fds.append(FunctionalDependency(tuple(lhs), rhs))
    return draw(st.permutations(fds))


def assert_same_cells(table, expected):
    """Equal by ``repr`` (1, 1.0 and True differ) and by identity (so do NaNs)."""
    assert table.columns == expected.columns
    for column in table.columns:
        got, want = table.column(column), expected.column(column)
        assert list(map(repr, got)) == list(map(repr, want)), column
        assert all(g is w for g, w in zip(got, want)), column


def repair_rows(report):
    return [(r.row, r.column, repr(r.old_value), repr(r.new_value), r.reason) for r in report.repairs]
