"""Knowledge fusion via treat-as-missing + imputation (paper Section 5.3).

"In the presence of conflicting values, treat them as missing and identify
the most plausible predicted values."  Conflicts are detected per FD group
or per entity cluster; conflicting cells are blanked and handed to any
imputer (typically the DAE), whose predictions resolve the conflict from
relation-level patterns.
"""

from __future__ import annotations

from repro.cleaning.imputation import _BaseImputer
from repro.data.dependencies import FunctionalDependency
from repro.data.table import Table


def blank_conflicts(
    table: Table, fds: list[FunctionalDependency]
) -> tuple[Table, set[tuple[int, str]]]:
    """Null out every cell participating in an FD conflict.

    Returns the blanked copy and the set of blanked (row, column) cells.
    """
    blanked = table.copy(f"{table.name}_conflicts_blanked")
    cells: set[tuple[int, str]] = set()
    for fd in fds:
        groups, rhs = fd.group_rows(table)
        for rows in groups.values():
            values = {rhs[r] for r in rows}
            if len(values) <= 1:
                continue
            for row in rows:
                blanked.set_cell(row, fd.rhs, None)
                cells.add((row, fd.rhs))
    return blanked, cells


def fuse_with_imputer(
    table: Table,
    fds: list[FunctionalDependency],
    imputer: _BaseImputer,
) -> tuple[Table, set[tuple[int, str]]]:
    """Resolve FD conflicts by blanking + imputing.

    The imputer is fitted on the blanked table (conflicting evidence
    removed) and then fills the blanks.  Returns the fused table and the
    set of cells that were in conflict.
    """
    blanked, cells = blank_conflicts(table, fds)
    if not cells:
        return table.copy(f"{table.name}_fused"), cells
    fused = imputer.fit(blanked).transform(blanked)
    fused.name = f"{table.name}_fused"
    return fused, cells
