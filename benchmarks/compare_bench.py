"""Compare two directories of BENCH files: ``python -m benchmarks.compare_bench A B``.

For every ``BENCH_*.json`` in either directory, prints one line: whether
the two files' ``rows`` are equal and which ``metrics.counters`` names
differ (a name on one side only counts as differing).  Wall-clock row
columns (:data:`WALL_CLOCK`) never repeat byte for byte, so they are
dropped before the rows are compared; spans, gauges, histograms and the
envelope's timestamps are not compared at all.

Exit code 0 iff every file is on both sides with equal rows and
counters, so the committed files and a rerun compare with
``python -m benchmarks.compare_bench . <rerun dir>``.
"""

from __future__ import annotations

import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path

# Row columns that hold wall-clock time, per file (fnmatch patterns).
WALL_CLOCK = {
    "BENCH_E2.json": "seconds",
    "BENCH_E4.json": "*_s",
    "BENCH_E16.json": "seconds",
}


def comparable_rows(record: dict, name: str) -> "list[dict]":
    """``record``'s rows without the wall-clock columns of file ``name``."""
    pattern = WALL_CLOCK.get(name)
    if pattern is None:
        return record["rows"]
    return [
        {k: v for k, v in row.items() if not fnmatchcase(k, pattern)}
        for row in record["rows"]
    ]


def differing_counters(a: dict, b: dict) -> "list[str]":
    """Sorted names of the ``metrics.counters`` that differ between records."""
    left, right = a["metrics"]["counters"], b["metrics"]["counters"]
    return sorted(n for n in left.keys() | right.keys() if left.get(n) != right.get(n))


def compare_dirs(dir_a: Path, dir_b: Path) -> "tuple[list[str], bool]":
    """One report line per BENCH file in either directory, and whether
    every file is on both sides with equal rows and counters."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("BENCH_*.json")})
    lines, same = [], bool(names)
    for name in names:
        missing = [str(d) for d in (dir_a, dir_b) if not (d / name).is_file()]
        if missing:
            lines.append(f"{name}: missing in {missing[0]}")
            same = False
            continue
        a, b = (json.loads((d / name).read_text()) for d in (dir_a, dir_b))
        rows_equal = comparable_rows(a, name) == comparable_rows(b, name)
        counters = differing_counters(a, b)
        lines.append(
            f"{name}: rows {'equal' if rows_equal else 'DIFFER'}, counters "
            + (f"DIFFER: {', '.join(counters)}" if counters else "equal")
        )
        same = same and rows_equal and not counters
    return lines or ["no BENCH_*.json files found"], same


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.compare_bench <dir_a> <dir_b>", file=sys.stderr)
        return 2
    lines, same = compare_dirs(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
