"""benchmarks.compare_bench: rows and counters compared, wall clock dropped."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("benchmarks.compare_bench", reason="requires repo-root cwd")

from benchmarks.compare_bench import main
from repro.obs.bench import build_record

ROWS = {
    "e4": [{"entities": 60, "pretrain_s": 0.093, "pairs_per_s": 20993.5}],
    "e17": [{"scenario": "micro-batch", "p99_ms": 12.5, "scored_pairs": 640}],
}
EQUAL = [
    "BENCH_E17.json: rows equal, counters equal",
    "BENCH_E4.json: rows equal, counters equal",
]


@pytest.fixture()
def dirs(tmp_path):
    """Two directories holding the same BENCH_E4 and BENCH_E17 records."""
    sides = tmp_path / "a", tmp_path / "b"
    for side in sides:
        side.mkdir()
    for experiment, rows in ROWS.items():
        record = build_record(
            rows, experiment, metrics_snapshot={"counters": {"serve.batches": 5.0}}
        )
        for side in sides:
            (side / f"BENCH_{experiment.upper()}.json").write_text(json.dumps(record))
    return sides


def edit(path, change) -> None:
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


def compare(dirs, capsys):
    code = main([str(d) for d in dirs])
    return code, capsys.readouterr().out.splitlines()


def test_equal_files(dirs, capsys):
    assert compare(dirs, capsys) == (0, EQUAL)


def test_changed_row(dirs, capsys):
    edit(dirs[1] / "BENCH_E17.json", lambda r: r["rows"][0].update(p99_ms=12.6))
    assert compare(dirs, capsys) == (1, [
        "BENCH_E17.json: rows DIFFER, counters equal", EQUAL[1],
    ])


def test_changed_counter(dirs, capsys):
    edit(dirs[0] / "BENCH_E17.json", lambda r: r["metrics"]["counters"].update(
        {"serve.batches": 6.0, "kernels.extra": 1.0}
    ))
    assert compare(dirs, capsys) == (1, [
        "BENCH_E17.json: rows equal, counters DIFFER: kernels.extra, serve.batches",
        EQUAL[1],
    ])


def test_wall_clock_columns_are_dropped(dirs, capsys):
    edit(dirs[1] / "BENCH_E4.json", lambda r: r["rows"][0].update(
        pretrain_s=0.2, pairs_per_s=9000.0
    ))
    assert compare(dirs, capsys) == (0, EQUAL)
    # The same columns hold no wall clock in another file.
    edit(dirs[1] / "BENCH_E17.json", lambda r: r["rows"][0].update(pretrain_s=0.2))
    assert compare(dirs, capsys) == (1, [
        "BENCH_E17.json: rows DIFFER, counters equal", EQUAL[1],
    ])


def test_missing_file(dirs, capsys):
    (dirs[1] / "BENCH_E4.json").unlink()
    assert compare(dirs, capsys) == (1, [EQUAL[0], f"BENCH_E4.json: missing in {dirs[1]}"])
