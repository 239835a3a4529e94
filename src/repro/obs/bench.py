"""Machine-readable benchmark records (the ``BENCH_*.json`` schema).

Every experiment run emits one JSON document so the perf trajectory is a
diffable artifact instead of a scrollback of text tables.  Schema
(version 1)::

    {
      "schema_version": 1,
      "experiment_id": "e1",              # registry id, lowercase
      "title": "E1: DeepER vs ...",       # human title (may be null)
      "profile": "full" | "smoke",        # which config produced the rows
      "started_unix": 1722855601.2,       # wall-clock bounds of the run;
      "finished_unix": 1722855633.9,      # started <= finished <= generated
      "generated_unix": 1722855634.0,
      "git_sha": "13b0786..." | "unknown",
      "wall_time_seconds": 32.7,
      "rows": [ {..}, .. ],               # the experiment's result table
      "metrics": { .. },                  # REGISTRY.snapshot() at emit time
      "spans": { .. } | null              # Span.to_dict() provenance tree,
    }                                     # at most MAX_SPAN_NODES nodes

:func:`validate_record` is the single source of truth for the schema; the
``benchmarks.check_bench_json`` CLI and ``run_all`` both call it.
"""

from __future__ import annotations

import json
import math
import subprocess
import time
from pathlib import Path

from repro.obs.metrics import REGISTRY
from repro.obs.trace import Span

SCHEMA_VERSION = 1

# The most span nodes a record may hold.  A tree past this traces one
# span per item or per chunk instead of profiling the run's stages.
MAX_SPAN_NODES = 500

REQUIRED_KEYS = {
    "schema_version": int,
    "experiment_id": str,
    "profile": str,
    "started_unix": (int, float),
    "finished_unix": (int, float),
    "generated_unix": (int, float),
    "git_sha": str,
    "wall_time_seconds": (int, float),
    "rows": list,
    "metrics": dict,
}


def git_sha(cwd: str | Path | None = None) -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def sanitize(value: object) -> object:
    """Coerce a result value into strict-JSON types.

    Numpy scalars become python numbers, non-finite floats become None
    (strict JSON has no NaN/Infinity), containers recurse, anything else is
    stringified.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    # numpy scalars expose item(); arrays expose tolist().
    if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
        return sanitize(value.item())
    if hasattr(value, "tolist"):
        return sanitize(value.tolist())
    return str(value)


def build_record(
    rows: list[dict],
    experiment_id: str,
    *,
    title: str | None = None,
    profile: str = "full",
    started_unix: float | None = None,
    wall_time_seconds: float | None = None,
    span: Span | None = None,
    metrics_snapshot: dict | None = None,
) -> dict:
    """Assemble a schema-version-1 bench record (not yet written to disk)."""
    if not experiment_id:
        raise ValueError("experiment_id must be non-empty")
    finished = time.time()
    started = finished - (wall_time_seconds or 0.0) if started_unix is None else started_unix
    record = {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": experiment_id.lower(),
        "title": title,
        "profile": profile,
        "started_unix": started,
        "finished_unix": finished,
        "generated_unix": time.time(),
        "git_sha": git_sha(),
        "wall_time_seconds": float(
            wall_time_seconds if wall_time_seconds is not None else finished - started
        ),
        "rows": [sanitize(row) for row in rows],
        "metrics": sanitize(
            metrics_snapshot if metrics_snapshot is not None else REGISTRY.snapshot()
        ),
        "spans": sanitize(span.to_dict()) if span is not None else None,
    }
    return record


def write_record(record: dict, out_dir: str | Path = ".") -> Path:
    """Write ``record`` to ``BENCH_<EXPERIMENT_ID>.json`` under ``out_dir``."""
    path = Path(out_dir) / f"BENCH_{record['experiment_id'].upper()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    return path


def validate_record(record: object, source: str = "<record>") -> list[str]:
    """Schema + monotonic-timestamp checks; returns a list of problems."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"{source}: top-level JSON value must be an object"]
    for key, expected in REQUIRED_KEYS.items():
        if key not in record:
            problems.append(f"{source}: missing required key {key!r}")
        elif not isinstance(record[key], expected) or isinstance(record[key], bool):
            problems.append(
                f"{source}: key {key!r} has type {type(record[key]).__name__}, "
                f"expected {expected}"
            )
    if problems:
        return problems
    if record["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"{source}: schema_version {record['schema_version']} != {SCHEMA_VERSION}"
        )
    if not record["experiment_id"]:
        problems.append(f"{source}: experiment_id is empty")
    started, finished, generated = (
        record["started_unix"], record["finished_unix"], record["generated_unix"],
    )
    if not started <= finished:
        problems.append(f"{source}: started_unix {started} > finished_unix {finished}")
    if not finished <= generated:
        problems.append(f"{source}: finished_unix {finished} > generated_unix {generated}")
    if record["wall_time_seconds"] < 0:
        problems.append(f"{source}: negative wall_time_seconds")
    for i, row in enumerate(record["rows"]):
        if not isinstance(row, dict):
            problems.append(f"{source}: rows[{i}] is not an object")
    spans = record.get("spans")
    if spans is not None:
        problems.extend(_validate_span(spans, f"{source}: spans"))
        nodes = _span_nodes(spans)
        if nodes > MAX_SPAN_NODES:
            problems.append(
                f"{source}: span tree has {nodes} nodes, over the budget of "
                f"{MAX_SPAN_NODES}"
            )
    return problems


def _span_nodes(node: object) -> int:
    """Nodes in a span tree; a node without a ``children`` list is a leaf."""
    if not isinstance(node, dict) or not isinstance(node.get("children"), list):
        return 1
    return 1 + sum(_span_nodes(child) for child in node["children"])


def _validate_span(node: object, path: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(node, dict):
        return [f"{path}: span node is not an object"]
    for key in ("name", "seconds", "children"):
        if key not in node:
            problems.append(f"{path}: span missing {key!r}")
    if problems:
        return problems
    if not isinstance(node["seconds"], (int, float)) or node["seconds"] < 0:
        problems.append(f"{path}/{node.get('name')}: non-numeric or negative seconds")
    child_total = 0.0
    for i, child in enumerate(node["children"]):
        problems.extend(_validate_span(child, f"{path}/{node['name']}[{i}]"))
        if isinstance(child, dict) and isinstance(child.get("seconds"), (int, float)):
            child_total += child["seconds"]
    # Children cannot outlive their parent (small tolerance for rounding).
    if isinstance(node["seconds"], (int, float)) and child_total > node["seconds"] * 1.05 + 1e-6:
        problems.append(
            f"{path}/{node['name']}: children total {child_total:.6f}s exceeds "
            f"parent {node['seconds']:.6f}s"
        )
    return problems
