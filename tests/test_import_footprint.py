"""``import repro`` stays light: heavy optional dependencies load lazily."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_loads_neither_scipy_stats_nor_networkx():
    """scipy.stats (the KS statistic) and networkx (the Figure-4 graphs
    and the EKG) are imported where they are used, not by ``import
    repro``: together they cost ~0.5 s and ~50 MB in every process."""
    script = (
        "import sys, repro\n"
        "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.strip()
    assert loaded == "[]"
