"""pmap/pmap_chunks: serial≡parallel, fallbacks, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import REGISTRY, collecting, drain_roots
from repro.par import pmap, pmap_chunks
from repro.par import pool as pool_module


def _double(x):
    return x * 2


def _chunk_sum(payload):
    return sum(payload)


def _boom(x):
    raise RuntimeError(f"kaboom on {x}")


def _map_span():
    """The par.map span from the most recent drained trace roots."""
    for root in drain_roots():
        found = root.find("par.map") if hasattr(root, "find") else None
        if found is not None:
            return found
        if root.name == "par.map":
            return root
    raise AssertionError("no par.map span recorded")


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_pmap(self, jobs):
        items = list(range(97))
        assert pmap(_double, items, jobs=jobs) == [x * 2 for x in items]

    def test_pmap_chunks_parts_ordered(self):
        parts = pmap_chunks(_chunk_sum, list(range(40)), jobs=3, chunk_size=7)
        assert parts == [sum(range(40)[k : k + 7]) for k in range(0, 40, 7)]

    @pytest.mark.parametrize("call", [
        lambda jobs: pmap(_double, [], jobs=jobs),
        lambda jobs: pmap_chunks(_chunk_sum, [], jobs=jobs),
    ])
    def test_empty_input(self, call):
        assert call(1) == call(4) == []

    def test_single_item(self):
        assert pmap(_double, [21], jobs=4) == [42]


class TestValidationAndErrors:
    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            pmap(_double, [1], jobs=0)

    @pytest.mark.parametrize("bad", [True, 2.0, "2", None])
    def test_jobs_wrong_type_rejected(self, bad):
        with pytest.raises(TypeError, match="jobs"):
            pmap(_double, [1], jobs=bad)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunk_fn_errors_propagate(self, jobs):
        with pytest.raises(RuntimeError, match="kaboom"):
            pmap(_boom, list(range(10)), jobs=jobs, chunk_size=2)


class TestFallbacks:
    def test_unpicklable_fn_falls_back_to_serial(self):
        items = list(range(20))
        with collecting(reset=True):
            result = pmap(lambda x: x + 1, items, jobs=4, chunk_size=2)
            snapshot = REGISTRY.snapshot()
        assert result == [x + 1 for x in items]
        assert snapshot["counters"]["par.fallback.unpicklable"] == 1.0

    def test_single_chunk_falls_back(self):
        drain_roots()
        assert pmap(_double, [1, 2, 3], jobs=4, chunk_size=10) == [2, 4, 6]
        assert _map_span().meta["mode"] == "serial:single_chunk"

    def test_jobs_one_is_serial(self):
        drain_roots()
        pmap(_double, list(range(10)), jobs=1, chunk_size=2)
        assert _map_span().meta["mode"] == "serial:jobs"

    def test_nested_call_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_IN_WORKER", True)
        drain_roots()
        assert pmap(_double, list(range(10)), jobs=4, chunk_size=2) == [
            x * 2 for x in range(10)
        ]
        assert _map_span().meta["mode"] == "serial:nested"

    def test_pool_error_falls_back(self, monkeypatch):
        def _broken(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(pool_module, "_run_parallel", _broken)
        drain_roots()
        with collecting(reset=True):
            result = pmap(_double, list(range(10)), jobs=4, chunk_size=2)
            snapshot = REGISTRY.snapshot()
        assert result == [x * 2 for x in range(10)]
        assert snapshot["counters"]["par.fallback.pool_error"] == 1.0
        assert _map_span().meta["mode"] == "serial:pool_error"


class TestTelemetry:
    def test_parallel_span_meta(self):
        drain_roots()
        pmap(_double, list(range(24)), jobs=2, chunk_size=6)
        meta = _map_span().meta
        assert meta["mode"] == "parallel"
        assert meta["jobs"] == 2
        assert meta["chunks"] == 4
        assert meta["items"] == 24
        assert len(meta["chunk_seconds"]) == 4
        assert all(seconds >= 0 for seconds in meta["chunk_seconds"])

    def test_serial_map_span_has_no_children(self):
        drain_roots()
        pmap(_double, list(range(10)), jobs=1, chunk_size=2)
        roots = drain_roots()
        assert [root.name for root in roots] == ["par.map"]
        assert roots[0].meta["chunks"] == 5
        assert roots[0].children == []

    def test_metrics_behind_enabled_guard(self):
        REGISTRY.reset()
        assert not REGISTRY.enabled
        pmap(_double, list(range(10)), jobs=2, chunk_size=2)
        assert REGISTRY.snapshot()["counters"] == {}

    def test_metrics_when_collecting(self):
        with collecting(reset=True):
            pmap(_double, list(range(10)), jobs=2, chunk_size=2)
            snapshot = REGISTRY.snapshot()
        assert snapshot["counters"]["par.calls"] == 1.0
        assert snapshot["counters"]["par.items"] == 10.0
        assert snapshot["counters"]["par.chunks"] == 5.0
        assert snapshot["histograms"]["par.chunk_seconds"]["count"] == 5
