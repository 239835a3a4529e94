"""Differential harness: the repro.par call sites are serial≡parallel.

Each test runs the same seeded workload with ``jobs=1`` and
``jobs=2..4`` and asserts bit-identical results — the correctness
contract that lets callers treat ``jobs`` as a pure throughput knob.
The serving sites (``unique_column_stack`` and the services' column
fallback) are checked in ``tests/kernels`` and ``tests/serve``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Table
from repro.discovery import SemanticMatcher, SyntacticMatcher
from repro.faults import Fault, FaultPlan
from repro.obs import REGISTRY, collecting, drain_roots
from repro.par import pmap


def _toy_vector(token: str) -> np.ndarray:
    """Picklable deterministic token embedding (content-seeded)."""
    rng = np.random.default_rng(sum(token.encode()) % (2**31))
    return rng.normal(size=16)


class TestMatcherDifferential:
    @pytest.fixture(scope="class")
    def tables(self):
        rng = np.random.default_rng(2)
        rows_a = [
            {"full_name": f"person {i}", "work_city": f"city {i % 5}", "dept": f"unit {i % 3}"}
            for i in range(12)
        ]
        rows_b = [
            {"person": f"person {i}", "location_town": f"city {i % 5}", "division": f"unit {i % 3}",
             "noise": float(rng.random())}
            for i in range(12)
        ]
        return Table.from_records("a", rows_a), Table.from_records("b", rows_b)

    def test_syntactic_matcher(self, tables):
        table_a, table_b = tables
        matcher = SyntacticMatcher(name_weight=0.5)
        serial = matcher.match_tables(table_a, table_b, threshold=0.1, jobs=1)
        assert serial, "workload produced no links; test is vacuous"
        for jobs in (2, 4):
            assert matcher.match_tables(table_a, table_b, threshold=0.1, jobs=jobs) == serial

    def test_semantic_matcher(self, tables):
        table_a, table_b = tables
        matcher = SemanticMatcher(_toy_vector, dim=16, name_weight=0.5)
        serial = matcher.match_tables(table_a, table_b, threshold=0.0, jobs=1)
        assert serial, "workload produced no links; test is vacuous"
        assert matcher.match_tables(table_a, table_b, threshold=0.0, jobs=3) == serial

    def test_single_column_tables(self):
        table_a = Table.from_records("a", [{"name": "x"}])
        table_b = Table.from_records("b", [{"title": "x"}])
        matcher = SyntacticMatcher()
        for jobs in (1, 2):
            links = matcher.match_tables(table_a, table_b, threshold=0.0, jobs=jobs)
            assert len(links) == 1


def _triple(x):
    return x * 3


def _map_span():
    """The par.map span from the most recent drained trace roots."""
    for root in drain_roots():
        if root.name == "par.map":
            return root
        found = root.find("par.map")
        if found is not None:
            return found
    raise AssertionError("no par.map span recorded")


class TestInjectedPoolFaults:
    """Injected pool faults exercise the retry-then-serial-fallback path
    without changing a single result — the par determinism contract holds
    under fault injection too."""

    ITEMS = list(range(37))

    def test_exhausted_pool_falls_back_serial_identical(self):
        serial = pmap(_triple, self.ITEMS, jobs=1)
        for jobs in (2, 3, 4):
            plan = FaultPlan([Fault("par.pool", "error", hits=(0, 1))])
            with collecting(reset=True), plan:
                drain_roots()
                result = pmap(_triple, self.ITEMS, jobs=jobs, chunk_size=5)
                snapshot = REGISTRY.snapshot()
            assert result == serial
            assert plan.ledger.count("error", "par.pool") == 2
            map_span = _map_span()
            assert map_span.meta["mode"] == "serial:injected"
            assert map_span.meta["pool_attempts"] == 2
            assert snapshot["counters"]["par.fallback.injected"] == 1.0

    def test_single_injected_fault_recovers_to_parallel(self):
        serial = pmap(_triple, self.ITEMS, jobs=1)
        with FaultPlan([Fault("par.pool", "error", hits=(0,))]) as plan:
            drain_roots()
            result = pmap(_triple, self.ITEMS, jobs=2, chunk_size=5)
        assert result == serial
        assert plan.ledger.count("error", "par.pool") == 1
        map_span = _map_span()
        assert map_span.meta["mode"] == "parallel"
        assert map_span.meta["pool_attempts"] == 2

    def test_no_faults_single_pool_attempt(self):
        with FaultPlan([]):
            drain_roots()
            pmap(_triple, self.ITEMS, jobs=2, chunk_size=5)
        map_span = _map_span()
        assert map_span.meta["mode"] == "parallel"
        assert map_span.meta["pool_attempts"] == 1


class TestBenchDifferential:
    def test_e2_rows_identical_across_jobs(self):
        from benchmarks.bench_e2_blocking import run_experiment

        def strip(rows):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]

        serial = run_experiment(profile="smoke", jobs=1)
        parallel = run_experiment(profile="smoke", jobs=2)
        assert strip(serial) == strip(parallel)
        assert all("seconds" in row for row in serial)
