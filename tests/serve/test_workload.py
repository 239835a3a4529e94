"""Workload generator: seeded determinism, repeats, open-loop arrivals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import Query, WorkloadConfig, generate_workload


RECORDS = [{"name": f"r{k}", "k": k} for k in range(12)]


class TestConfig:
    def test_validation_messages_are_pinned(self):
        with pytest.raises(ValueError, match=r"n_queries must be >= 1, got 0"):
            WorkloadConfig(n_queries=0, rate=10.0)
        with pytest.raises(ValueError, match=r"rate must be > 0, got 0.0"):
            WorkloadConfig(n_queries=5, rate=0.0)
        with pytest.raises(ValueError, match=r"rate must be > 0, got -3.0"):
            WorkloadConfig(n_queries=5, rate=-3.0)
        with pytest.raises(
            ValueError, match=r"repeat_fraction must be in \[0, 1\], got 1.5"
        ):
            WorkloadConfig(n_queries=5, rate=10.0, repeat_fraction=1.5)

    def test_empty_records_rejected(self):
        with pytest.raises(
            ValueError, match=r"need at least one record to draw queries from"
        ):
            generate_workload([], WorkloadConfig(n_queries=5, rate=10.0))


class TestDeterminism:
    def test_same_seed_same_workload(self):
        config = WorkloadConfig(n_queries=40, rate=50.0, repeat_fraction=0.4, seed=3)
        first = generate_workload(RECORDS, config)
        second = generate_workload(RECORDS, config)
        assert [(q.query_id, q.arrival) for q in first] == [
            (q.query_id, q.arrival) for q in second
        ]
        assert [q.record for q in first] == [q.record for q in second]

    def test_different_seed_different_workload(self):
        a = generate_workload(RECORDS, WorkloadConfig(n_queries=40, rate=50.0, seed=0))
        b = generate_workload(RECORDS, WorkloadConfig(n_queries=40, rate=50.0, seed=1))
        assert [q.arrival for q in a] != [q.arrival for q in b]


class TestShape:
    def test_arrivals_strictly_increase(self):
        queries = generate_workload(
            RECORDS, WorkloadConfig(n_queries=100, rate=200.0, seed=5)
        )
        arrivals = [q.arrival for q in queries]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert [q.query_id for q in queries] == list(range(100))

    def test_rate_sets_mean_gap(self):
        queries = generate_workload(
            RECORDS, WorkloadConfig(n_queries=2000, rate=100.0, seed=7)
        )
        mean_gap = queries[-1].arrival / len(queries)
        assert mean_gap == pytest.approx(1 / 100.0, rel=0.15)

    def test_repeat_fraction_reissues_records(self):
        # A wide record pool makes accidental re-draws rare, so re-issued
        # records (same object as an earlier query) measure repeats.
        pool = [{"name": f"p{k}"} for k in range(1000)]

        def collisions(repeat_fraction):
            queries = generate_workload(pool, WorkloadConfig(
                n_queries=200, rate=50.0,
                repeat_fraction=repeat_fraction, seed=2,
            ))
            seen: set[int] = set()
            repeated = 0
            for q in queries:
                repeated += id(q.record) in seen
                seen.add(id(q.record))
            return repeated

        assert collisions(0.6) > 80  # ~0.6 of 199 eligible, loosely bounded
        assert collisions(0.0) < 30  # birthday collisions only

    def test_zero_repeat_fraction_draws_uniformly(self):
        queries = generate_workload(
            RECORDS, WorkloadConfig(n_queries=300, rate=50.0, seed=4)
        )
        drawn = {id(q.record) for q in queries}
        assert len(drawn) == len(RECORDS)  # every record eventually sampled

    def test_query_equality_ignores_record(self):
        a = Query(query_id=0, arrival=1.0, record={"x": 1})
        b = Query(query_id=0, arrival=1.0, record={"x": 2})
        assert a == b  # record is compare=False metadata


class TestSaltIsolation:
    def test_workload_rng_disjoint_from_default_seeding(self):
        """Seed 0 here must not mirror np.default_rng(0) streams."""
        queries = generate_workload(
            RECORDS, WorkloadConfig(n_queries=10, rate=10.0, seed=0)
        )
        plain = np.random.default_rng(0).exponential(0.1, size=10)
        assert not np.allclose([q.arrival for q in queries], np.cumsum(plain))


class TestArrivalAndRateChecks:
    def test_nan_arrival_is_rejected(self):
        with pytest.raises(ValueError, match=r"arrival must be >= 0, got nan"):
            Query(query_id=0, arrival=float("nan"), record={})

    def test_negative_arrival_is_rejected(self):
        with pytest.raises(ValueError, match=r"arrival must be >= 0, got -1.0"):
            Query(query_id=0, arrival=-1.0, record={})

    def test_infinite_arrival_is_rejected(self):
        with pytest.raises(ValueError, match=r"arrival must be finite, got inf"):
            Query(query_id=0, arrival=float("inf"), record={})

    def test_n_queries_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"n_queries must be an integer, got nan"):
            WorkloadConfig(n_queries=float("nan"), rate=10.0)
        with pytest.raises(ValueError, match=r"n_queries must be an integer, got 2.5"):
            WorkloadConfig(n_queries=2.5, rate=10.0)

    def test_nan_rate_is_rejected(self):
        with pytest.raises(ValueError, match=r"rate must be > 0, got nan"):
            WorkloadConfig(n_queries=5, rate=float("nan"))
