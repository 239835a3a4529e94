"""Simulator scheduling: batching windows, admission control, percentiles.

These tests drive :func:`repro.serve.simulate` with a stub service whose
cost is fully controlled through ``scored_pairs``, so every assertion is
about the *scheduler*, not the model.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    Query,
    QueryResult,
    ServerConfig,
    SimClock,
    SimReport,
    percentile,
    simulate,
)
from repro.serve.service import BatchReport


class StubService:
    """Fixed per-query pair count; records every batch it was handed."""

    def __init__(self, pairs_per_query: int = 0):
        self.pairs_per_query = pairs_per_query
        self.batches: list[int] = []

    def match_batch(self, records):
        self.batches.append(len(records))
        return BatchReport(
            answers=[None] * len(records),
            scored_pairs=self.pairs_per_query * len(records),
            embedding_misses=len(records),
            predict_calls=1 if records else 0,
        )


def queries_at(arrivals: list[float]) -> list[Query]:
    return [Query(query_id=k, arrival=t, record={"q": k}) for k, t in enumerate(arrivals)]


class TestClock:
    def test_advance_and_advance_to(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance_to(1.0) == 1.5  # never backwards
        assert clock.advance_to(2.0) == 2.0

    def test_negative_moves_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)
        with pytest.raises(ValueError):
            SimClock(start=-1.0)


class TestServerConfig:
    def test_validation_messages_are_pinned(self):
        # Full messages, got-value included: downstream tooling greps
        # these strings and a silent rewording would orphan it.
        with pytest.raises(ValueError, match=r"max_batch_size must be >= 1, got 0"):
            ServerConfig(max_batch_size=0)
        with pytest.raises(ValueError, match=r"max_queue must be >= 1, got 0"):
            ServerConfig(max_queue=0)
        with pytest.raises(ValueError, match=r"max_wait must be >= 0, got -0.001"):
            ServerConfig(max_wait=-0.001)
        with pytest.raises(ValueError, match=r"cost model terms must be >= 0"):
            ServerConfig(cost_base=-1.0)
        with pytest.raises(ValueError, match=r"cost model terms must be >= 0"):
            ServerConfig(cost_per_embed=-1e-6)

    def test_max_batch_size_must_be_an_integer(self):
        # NaN once built a config and then failed mid-run slicing the queue.
        with pytest.raises(ValueError, match=r"max_batch_size must be an integer, got nan"):
            ServerConfig(max_batch_size=float("nan"))
        with pytest.raises(ValueError, match=r"max_batch_size must be an integer, got 2.5"):
            ServerConfig(max_batch_size=2.5)

    def test_max_queue_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"max_queue must be an integer, got nan"):
            ServerConfig(max_queue=float("nan"))
        with pytest.raises(ValueError, match=r"max_queue must be an integer, got 2.5"):
            ServerConfig(max_queue=2.5)


class TestBatching:
    def test_full_batch_fires_before_deadline(self):
        service = StubService()
        config = ServerConfig(max_batch_size=4, max_wait=10.0, max_queue=64,
                              cost_base=0.0, cost_per_query=0.0, cost_per_miss=0.0)
        report = simulate(service, queries_at([0.00, 0.01, 0.02, 0.03, 5.0]), config)
        # First four coalesce the moment the batch is full (t=0.03), the
        # straggler waits out its own deadline.
        assert service.batches == [4, 1]
        assert report.batches[0]["fire"] == pytest.approx(0.03)
        assert report.batches[1]["fire"] == pytest.approx(15.0)

    def test_deadline_fires_partial_batch(self):
        service = StubService()
        config = ServerConfig(max_batch_size=8, max_wait=0.05, max_queue=64,
                              cost_base=0.0, cost_per_query=0.0, cost_per_miss=0.0)
        report = simulate(service, queries_at([0.0, 0.001, 0.002]), config)
        assert service.batches == [3]
        # The window is anchored on the *oldest* waiting query.
        assert report.batches[0]["fire"] == pytest.approx(0.05)

    def test_busy_server_delays_next_batch(self):
        service = StubService(pairs_per_query=1)
        config = ServerConfig(max_batch_size=2, max_wait=0.0, max_queue=64,
                              cost_base=1.0, cost_per_query=0.0, cost_per_miss=0.0)
        report = simulate(service, queries_at([0.0, 0.0, 0.1, 0.1]), config)
        assert service.batches == [2, 2]
        # Second batch cannot start until the first finishes at t=1.0.
        assert report.batches[1]["fire"] == pytest.approx(1.0)
        assert report.duration == pytest.approx(2.0)

    def test_cost_model_charges_pairs(self):
        service = StubService(pairs_per_query=3)
        config = ServerConfig(max_batch_size=4, max_wait=0.0, max_queue=64,
                              cost_base=0.5, cost_per_query=0.25, cost_per_miss=0.1)
        report = simulate(service, queries_at([0.0, 0.0]), config)
        assert report.batches[0]["cost"] == pytest.approx(0.5 + 2 * 0.25 + 6 * 0.1)

    def test_results_in_query_id_order(self):
        service = StubService()
        config = ServerConfig(max_batch_size=2, max_wait=0.0, max_queue=64)
        shuffled = [
            Query(query_id=2, arrival=0.30, record={}),
            Query(query_id=0, arrival=0.10, record={}),
            Query(query_id=1, arrival=0.20, record={}),
        ]
        report = simulate(service, shuffled, config)
        assert [r.query_id for r in report.results] == [0, 1, 2]
        assert all(r.status == "ok" for r in report.results)

    def test_empty_workload(self):
        report = simulate(StubService(), [], ServerConfig())
        assert report.results == []
        assert report.duration == 0.0
        assert report.throughput == 0.0
        assert report.latency_percentiles() == {50: 0.0, 95: 0.0, 99: 0.0}


class TestAdmissionControl:
    def overload(self):
        # Everything arrives at once; the server takes 1s per batch, so the
        # queue bound is the only thing standing between us and a pile-up.
        service = StubService()
        config = ServerConfig(max_batch_size=2, max_wait=0.0, max_queue=3,
                              cost_base=1.0, cost_per_query=0.0, cost_per_miss=0.0)
        queries = queries_at([0.001 * k for k in range(10)])
        return simulate(service, queries, config)

    def test_overload_sheds_deterministically(self):
        first = self.overload()
        second = self.overload()
        assert [r.status for r in first.results] == [r.status for r in second.results]
        assert [r.finish for r in first.results] == [r.finish for r in second.results]
        assert first.shed and first.completed

    def test_shed_queries_cost_nothing(self):
        report = self.overload()
        for result in report.shed:
            assert result.finish is None
            assert result.latency is None
            assert result.batch_id is None
        assert len(report.completed) + len(report.shed) == 10
        assert report.shed_rate == pytest.approx(len(report.shed) / 10)

    def test_accepted_all_complete(self):
        report = self.overload()
        for result in report.completed:
            assert result.finish is not None
            assert result.latency >= 0.0


class TestLatencyReport:
    def test_latency_is_arrival_to_finish(self):
        service = StubService()
        config = ServerConfig(max_batch_size=1, max_wait=0.0, max_queue=64,
                              cost_base=0.5, cost_per_query=0.0, cost_per_miss=0.0)
        report = simulate(service, queries_at([0.0, 0.1]), config)
        # q0: starts 0.0, finishes 0.5 → 0.5; q1 arrives 0.1, server busy
        # until 0.5, finishes 1.0 → 0.9.
        assert report.results[0].latency == pytest.approx(0.5)
        assert report.results[1].latency == pytest.approx(0.9)
        assert report.duration == pytest.approx(1.0)
        assert report.throughput == pytest.approx(2.0)

    def test_percentiles_nearest_rank(self):
        ordered = [float(k) for k in range(1, 11)]  # 1..10
        assert percentile(ordered, 50) == 5.0
        assert percentile(ordered, 95) == 10.0
        assert percentile(ordered, 99) == 10.0
        assert percentile(ordered, 10) == 1.0
        assert percentile(ordered, 100) == 10.0

    def test_percentile_validation(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_report_percentiles_ordered(self):
        report = self.jittered_report()
        p = report.latency_percentiles((50, 95, 99))
        assert p[50] <= p[95] <= p[99]

    def jittered_report(self) -> SimReport:
        service = StubService(pairs_per_query=2)
        config = ServerConfig(max_batch_size=4, max_wait=0.01, max_queue=16,
                              cost_base=0.01, cost_per_query=0.001,
                              cost_per_miss=0.002)
        return simulate(service, queries_at([0.005 * k for k in range(30)]), config)

    def test_mean_batch_and_scored_pairs(self):
        report = self.jittered_report()
        assert report.mean_batch_size > 1.0
        assert report.scored_pairs == 2 * len(report.completed)


class TestExternalClock:
    def test_caller_clock_advances_to_drain(self):
        clock = SimClock()
        service = StubService()
        config = ServerConfig(max_batch_size=1, max_wait=0.0, max_queue=4,
                              cost_base=0.25, cost_per_query=0.0, cost_per_miss=0.0)
        report = simulate(service, queries_at([0.0, 0.0]), config, clock=clock)
        assert clock.now == pytest.approx(0.5)
        assert report.duration == pytest.approx(clock.now)

    def test_query_result_defaults(self):
        rejected = QueryResult(query_id=1, status="rejected", arrival=0.5)
        assert rejected.latency is None


class TestPercentilePromotion:
    def test_serve_re_exports_the_utils_implementation(self):
        # percentile was promoted into repro.utils; serve keeps its old
        # import surface as a pure re-export — same object, not a copy.
        import repro.serve
        import repro.serve.sim
        import repro.utils
        from repro.utils.stats import percentile as utils_percentile

        assert repro.serve.percentile is utils_percentile
        assert repro.serve.sim.percentile is utils_percentile
        assert repro.utils.percentile is utils_percentile


class TestDuplicateQueryIds:
    def test_shared_query_id_is_rejected(self):
        # Results are keyed by query_id: two queries sharing one would
        # lose the first answer and count the second twice.
        queries = [Query(0, 0.0, {"q": "a"}), Query(0, 1.0, {"q": "b"})]
        with pytest.raises(ValueError, match=r"duplicate query_id 0"):
            simulate(StubService(), queries, ServerConfig(max_batch_size=1, max_wait=0.0))


class TestNaNConfig:
    def test_nan_max_wait_is_rejected(self):
        with pytest.raises(ValueError, match=r"max_wait must be >= 0, got nan"):
            ServerConfig(max_wait=float("nan"))

    @pytest.mark.parametrize("term", ["cost_base", "cost_per_query", "cost_per_miss", "cost_per_embed"])
    def test_nan_cost_term_is_rejected(self, term):
        with pytest.raises(ValueError, match=r"cost model terms must be >= 0"):
            ServerConfig(**{term: float("nan")})
