"""Gateway end-to-end: differential answers, determinism, snapshots, errors."""

from __future__ import annotations

import math

import pytest

from repro.data import Table
from repro.discovery import SyntacticMatcher
from repro.gateway import (
    BackpressureValve,
    DeficitRoundRobin,
    DiscoverRouter,
    Gateway,
    GatewayConfig,
    GatewayRequest,
    MatchRouter,
    RouteCost,
    TokenBucket,
)
from repro.loop import ModelRegistry
from repro.serve import MatchService
from tests.gateway.conftest import match_request


def fresh_gateway(trained_matcher, built_index, **config_kwargs):
    """A gateway over a cold-cache service (cache state affects timing)."""
    service = MatchService(trained_matcher, built_index, jobs=1)
    config = GatewayConfig(**config_kwargs) if config_kwargs else None
    return Gateway([MatchRouter(service)], config=config)


class TestDifferential:
    def test_gateway_answers_equal_offline_service_answers(
        self, match_requests, trained_matcher, built_index
    ):
        """Routing decides WHEN work runs, never WHAT it answers."""
        gateway = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(match_requests)
        assert len(report.completed) == len(match_requests)

        offline = MatchService(trained_matcher, built_index, jobs=1)
        for request, result in zip(match_requests, report.results):
            expected = offline.match_batch([request.payload["record"]]).answers[0]
            assert result.answer.to_dict() == expected.to_dict()

    def test_grouped_dispatch_coalesces_router_calls(
        self, match_requests, trained_matcher, built_index
    ):
        gateway = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(match_requests)
        assert 1 <= len(report.groups) <= len(match_requests)
        assert sum(g["size"] for g in report.groups) == len(match_requests)
        for group in report.groups:
            assert group["route"] == "match"
            assert group["finish"] > group["fire"]


class TestReplayDeterminism:
    def test_two_runs_are_bit_identical(
        self, match_requests, trained_matcher, built_index
    ):
        def play():
            gateway = fresh_gateway(
                trained_matcher, built_index,
                admission={"match": (400.0, 2)}, high_water=4, low_water=1,
            )
            report = gateway.run(match_requests)
            return (
                report.answers_digest("match"),
                report.duration,
                [r.request_id for r in report.shed],
                report.valve,
            )

        assert play() == play()

    def test_fingerprint_unmoved_by_traffic(
        self, match_requests, trained_matcher, built_index
    ):
        service = MatchService(trained_matcher, built_index, jobs=1)
        before = service.parameter_fingerprint()
        Gateway([MatchRouter(service)]).run(match_requests)
        assert service.parameter_fingerprint() == before


class TestAdmission:
    def test_tight_bucket_sheds_deterministically(
        self, query_records, trained_matcher, built_index
    ):
        requests = [
            match_request(i, query_records[i % len(query_records)],
                          arrival=0.0005 * i)
            for i in range(12)
        ]
        gateway = fresh_gateway(
            trained_matcher, built_index, admission={"match": (100.0, 2)}
        )
        report = gateway.run(requests)
        assert report.shed and report.completed
        assert len(report.results) == len(requests)
        for result in report.shed:
            assert result.status == "shed"
            assert result.answer is None and result.finish is None
            assert result.latency is None and result.deadline_met is None
        assert report.shed_rate == pytest.approx(len(report.shed) / len(requests))


class TestSnapshots:
    def test_health_snapshot_shape(
        self, match_requests, trained_matcher, built_index
    ):
        registry = ModelRegistry()
        version = registry.register(trained_matcher)
        registry.promote(version.version_id)
        service = MatchService(trained_matcher, built_index, jobs=1)
        gateway = Gateway(
            [MatchRouter(service)],
            config=GatewayConfig(high_water=4, low_water=1),
            registry=registry,
        )
        gateway.run(match_requests)
        snapshot = gateway.health_snapshot()
        assert snapshot["status"] == "ok"
        assert snapshot["policy"] == "priority"
        assert snapshot["routes"] == ["health", "match", "metrics"]
        assert snapshot["depth"] == {"interactive": 0, "batch": 0}
        assert snapshot["fingerprint"] == service.parameter_fingerprint()
        assert snapshot["valve"]["state"] == "open"
        assert snapshot["registry"] == {
            "versions": [version.version_id], "active": version.version_id,
        }

    def test_health_route_answers_the_snapshot(
        self, trained_matcher, built_index
    ):
        gateway = fresh_gateway(trained_matcher, built_index)
        request = GatewayRequest(request_id=0, tenant="ops", route="health")
        report = gateway.run([request])
        assert report.completed[0].answer["status"] == "ok"

    def test_metrics_snapshot_shape(
        self, match_requests, trained_matcher, built_index
    ):
        gateway = fresh_gateway(
            trained_matcher, built_index, admission={"match": (400.0, 2)}
        )
        report = gateway.run(match_requests)
        snapshot = gateway.metrics_snapshot()
        assert snapshot["completed"] == len(report.completed)
        assert snapshot["shed"] == len(report.shed)
        match_stats = snapshot["routes"]["match"]
        assert set(match_stats) == {"completed", "p50_ms", "p95_ms", "p99_ms", "shed"}
        assert match_stats["p50_ms"] <= match_stats["p95_ms"] <= match_stats["p99_ms"]
        assert set(snapshot["tenants"]) == {"t0"}


class TestReportHelpers:
    def test_deadlines_are_metadata_never_drops(
        self, query_records, trained_matcher, built_index
    ):
        # An already-hopeless deadline still gets answered — expiry-
        # dropping would make WHAT is answered depend on scheduling.
        requests = [
            GatewayRequest(
                request_id=i, tenant="t0", route="match",
                arrival=0.001 * i, deadline=0.001 * i + 1e-9,
                payload={"record": query_records[i]},
            )
            for i in range(4)
        ]
        report = fresh_gateway(trained_matcher, built_index).run(requests)
        assert len(report.completed) == 4
        assert all(r.deadline_met is False for r in report.completed)
        assert report.deadline_hit_rate() == 0.0

    def test_completed_share_sums_to_one(
        self, query_records, trained_matcher, built_index
    ):
        requests = [
            match_request(i, query_records[i % 4], tenant="ab"[i % 2],
                          arrival=0.001 * i)
            for i in range(10)
        ]
        report = fresh_gateway(trained_matcher, built_index).run(requests)
        share = report.completed_share()
        assert set(share) == {"a", "b"}
        assert sum(share.values()) == pytest.approx(1.0)
        assert sum(report.completed_share(first=4).values()) == pytest.approx(1.0)


class TestErrors:
    def test_unknown_route_names_route_and_installed(
        self, trained_matcher, built_index
    ):
        gateway = fresh_gateway(trained_matcher, built_index)
        bad = GatewayRequest(request_id=7, tenant="t0", route="nope")
        with pytest.raises(
            ValueError,
            match=r"request 7 targets unknown route 'nope'; installed: "
                  r"\['health', 'match', 'metrics'\]",
        ):
            gateway.run([bad])

    def test_duplicate_request_id(self, trained_matcher, built_index):
        gateway = fresh_gateway(trained_matcher, built_index)
        requests = [
            GatewayRequest(request_id=3, tenant="t0", route="health"),
            GatewayRequest(request_id=3, tenant="t1", route="health"),
        ]
        with pytest.raises(ValueError, match=r"duplicate request_id 3"):
            gateway.run(requests)

    def test_non_router_is_rejected(self):
        with pytest.raises(ValueError, match=r"not a router"):
            Gateway([object()])

    def test_duplicate_router_is_rejected(self, service):
        with pytest.raises(ValueError, match=r"duplicate router for route 'match'"):
            Gateway([MatchRouter(service), MatchRouter(service)])


class TestValidationMessages:
    def test_request_messages(self):
        with pytest.raises(ValueError, match=r"request_id must be >= 0, got -1"):
            GatewayRequest(request_id=-1, tenant="t", route="match")
        with pytest.raises(ValueError, match=r"tenant must be a non-empty string"):
            GatewayRequest(request_id=0, tenant="", route="match")
        with pytest.raises(ValueError, match=r"route must be a non-empty string"):
            GatewayRequest(request_id=0, tenant="t", route="")
        with pytest.raises(
            ValueError,
            match=r"priority must be one of \('interactive', 'batch'\), got 'urgent'",
        ):
            GatewayRequest(request_id=0, tenant="t", route="match", priority="urgent")
        with pytest.raises(ValueError, match=r"arrival must be >= 0, got -0.1"):
            GatewayRequest(request_id=0, tenant="t", route="match", arrival=-0.1)
        with pytest.raises(
            ValueError,
            match=r"deadline must be >= arrival, got deadline=0.5 < arrival=1.0",
        ):
            GatewayRequest(
                request_id=0, tenant="t", route="match", arrival=1.0, deadline=0.5
            )
        with pytest.raises(ValueError, match=r"cost_units must be > 0, got 0"):
            GatewayRequest(request_id=0, tenant="t", route="match", cost_units=0)

    def test_infinite_arrival_is_rejected(self):
        # An inf arrival made the run's duration inf and its p95/p99 nan.
        with pytest.raises(ValueError, match=r"arrival must be finite, got inf"):
            GatewayRequest(request_id=0, tenant="t", route="match", arrival=math.inf)

    def test_config_messages(self):
        with pytest.raises(
            ValueError, match=r"policy must be 'priority' or 'fifo', got 'lifo'"
        ):
            GatewayConfig(policy="lifo")
        with pytest.raises(ValueError, match=r"max_batch_size must be >= 1, got 0"):
            GatewayConfig(max_batch_size=0)
        with pytest.raises(ValueError, match=r"quantum must be > 0, got 0"):
            GatewayConfig(quantum=0)
        # Admission and valve settings fail at construction, not inside
        # the first Gateway.run.
        with pytest.raises(ValueError, match=r"high_water must be an integer, got 2.5"):
            GatewayConfig(high_water=2.5)
        with pytest.raises(ValueError, match=r"cooldown must be >= 0, got -1.0"):
            GatewayConfig(high_water=3, cooldown=-1.0)
        with pytest.raises(ValueError, match=r"burst must be >= 1, got 0"):
            GatewayConfig(admission={"clean": (20.0, 0)})

    def test_config_max_batch_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"max_batch_size must be an integer, got nan"):
            GatewayConfig(max_batch_size=math.nan)
        with pytest.raises(ValueError, match=r"max_batch_size must be an integer, got 2.5"):
            GatewayConfig(max_batch_size=2.5)

    @pytest.mark.parametrize("bad", [1.5, True, 0])
    def test_discover_router_jobs_must_be_a_positive_integer(self, bad):
        """``jobs=1.5`` and ``jobs=True`` used to run with one process."""
        with pytest.raises(ValueError, match="jobs must be"):
            DiscoverRouter(SyntacticMatcher(), Table("ref", ["a"], [["x"]]), jobs=bad)

    def test_route_cost_message(self):
        with pytest.raises(ValueError, match=r"route cost terms must be >= 0"):
            RouteCost(base=-0.001)

    def test_default_deadline_is_open(self):
        request = GatewayRequest(request_id=0, tenant="t", route="match")
        assert request.deadline == math.inf


class TestNaNInputs:
    def test_nan_arrival_is_rejected(self):
        with pytest.raises(ValueError, match=r"arrival must be >= 0, got nan"):
            GatewayRequest(request_id=0, tenant="t", route="match", arrival=math.nan)

    def test_nan_deadline_is_rejected(self):
        with pytest.raises(ValueError, match=r"deadline must be >= arrival, got deadline=nan"):
            GatewayRequest(request_id=0, tenant="t", route="match", deadline=math.nan)

    def test_nan_cost_units_is_rejected(self):
        with pytest.raises(ValueError, match=r"cost_units must be > 0, got nan"):
            GatewayRequest(request_id=0, tenant="t", route="match", cost_units=math.nan)

    def test_infinite_cost_units_is_rejected(self):
        # Deficit round robin would rotate forever waiting to afford it.
        with pytest.raises(ValueError, match=r"cost_units must be finite, got inf"):
            GatewayRequest(request_id=0, tenant="t", route="match", cost_units=math.inf)

    def test_nan_quantum_is_rejected(self):
        with pytest.raises(ValueError, match=r"quantum must be > 0, got nan"):
            GatewayConfig(quantum=math.nan)
        with pytest.raises(ValueError, match=r"quantum must be > 0, got nan"):
            DeficitRoundRobin(quantum=math.nan)

    def test_nan_tenant_weight_is_rejected(self):
        with pytest.raises(ValueError, match=r"tenant weight must be > 0, got nan"):
            DeficitRoundRobin(weights={"t": math.nan})

    @pytest.mark.parametrize("term", ["base", "per_request", "per_work", "per_embed"])
    def test_nan_route_cost_is_rejected(self, term):
        with pytest.raises(ValueError, match=r"route cost terms must be >= 0"):
            RouteCost(**{term: math.nan})

    def test_nan_bucket_rate_is_rejected(self):
        with pytest.raises(ValueError, match=r"rate must be > 0, got nan"):
            TokenBucket(math.nan, 2)

    def test_nan_valve_cooldown_is_rejected(self):
        with pytest.raises(ValueError, match=r"cooldown must be >= 0, got nan"):
            BackpressureValve(2, 0, math.nan)
