"""Serving fault sites recover bit-identically under their wired budgets."""

from __future__ import annotations

import pytest

from repro.faults import Fault, FaultPlan, RetryExhausted
from repro.faults.sites import CORRUPT_SITES, LATENCY_ONLY_SITES, RETRY_SITES, all_sites
from repro.serve import BatchReport, MatchService


def answers_dicts(service, batch):
    return [a.to_dict() for a in service.match_batch(batch).answers]


class TestCatalog:
    def test_serve_sites_catalogued(self):
        assert "serve.score" in RETRY_SITES
        assert "serve.score" in CORRUPT_SITES
        assert "serve.cache.lookup" in LATENCY_ONLY_SITES
        assert {"serve.score", "serve.cache.lookup"} <= set(all_sites())

    def test_shard_sites_catalogued(self):
        """The scatter-gather layer's sites, with the documented split:
        routing is validated pure recompute (corrupt-safe); the per-shard
        call is failover-only — a corrupted return would be detected only
        after the primary warmed the shared cache tier, so corrupt chaos
        there would make cost rows drift (see repro.faults.sites)."""
        assert "serve.shard.route" in RETRY_SITES
        assert "serve.shard.query" in RETRY_SITES
        assert "serve.shard.route" in CORRUPT_SITES
        assert "serve.shard.query" not in CORRUPT_SITES



class TestScoreSite:
    def test_injected_error_recovers_bit_identical(
        self, trained_matcher, built_index, query_records
    ):
        batch = query_records[:6]
        baseline = answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        with FaultPlan([Fault("serve.score", "error", hits=(0,))]) as plan:
            faulted = answers_dicts(
                MatchService(trained_matcher, built_index, jobs=1), batch
            )
        assert plan.ledger.count("error", "serve.score") == 1
        assert faulted == baseline

    def test_corrupted_return_detected_and_retried(
        self, trained_matcher, built_index, query_records
    ):
        batch = query_records[:6]
        baseline = answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        with FaultPlan([Fault("serve.score", "corrupt", hits=(0,))]) as plan:
            faulted = answers_dicts(
                MatchService(trained_matcher, built_index, jobs=1), batch
            )
        assert plan.ledger.count("corrupt", "serve.score") == 1
        assert faulted == baseline

    def test_over_budget_fault_exhausts_loudly(
        self, trained_matcher, built_index, query_records
    ):
        service = MatchService(trained_matcher, built_index, jobs=1)
        # HOT_POLICY gives two attempts; two scheduled hits exceed them.
        with FaultPlan([Fault("serve.score", "error", hits=(0, 1))]):
            with pytest.raises(RetryExhausted) as excinfo:
                service.match_batch(query_records[:4])
        assert excinfo.value.site == "serve.score"


class TestCacheLookupSite:
    def test_latency_fault_is_simulated_and_harmless(
        self, trained_matcher, built_index, query_records
    ):
        batch = query_records[:5]
        baseline = answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        plan = FaultPlan([
            Fault("serve.cache.lookup", "latency", hits=(0, 1), delay_seconds=0.02),
        ])
        with plan:
            service = MatchService(trained_matcher, built_index, jobs=1)
            first = answers_dicts(service, batch)
            second = answers_dicts(service, batch)
        assert plan.ledger.count("latency", "serve.cache.lookup") == 2
        assert plan.ledger.simulated_latency_seconds == pytest.approx(0.04)
        assert first == baseline
        assert second == baseline


class TestChaos:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_chaos_over_serve_sites_is_invisible(
        self, seed, trained_matcher, built_index, query_records
    ):
        batch = query_records[:6]
        baseline = answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        plan = FaultPlan.chaos(seed, sites={"serve.score", "serve.cache.lookup"})
        with plan:
            faulted = answers_dicts(
                MatchService(trained_matcher, built_index, jobs=1), batch
            )
        assert faulted == baseline


class TestUnshardedTopology:
    """The unsharded service is the one-shard case of the scatter-gather
    pipeline: one group whose only replica is itself.  It has no replica
    to fail over to, so it must never reach a ``serve.shard.*`` site —
    chaos seeds 7 and 11 both schedule an error at ``serve.shard.query``
    hit 0, which a one-replica group could not absorb — and its report
    stays the flat :class:`BatchReport` that keeps ``simulate()`` on its
    flat cost model."""

    SHARD_SITES = ("serve.shard.query", "serve.shard.route")

    def test_shard_site_errors_never_fire(
        self, trained_matcher, built_index, query_records
    ):
        batches = (query_records[:6], query_records[3:9])
        fresh = MatchService(trained_matcher, built_index, jobs=1)
        baseline = [answers_dicts(fresh, batch) for batch in batches]
        plan = FaultPlan([
            Fault(site, "error", hits=(0, 1)) for site in self.SHARD_SITES
        ])
        with plan:
            service = MatchService(trained_matcher, built_index, jobs=1)
            faulted = [answers_dicts(service, batch) for batch in batches]
        assert faulted == baseline
        for site in self.SHARD_SITES:
            assert plan.ledger.count(site=site) == 0

    @pytest.mark.parametrize("seed", [7, 11])
    def test_whole_catalog_chaos_leaves_answers_unchanged(
        self, seed, trained_matcher, built_index, query_records
    ):
        batch = query_records[:8]
        baseline = answers_dicts(
            MatchService(trained_matcher, built_index, jobs=1), batch
        )
        plan = FaultPlan.chaos(seed)
        assert any(
            entry["site"] == "serve.shard.query" and entry["kind"] == "error"
            for entry in plan.describe()
        )
        with plan:
            faulted = answers_dicts(
                MatchService(trained_matcher, built_index, jobs=1), batch
            )
        assert faulted == baseline
        for site in self.SHARD_SITES:
            assert plan.ledger.count(site=site) == 0

    def test_match_batch_returns_the_flat_batch_report(
        self, service, query_records
    ):
        assert type(service.match_batch(query_records[:4])) is BatchReport
        assert type(service.match_batch([])) is BatchReport
