"""Replica failover under chaos: killed shards are invisible, loudly or not.

The fault tier for :class:`repro.serve.shard.ShardedMatchService`: an
injected error at ``serve.shard.query`` models a dead shard (the fault
fires at call entry — the shard never processed the request), and the
batch must fail over to the replica with **bit-identical** answers and
cache metrics, because replicas share the shard's cache tier.  Over
budget — every replica killed — the batch must fail *loudly*, raising
:class:`RetryExhausted` naming the exhausted site.  A regression class
pins chaos append stability: declaring the two new shard sites did not
perturb what pre-existing seeds (7 and 11 are wired into CI ``--chaos``
runs) schedule at the old sites.
"""

from __future__ import annotations

import pytest

from repro.faults import Fault, FaultPlan, RetryExhausted
from repro.faults.sites import CORRUPT_SITES, all_sites
from repro.obs.metrics import REGISTRY, collecting
from repro.serve import ShardedMatchService, shard_of_key
from repro.serve.cache import content_key

N_SHARDS = 4


def answers_dicts(service, batch):
    return [a.to_dict() for a in service.match_batch(batch).answers]


def fresh(trained_matcher, built_index, replicas=2):
    return ShardedMatchService(
        trained_matcher, built_index, n_shards=N_SHARDS, replicas=replicas
    )


@pytest.fixture(scope="module")
def batch(query_records):
    return query_records[:24]


@pytest.fixture(scope="module")
def baseline(trained_matcher, built_index, batch):
    return answers_dicts(fresh(trained_matcher, built_index), batch)


def consult_hit_of_shard(batch, shard_id: int) -> int:
    """The ``serve.shard.query`` hit index that kills ``shard_id``'s
    primary in the candidate/score-consult stage of the first batch.

    Per-batch shard-call order is deterministic: first one embedding
    call per *home* shard present in the batch (sorted), then one
    consult call per shard in shard order — so the consult call for
    shard ``s`` is invocation ``n_home_shards + s``.
    """
    homes = {shard_of_key(content_key(r), N_SHARDS) for r in batch}
    return len(homes) + shard_id


class TestFailover:
    @pytest.mark.parametrize("shard_id", range(N_SHARDS))
    def test_killing_each_shard_mid_batch_fails_over_bit_identical(
        self, shard_id, trained_matcher, built_index, batch, baseline
    ):
        hit = consult_hit_of_shard(batch, shard_id)
        plan = FaultPlan([Fault("serve.shard.query", "error", hits=(hit,))])
        with plan:
            service = fresh(trained_matcher, built_index)
            report = service.match_batch(batch)
        assert plan.ledger.count("error", "serve.shard.query") == 1
        assert report.failovers == 1
        assert [a.to_dict() for a in report.answers] == baseline

    def test_failover_keeps_cache_metrics_bit_identical(
        self, trained_matcher, built_index, batch
    ):
        """Failed attempts restore the metrics checkpoint (keeping only
        ``faults.*``), so a recovered run's serve counters — including
        every per-shard cache stream — match a fault-free run exactly."""
        def serve_counters(plan):
            with collecting(reset=True):
                with plan if plan is not None else FaultPlan():
                    fresh(trained_matcher, built_index).match_batch(batch)
                counters = REGISTRY.snapshot()["counters"]
            return {k: v for k, v in counters.items() if k.startswith("serve.")}

        clean = serve_counters(None)
        hit = consult_hit_of_shard(batch, 1)
        faulted = serve_counters(
            FaultPlan([Fault("serve.shard.query", "error", hits=(hit,))])
        )
        assert faulted.pop("serve.shard.failovers") == 1.0
        assert "serve.shard.failovers" not in clean
        assert faulted == clean

    def test_over_budget_kill_fails_loudly_naming_the_site(
        self, trained_matcher, built_index, batch
    ):
        # replicas=2 gives the site a budget of two attempts per call;
        # killing both replicas of one shard call exhausts it.
        hit = consult_hit_of_shard(batch, 2)
        with FaultPlan([Fault("serve.shard.query", "error", hits=(hit, hit + 1))]):
            service = fresh(trained_matcher, built_index)
            with pytest.raises(RetryExhausted) as excinfo:
                service.match_batch(batch)
        assert excinfo.value.site == "serve.shard.query"
        assert excinfo.value.attempts == 2

    def test_single_replica_has_no_failover_budget(
        self, trained_matcher, built_index, batch
    ):
        with FaultPlan([Fault("serve.shard.query", "error", hits=(0,))]):
            service = fresh(trained_matcher, built_index, replicas=1)
            with pytest.raises(RetryExhausted) as excinfo:
                service.match_batch(batch)
        assert excinfo.value.site == "serve.shard.query"
        assert excinfo.value.attempts == 1

    def test_corrupted_routing_is_detected_and_recomputed(
        self, trained_matcher, built_index, batch, baseline
    ):
        plan = FaultPlan([Fault("serve.shard.route", "corrupt", hits=(0,))])
        with plan:
            faulted = answers_dicts(fresh(trained_matcher, built_index), batch)
        assert plan.ledger.count("corrupt", "serve.shard.route") == 1
        assert faulted == baseline

    @pytest.mark.parametrize("corrupt", [
        lambda r: (r[0], []),                                  # misses dropped
        lambda r: ({**r[0], "stray": None}, r[1]),             # a stray key
    ])
    def test_corrupted_fresh_column_map_is_detected(
        self, corrupt, trained_matcher, built_index, batch, baseline
    ):
        """The embedding stage's lookup must split exactly that shard's
        keys into hits and misses, the misses whose fresh column stacks
        the batch's one token pass makes; hit 0 is the first home
        shard's embedding call, where every key of a cold batch misses."""
        plan = FaultPlan([Fault("serve.shard.query", "corrupt", hits=(0,), corrupt=corrupt)])
        with plan:
            report = fresh(trained_matcher, built_index).match_batch(batch)
        assert plan.ledger.count("corrupt", "serve.shard.query") == 1
        assert report.failovers == 1
        assert [a.to_dict() for a in report.answers] == baseline


class TestChaosSweep:
    # Seeds 0 and 7 schedule error faults at both shard sites; 11 kills
    # serve.shard.query only (checked empirically, stable by construction).
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_seeded_chaos_over_shard_sites_is_invisible(
        self, seed, trained_matcher, built_index, batch, baseline
    ):
        plan = FaultPlan.chaos(seed, sites={
            "serve.shard.query", "serve.shard.route",
            "serve.score", "serve.cache.lookup",
        })
        with plan:
            faulted = answers_dicts(fresh(trained_matcher, built_index), batch)
        assert faulted == baseline

    def test_chaos_never_corrupts_the_shard_query_site(self):
        """Corrupt chaos at ``serve.shard.query`` would be detected only
        after the primary warmed the shared cache tier, drifting the cost
        rows — the catalog excludes it, so no seed can schedule one."""
        assert "serve.shard.query" not in CORRUPT_SITES
        for seed in range(32):
            for entry in FaultPlan.chaos(seed).describe():
                if entry["site"] == "serve.shard.query":
                    assert entry["kind"] != "corrupt"


class TestChaosAppendStability:
    """Adding the shard sites must not have moved pre-existing seeds.

    CI runs pin ``--chaos 7`` and ``--chaos 11``; their bit-identical
    rows only stay meaningful if growing the site catalog leaves the
    schedule at the *old* sites untouched (each (kind, site) decision
    draws from its own content-hashed stream, never a shared walk).
    """

    LEGACY = sorted(set(all_sites()) - {"serve.shard.query", "serve.shard.route"})

    @pytest.mark.parametrize("seed", [7, 11])
    def test_wired_ci_seeds_are_unperturbed_by_appended_sites(self, seed):
        full = FaultPlan.chaos(seed)
        legacy_only = FaultPlan.chaos(seed, sites=set(self.LEGACY))
        filtered = [
            entry for entry in full.describe() if entry["site"] in self.LEGACY
        ]
        assert filtered == legacy_only.describe()

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_chaos_schedules_are_reproducible(self, seed):
        assert FaultPlan.chaos(seed).describe() == FaultPlan.chaos(seed).describe()

    def test_subset_restriction_is_exact_filtering_for_any_subset(self):
        full = FaultPlan.chaos(42)
        for site in all_sites():
            only = FaultPlan.chaos(42, sites={site})
            assert only.describe() == [
                entry for entry in full.describe() if entry["site"] == site
            ]
