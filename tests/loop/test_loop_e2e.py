"""Seeded end-to-end determinism of the full continuous-curation loop.

Two complete runs with the same config must agree bit for bit — day
reports, registry digests, promotion schedules — because every moving
part (workload, queue, crowd votes, candidate training, promotion rule)
is content- or seed-keyed.  The promotion schedule is pinned literally
for two workload seeds, the shadow log is checked differentially against
``predict_proba``, and the post-loop service is checked against the
registry's active matcher.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gateway import BackpressureValve
from repro.loop import LoopConfig, answers_digest
from repro.obs.metrics import REGISTRY, collecting

# Pinned loop outcomes (module conftest knobs; update only deliberately).
PINNED_SCHEDULES = {
    5: [(0, "v1"), (1, "v2")],
    9: [(0, "v1"), (1, "v2")],
}


class TestConfigValidation:
    @pytest.mark.parametrize("name, bad, message", [
        ("days", 0, "days must be >= 1, got 0"),
        ("labels_per_day", 0, "labels_per_day must be >= 1, got 0"),
        ("days", 2.5, "days must be an integer, got 2.5"),
        ("days", True, "days must be an integer, got True"),
        ("labels_per_day", 1.5, "labels_per_day must be an integer, got 1.5"),
        ("queries_per_day", 0, "queries_per_day must be >= 1, got 0"),
        ("al_batch_size", 0, "al_batch_size must be >= 1, got 0"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
    ])
    def test_counts_must_be_positive_integers(self, name, bad, message):
        with pytest.raises(ValueError, match=message):
            LoopConfig(**{name: bad})


@pytest.fixture(scope="module")
def completed_run(make_loop):
    loop = make_loop()
    reports = loop.run()
    return loop, reports


class TestDeterminism:
    def test_two_runs_are_bit_identical(self, make_loop, completed_run):
        first_loop, first_reports = completed_run
        second = make_loop()
        second_reports = second.run()
        assert [r.to_dict() for r in second_reports] == [
            r.to_dict() for r in first_reports
        ]
        assert second.registry.state_digest() == first_loop.registry.state_digest()
        assert second.registry.promotion_schedule() == (
            first_loop.registry.promotion_schedule()
        )

    @pytest.mark.parametrize("seed", sorted(PINNED_SCHEDULES))
    def test_promotion_schedule_is_pinned_per_workload_seed(
        self, seed, make_loop
    ):
        loop = make_loop(workload_seed=seed)
        loop.run()
        assert loop.registry.promotion_schedule() == PINNED_SCHEDULES[seed]

    def test_day_reports_round_trip_through_to_dict(self, completed_run):
        _, reports = completed_run
        for report in reports:
            row = report.to_dict()
            assert row["day"] == report.day
            assert row["answers_sha1"] == report.answers_sha1
            assert set(row) == {
                "day", "queries", "completed", "shed", "emitted", "queue_depth",
                "labels_total", "candidate_version", "candidate_f1", "active_f1",
                "promoted", "active_version", "fingerprint", "answers_sha1",
                "shadow_pairs", "shadow_mean_abs_delta",
            }


class TestLoopInvariants:
    def test_active_f1_is_non_decreasing_and_promotions_gate_it(
        self, completed_run
    ):
        loop, reports = completed_run
        f1s = [r.active_f1 for r in reports]
        assert f1s == sorted(f1s)
        assert any(r.promoted for r in reports), "loop never promoted"
        for report in reports:
            if report.promoted:
                assert report.active_version == report.candidate_version
                assert report.candidate_f1 == report.active_f1

    def test_label_accounting_is_consistent(self, completed_run):
        loop, reports = completed_run
        assert loop.labels_spent == reports[-1].labels_total
        assert loop.queue.emitted_total == sum(r.emitted for r in reports)
        spent_and_pending = loop.labels_spent + len(loop.queue)
        assert spent_and_pending == loop.queue.emitted_total

    def test_every_candidate_is_registered_with_its_label_count(
        self, completed_run
    ):
        loop, reports = completed_run
        for report in reports:
            if report.candidate_version is None:
                continue
            version = loop.registry.version(report.candidate_version)
            assert version.day <= report.day  # idempotent re-register keeps day
            matcher = loop.registry.get(report.candidate_version)
            assert matcher.parameter_fingerprint() == version.fingerprint


class TestShadowDifferential:
    def test_shadow_scores_equal_offline_predict_proba(self, completed_run):
        loop, reports = completed_run
        assert loop.shadow_log, "no day produced a shadow report"
        for report in reports:
            if report.day not in loop.shadow_log:
                continue
            shadow = loop.shadow_log[report.day]
            candidate = loop.registry.get(report.candidate_version)
            offline = candidate.predict_proba(shadow.pairs)
            assert np.array_equal(shadow.scores, offline)
            assert len(shadow.pair_keys) == report.shadow_pairs
            assert len(set(shadow.pair_keys)) == len(shadow.pair_keys)

    def test_shadow_never_served_its_answers(self, completed_run):
        loop, reports = completed_run
        for report in reports:
            # The fingerprint in each row is the *active* model's — on
            # non-promoted days it must not be the shadowed candidate's.
            if report.candidate_version is None or report.promoted:
                continue
            candidate = loop.registry.version(report.candidate_version)
            assert report.fingerprint != candidate.fingerprint


class TestPostLoopService:
    def test_service_serves_the_registry_active_matcher(self, completed_run):
        loop, _ = completed_run
        active = loop.registry.active
        assert loop.service.parameter_fingerprint() == active.fingerprint
        assert loop.service.matcher is loop.registry.active_matcher()

    def test_post_swap_serving_is_bit_identical_to_offline_predict(
        self, completed_run, query_records
    ):
        loop, _ = completed_run
        active = loop.registry.active_matcher()
        batch = query_records[:16]
        answers = loop.service.match_batch(batch).answers
        checked = 0
        for record, answer in zip(batch, answers):
            if answer.best_id is None:
                continue
            offline = active.predict_proba(
                [(record, loop.index.record(c)) for c in answer.candidates]
            )
            scores = dict(zip(answer.candidates, offline))
            assert answer.probability == float(scores[answer.best_id])
            checked += 1
        assert checked >= 5

    def test_answers_digest_is_stable_and_order_sensitive(self, completed_run):
        loop, _ = completed_run
        queries = [{"title": "a", "year": "1"}, {"title": "b", "year": "2"}]
        answers = list(loop.service.match_batch(queries).answers)
        assert answers_digest(answers) == answers_digest(answers)
        if answers[0].to_dict() != answers[1].to_dict():
            assert answers_digest(answers) != answers_digest(answers[::-1])


class TestRetrainGate:
    """The gateway's backpressure valve plugs in as ``retrain_gate``."""

    def test_closed_gate_defers_every_retrain(self, make_loop):
        valve = BackpressureValve(high_water=1, low_water=0)
        valve.observe(0.0, 1)  # paused: online queue at high water
        assert not valve.retrain_allowed()
        loop = make_loop(retrain_gate=valve.retrain_allowed)
        with collecting(reset=True):
            reports = loop.run()
            counters = REGISTRY.snapshot()["counters"]
        assert counters["loop.retrain.deferred"] == float(len(reports))
        for report in reports:
            assert report.candidate_version is None
            assert not report.promoted
        # Deferral leaves the bank untouched: nothing spent, queue intact.
        assert loop.labels_spent == 0
        assert len(loop.queue) == loop.queue.emitted_total
        assert loop.registry.promotion_schedule() == [(0, "v1")]

    def test_open_gate_matches_ungated_run(self, make_loop, completed_run):
        _, ungated_reports = completed_run
        valve = BackpressureValve(high_water=4, low_water=1)
        gated = make_loop(retrain_gate=valve.retrain_allowed)
        gated_reports = gated.run()
        assert [r.to_dict() for r in gated_reports] == [
            r.to_dict() for r in ungated_reports
        ]
