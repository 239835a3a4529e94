"""Token-bucket admission: pure previews, deterministic shedding."""

from __future__ import annotations

import pytest

from repro.gateway import AdmissionController, AdmitDecision, TokenBucket


class TestTokenBucketValidation:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match=r"rate must be > 0, got 0"):
            TokenBucket(0, 4)
        with pytest.raises(ValueError, match=r"rate must be > 0, got -1.5"):
            TokenBucket(-1.5, 4)

    def test_burst_must_be_at_least_one(self):
        with pytest.raises(ValueError, match=r"burst must be >= 1, got 0"):
            TokenBucket(10.0, 0)
        with pytest.raises(ValueError, match=r"burst must be an integer, got 2.5"):
            TokenBucket(1.0, 2.5)
        with pytest.raises(ValueError, match=r"burst must be an integer, got True"):
            TokenBucket(1.0, True)


class TestTokenBucket:
    def test_starts_full_and_spends_burst(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        for _ in range(3):
            decision = bucket.preview(0.0)
            assert decision.admitted
            bucket.commit(decision)
        assert not bucket.preview(0.0).admitted

    def test_preview_is_pure_until_committed(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        first = bucket.preview(0.0)
        second = bucket.preview(0.0)
        assert first == second  # nothing consumed between previews
        bucket.commit(first)
        assert not bucket.preview(0.0).admitted

    def test_refill_is_continuous_and_capped(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        for _ in range(2):
            bucket.commit(bucket.preview(0.0))
        # 0.5 simulated seconds refill one token; a long gap caps at burst.
        assert bucket.preview(0.5).admitted
        bucket.commit(bucket.preview(0.5))
        later = bucket.preview(100.0)
        assert later.tokens_after == pytest.approx(1.0)  # burst 2, one spent

    def test_time_never_runs_backwards_in_refill(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        bucket.commit(bucket.preview(1.0))
        # An (out-of-order) earlier preview must not produce negative refill.
        decision = bucket.preview(0.5)
        assert decision.tokens_after >= 0.0


class TestAdmissionController:
    def test_unconfigured_route_is_always_admitted(self):
        controller = AdmissionController({})
        for i in range(50):
            assert controller.decide("match", 0.001 * i).admitted

    def test_configured_route_sheds_deterministically(self):
        def shed_pattern():
            controller = AdmissionController({"clean": (10.0, 2)})
            return [
                controller.decide("clean", 0.01 * i).admitted for i in range(20)
            ]

        first = shed_pattern()
        assert False in first and True in first
        assert shed_pattern() == first  # byte-identical replay

    def test_decision_shape(self):
        controller = AdmissionController({"clean": (10.0, 2)})
        decision = controller.decide("clean", 0.0)
        assert isinstance(decision, AdmitDecision)
        assert decision.at == 0.0
        assert decision.tokens_after == pytest.approx(1.0)
