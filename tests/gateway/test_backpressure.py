"""Backpressure valve: hysteresis, cooldown dwell, float-exact wake-ups."""

from __future__ import annotations

import pytest

from repro.gateway import BackpressureValve


class TestValidation:
    def test_high_water_must_be_at_least_one(self):
        with pytest.raises(ValueError, match=r"high_water must be >= 1, got 0"):
            BackpressureValve(0, 0)
        with pytest.raises(ValueError, match=r"high_water must be an integer, got 2.5"):
            BackpressureValve(2.5, 0)

    def test_low_water_must_sit_below_high_water(self):
        with pytest.raises(
            ValueError,
            match=r"low_water must be in \[0, high_water\), got 4 with high_water=4",
        ):
            BackpressureValve(4, 4)
        with pytest.raises(ValueError, match=r"low_water must be in"):
            BackpressureValve(4, -1)
        with pytest.raises(ValueError, match=r"low_water must be an integer, got 0.5"):
            BackpressureValve(3, 0.5)

    def test_cooldown_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"cooldown must be >= 0, got -0.5"):
            BackpressureValve(4, 1, -0.5)


class TestHysteresis:
    def test_pauses_at_high_water(self):
        valve = BackpressureValve(4, 1)
        valve.observe(0.0, 3)
        assert not valve.paused
        valve.observe(0.1, 4)
        assert valve.paused
        assert valve.pauses == 1
        assert valve.events == [{"at": 0.1, "event": "pause", "depth": 4}]

    def test_repeated_high_observations_pause_once(self):
        valve = BackpressureValve(4, 1)
        for t in (0.0, 0.1, 0.2):
            valve.observe(t, 5)
        assert valve.pauses == 1

    def test_zero_cooldown_resumes_immediately_at_low_water(self):
        valve = BackpressureValve(4, 1, cooldown=0.0)
        valve.observe(0.0, 4)
        valve.observe(0.1, 1)
        assert not valve.paused
        assert valve.resumes == 1

    def test_between_waters_neither_pauses_nor_starts_dwell(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        valve.observe(0.0, 4)
        valve.observe(0.1, 3)  # below high, above low
        assert valve.paused
        assert valve.resume_time() is None

    def test_dwell_must_hold_continuously(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        valve.observe(0.0, 4)
        valve.observe(0.01, 0)   # dwell starts
        valve.observe(0.05, 2)   # interrupted — depth back above low water
        valve.observe(0.06, 0)   # dwell restarts from here
        valve.observe(0.12, 0)   # only 0.06s into the new dwell
        assert valve.paused
        valve.observe(0.16, 0)
        assert not valve.paused
        assert valve.resumes == 1

    def test_retrain_allowed_tracks_pause_state(self):
        valve = BackpressureValve(4, 1)
        assert valve.retrain_allowed()
        valve.observe(0.0, 4)
        assert not valve.retrain_allowed()
        valve.observe(0.1, 0)
        assert valve.retrain_allowed()


class TestResumeTime:
    def test_none_without_a_candidate(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        assert valve.resume_time() is None  # open valve
        valve.observe(0.0, 4)
        assert valve.resume_time() is None  # paused, no dwell yet

    def test_announces_candidate_plus_cooldown(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        valve.observe(0.0, 4)
        valve.observe(0.25, 1)
        assert valve.resume_time() == pytest.approx(0.35)

    def test_wake_at_announced_time_always_completes_dwell(self):
        # Regression: with ``now - since >= cooldown`` the dwell can be
        # unsatisfiable at exactly the announced wake time, because
        # (since + cooldown) - since < cooldown under float rounding —
        # the event loop then spins forever re-waking at the same
        # instant.  Both observe() and batch_allowed() must compare
        # against the same sum resume_time() returns.
        since, cooldown = 0.24818062996412493, 0.05
        assert (since + cooldown) - since < cooldown  # the trap is real

        valve = BackpressureValve(3, 0, cooldown=cooldown)
        valve.observe(since - 0.01, 3)
        valve.observe(since, 0)
        wake = valve.resume_time()
        valve.observe(wake, 0)
        assert not valve.paused

        valve = BackpressureValve(3, 0, cooldown=cooldown)
        valve.observe(since - 0.01, 3)
        valve.observe(since, 0)
        assert valve.batch_allowed(valve.resume_time(), 0)


class TestBatchAllowed:
    def test_open_valve_allows_batch(self):
        valve = BackpressureValve(4, 1)
        assert valve.batch_allowed(0.0, 0)

    def test_paused_valve_blocks_batch_until_dwell_completes(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        valve.observe(0.0, 4)
        valve.observe(0.01, 0)
        assert not valve.batch_allowed(0.05, 0)   # dwell incomplete
        assert valve.batch_allowed(0.2, 0)        # completes the due dwell
        assert valve.resumes == 1

    def test_completion_requires_depth_still_below_low_water(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        valve.observe(0.0, 4)
        valve.observe(0.01, 0)
        assert not valve.batch_allowed(0.5, 3)  # time served, depth too high
        assert valve.paused


class TestSnapshot:
    def test_shape_and_counters(self):
        valve = BackpressureValve(4, 1, cooldown=0.1)
        assert valve.snapshot() == {
            "state": "open", "high_water": 4, "low_water": 1,
            "cooldown": 0.1, "pauses": 0, "resumes": 0,
        }
        valve.observe(0.0, 4)
        valve.observe(0.01, 0)
        valve.observe(0.2, 0)
        assert valve.snapshot() == {
            "state": "open", "high_water": 4, "low_water": 1,
            "cooldown": 0.1, "pauses": 1, "resumes": 1,
        }
