"""Tests for the shared utility layer (rng, timing, validation, init)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.nn import init
from repro.utils import (
    Timer,
    check_fitted,
    check_positive,
    check_positive_int,
    check_probability,
    check_same_length,
    ensure_rng,
    percentile,
    spawn_rng,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(3)
        b = ensure_rng(42).random(3)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_independent_children(self):
        parent = ensure_rng(0)
        children = spawn_rng(parent, 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_validates_n(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), 0)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.01


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1.0)
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        check_positive("x", 0.0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)

    def test_check_positive_rejects_nan(self):
        with pytest.raises(ValueError, match=r"x must be > 0, got nan"):
            check_positive("x", float("nan"))
        with pytest.raises(ValueError, match=r"x must be >= 0, got nan"):
            check_positive("x", float("nan"), strict=False)

    def test_check_positive_int(self):
        check_positive_int("n", 1)
        check_positive_int("n", np.int32(7))
        with pytest.raises(ValueError, match=r"n must be >= 1, got 0"):
            check_positive_int("n", 0)
        with pytest.raises(ValueError, match=r"n must be >= 1, got -3"):
            check_positive_int("n", np.int64(-3))
        for value in (2.5, 2.0, float("nan"), True, "3", None):
            with pytest.raises(ValueError, match=r"n must be an integer, got "):
                check_positive_int("n", value)

    def test_check_probability(self):
        check_probability("p", 0.5)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_same_length(self):
        check_same_length("a", [1], "b", [2])
        with pytest.raises(ValueError):
            check_same_length("a", [1], "b", [2, 3])

    def test_check_fitted(self):
        class Estimator:
            model_ = None

        with pytest.raises(RuntimeError, match="fit"):
            check_fitted(Estimator(), "model_")
        fitted = Estimator()
        fitted.model_ = object()
        check_fitted(fitted, "model_")


class TestInitializers:
    def test_xavier_bounds(self):
        weights = init.xavier_uniform((50, 50), rng=0)
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(weights) <= limit)

    def test_he_normal_scale(self):
        weights = init.he_normal((2000, 100), rng=0)
        assert np.isclose(weights.std(), np.sqrt(2.0 / 100), rtol=0.1)

    def test_uniform_scale(self):
        weights = init.uniform((100,), scale=0.1, rng=0)
        assert np.all(np.abs(weights) <= 0.1)

    def test_zeros(self):
        assert np.all(init.zeros((3, 4)) == 0.0)

    def test_orthogonal_is_orthogonal(self):
        q = init.orthogonal((16, 16), rng=0)
        assert np.allclose(q @ q.T, np.eye(16), atol=1e-8)

    def test_orthogonal_rectangular(self):
        q = init.orthogonal((8, 4), rng=0)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-8)

    def test_fans_validation(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), rng=0)


class TestPercentile:
    """Nearest rank ⌈q·n/100⌉, exact for ``q`` as written."""

    def test_every_integer_q_against_the_integer_ceiling(self):
        for n in range(1, 1001):
            ordered = list(range(1, n + 1))
            for q in range(1, 101):
                assert percentile(ordered, q) == -(-q * n // 100), (q, n)

    def test_decimal_q_against_the_integer_ceiling(self):
        for n in range(1, 1001):
            ordered = list(range(1, n + 1))
            assert percentile(ordered, 99.9) == -(-999 * n // 1000), n
            assert percentile(ordered, 0.1) == -(-n // 1000), n

    def test_float_rounding_no_longer_moves_the_rank(self):
        # 7 / 100.0 * 100 is 7.000000000000001 in floating point.
        assert percentile(list(range(1, 101)), 7) == 7
        assert percentile(list(range(1, 1001)), 99.9) == 999
