"""Small argument-validation helpers shared across the library.

These raise early with actionable messages instead of letting numpy produce
shape errors deep inside a training loop.
"""

from __future__ import annotations

from numbers import Integral
from typing import Any, Sized


def check_positive(name: str, value: float, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 if not strict).

    Written as ``not value > 0`` so that NaN, which compares false both
    ways, fails the check instead of slipping through.
    """
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_positive_int(name: str, value: Any) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1.

    Python and numpy integers pass; ``bool``, floats (``2.0`` and NaN
    included) and anything else do not.
    """
    _check_int(name, value, 1)


def check_non_negative_int(name: str, value: Any) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 0, for sizes
    where 0 means "none" (a disabled cache's capacity); integers as in
    :func:`check_positive_int`."""
    _check_int(name, value, 0)


def _check_int(name: str, value: Any, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def check_same_length(name_a: str, a: Sized, name_b: str, b: Sized) -> None:
    """Raise ``ValueError`` unless the two sized arguments have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length, "
            f"got {len(a)} and {len(b)}"
        )


def check_fitted(obj: Any, attribute: str) -> None:
    """Raise ``RuntimeError`` unless ``obj`` has a non-None ``attribute``.

    Mirrors scikit-learn's fitted-estimator convention: estimators set a
    trailing-underscore attribute in ``fit`` and predict-time methods call
    this guard first.
    """
    if getattr(obj, attribute, None) is None:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted yet; call fit() before "
            f"using this method (missing attribute {attribute!r})"
        )
