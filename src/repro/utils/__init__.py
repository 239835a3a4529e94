"""Shared utilities: deterministic RNG handling, content hashing, timing,
validation."""

from repro.utils.content import canonical, content_key, digest_rows
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.stats import percentile, segment_sums
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_fitted,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_same_length,
)

__all__ = [
    "canonical",
    "content_key",
    "digest_rows",
    "ensure_rng",
    "percentile",
    "segment_sums",
    "spawn_rng",
    "Timer",
    "check_fitted",
    "check_non_negative_int",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_same_length",
]
