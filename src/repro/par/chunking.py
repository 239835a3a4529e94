"""Deterministic chunking and ordered reduction for the parallel substrate.

The determinism contract of :mod:`repro.par` rests on two invariants
that live here:

* **chunk layout depends only on the input length and ``chunk_size``** —
  never on ``jobs``, worker count or scheduling — so the same call is
  split identically whether it runs serially or on any pool size;
* **reduction is ordered by chunk id** (ids run ``0..k-1`` in input
  order), so the combined result is independent of worker completion
  order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

from repro.utils.validation import check_positive_int

__all__ = [
    "Chunk",
    "chunk_items",
    "chunk_spans",
    "ordered_reduce",
]

T = TypeVar("T")
R = TypeVar("R")

# Default number of chunks a call is split into.  A fixed target (rather
# than one derived from ``jobs``) keeps the chunk layout — and therefore
# the reduction order — identical for every pool size, while still
# giving schedulers enough pieces to balance load.
DEFAULT_TARGET_CHUNKS = 32


@dataclass(frozen=True)
class Chunk:
    """One contiguous slice of the input, identified by a stable id."""

    chunk_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def resolve_chunk_size(n_items: int, chunk_size: int | None = None) -> int:
    """The effective chunk size for ``n_items`` (jobs-independent)."""
    if chunk_size is None:
        chunk_size = math.ceil(n_items / DEFAULT_TARGET_CHUNKS) if n_items else 1
    check_positive_int("chunk_size", chunk_size)
    return chunk_size


def chunk_spans(n_items: int, chunk_size: int | None = None) -> list[Chunk]:
    """Split ``range(n_items)`` into contiguous chunks with stable ids.

    Invariants: the spans partition ``[0, n_items)`` in order, no span is
    empty unless the input is empty (then there are no spans at all), and
    ids run ``0..k-1``.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    size = resolve_chunk_size(n_items, chunk_size)
    return [
        Chunk(chunk_id, start, min(start + size, n_items))
        for chunk_id, start in enumerate(range(0, n_items, size))
    ]


def chunk_items(
    items: Sequence[T], chunk_size: int | None = None
) -> list[tuple[Chunk, list[T]]]:
    """Pair every chunk span with its slice of ``items``."""
    return [
        (chunk, list(items[chunk.start : chunk.stop]))
        for chunk in chunk_spans(len(items), chunk_size)
    ]


def ordered_reduce(chunk_results: Iterable[tuple[int, R]]) -> list[R]:
    """The values of ``(chunk_id, value)`` pairs in chunk-id order.

    Workers may complete in any order; sorting by chunk id makes the
    result deterministic.  Duplicate chunk ids indicate a scheduling bug
    and raise.
    """
    pairs = sorted(chunk_results, key=lambda pair: pair[0])
    ids = [chunk_id for chunk_id, _ in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate chunk ids in reduction: {ids}")
    return [value for _, value in pairs]
