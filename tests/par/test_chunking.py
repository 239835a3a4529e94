"""Property tests for the chunking and ordered-reduction invariants.

These are the two legs the serial≡parallel proof stands on; each is
checked over a seeded sweep of input shapes rather than hand-picked
examples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.par import Chunk, chunk_items, chunk_spans, ordered_reduce
from repro.par.chunking import DEFAULT_TARGET_CHUNKS, resolve_chunk_size


def _cases(rng, rounds=200):
    """Seeded (n_items, chunk_size) sweep, including the edge shapes."""
    yield 0, None
    yield 0, 3
    yield 1, None
    yield 1, 1
    for _ in range(rounds):
        n_items = int(rng.integers(0, 500))
        chunk_size = None if rng.random() < 0.3 else int(rng.integers(1, 64))
        yield n_items, chunk_size


class TestChunkSpans:
    def test_partition_invariants(self):
        rng = np.random.default_rng(7)
        for n_items, chunk_size in _cases(rng):
            spans = chunk_spans(n_items, chunk_size)
            # Ids are 0..k-1 in order.
            assert [span.chunk_id for span in spans] == list(range(len(spans)))
            # Spans tile [0, n) contiguously.
            covered = [i for span in spans for i in range(span.start, span.stop)]
            assert covered == list(range(n_items))
            # No empty chunk unless the input itself is empty.
            if n_items == 0:
                assert spans == []
            else:
                assert all(span.size >= 1 for span in spans)

    def test_chunk_items_concatenates_to_input(self):
        rng = np.random.default_rng(11)
        for n_items, chunk_size in _cases(rng):
            items = list(rng.integers(0, 10**6, size=n_items))
            chunks = chunk_items(items, chunk_size)
            assert [x for _, payload in chunks for x in payload] == items

    def test_layout_independent_of_anything_but_n_and_size(self):
        # The same (n, chunk_size) must always produce the same spans —
        # this is what makes the reduction order jobs-independent.
        assert chunk_spans(100, 7) == chunk_spans(100, 7)
        assert chunk_spans(100, 7)[3] == Chunk(3, 21, 28)

    def test_default_size_targets_fixed_chunk_count(self):
        for n_items in (1, 31, 32, 33, 1000, 12345):
            spans = chunk_spans(n_items)
            assert 1 <= len(spans) <= DEFAULT_TARGET_CHUNKS

    def test_negative_items_raises(self):
        with pytest.raises(ValueError):
            chunk_spans(-1)

    def test_nonpositive_chunk_size_raises(self):
        with pytest.raises(ValueError):
            resolve_chunk_size(10, 0)
        with pytest.raises(ValueError):
            resolve_chunk_size(10, 2.5)


class TestOrderedReduce:
    def test_completion_order_irrelevant(self):
        rng = np.random.default_rng(3)
        pairs = [(chunk_id, chunk_id * 10) for chunk_id in range(20)]
        expected = ordered_reduce(pairs)
        for _ in range(50):
            shuffled = list(pairs)
            rng.shuffle(shuffled)
            assert ordered_reduce(shuffled) == expected
        assert expected == [value for _, value in pairs]

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate chunk ids"):
            ordered_reduce([(0, "a"), (0, "b")])

    def test_empty_gives_no_values(self):
        assert ordered_reduce([]) == []
