"""BlockingIndex: build-once/probe-often semantics and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import BlockingIndex


class TestBuild:
    def test_build_validates_lengths(self, trained_matcher):
        index = BlockingIndex(trained_matcher.embedder, rng=0)
        with pytest.raises(ValueError, match="length mismatch"):
            index.build([{"a": 1}], ["x", "y"])

    def test_build_rejects_empty(self, trained_matcher):
        with pytest.raises(ValueError, match="zero records"):
            BlockingIndex(trained_matcher.embedder, rng=0).build([], [])

    def test_probe_before_build_raises(self, trained_matcher):
        index = BlockingIndex(trained_matcher.embedder, rng=0)
        assert not index.built
        with pytest.raises(RuntimeError, match="not built"):
            index.candidates(index.band_keys(np.zeros(trained_matcher.embedder.dim)))

    def test_build_refuses_repeated_ids(self, trained_matcher, reference_records):
        """A repeated id, compared as a string, is refused before any
        embedding: it would be bucketed twice but answer for one row."""
        records, ids = reference_records
        index = BlockingIndex(trained_matcher.embedder, rng=0)
        with pytest.raises(ValueError, match=f"duplicate reference id '{ids[0]}'"):
            index.build(records[:4], [ids[0], ids[1], ids[1], ids[0]])
        with pytest.raises(ValueError, match="duplicate reference id '7'"):
            index.build(records[:2], [7, "7"])
        assert not index.built

    def test_build_marks_built_and_len(self, built_index, reference_records):
        records, _ = reference_records
        assert built_index.built
        assert len(built_index) == len(records)

    def test_parallel_build_is_identical(self, trained_matcher, reference_records,
                                         query_records):
        records, ids = reference_records
        serial = BlockingIndex(
            trained_matcher.embedder, n_bits=16, n_bands=4, rng=0
        ).build(records, ids, jobs=1)
        parallel = BlockingIndex(
            trained_matcher.embedder, n_bits=16, n_bands=4, rng=0
        ).build(records, ids, jobs=2)
        queries = serial.embed_queries(query_records[:10])
        for embedding in queries:
            assert serial.candidates(serial.band_keys(embedding)) == parallel.candidates(
                parallel.band_keys(embedding)
            )


class TestColumnStore:
    def test_store_is_read_only_float64(self, built_index, trained_matcher, reference_records):
        store = built_index.column_store
        records, _ = reference_records
        assert store.dtype == np.float64
        assert store.shape == (
            len(records), len(trained_matcher.embedder.columns), trained_matcher.embedder.dim
        )
        assert not store.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            store[0, 0, 0] = 1.0

    def test_column_rows_are_fresh_and_exact(self, built_index, trained_matcher, reference_records):
        records, ids = reference_records
        before = built_index.column_store.copy()
        rows = built_index.column_rows([ids[3], ids[0], ids[3]])
        assert np.array_equal(rows, before[[3, 0, 3]])
        assert np.array_equal(rows[1], trained_matcher.embedder.embed_columns(records[0]))
        rows[:] = 7.0
        assert np.array_equal(built_index.column_store, before)
        assert built_index.column_rows([]).shape == (0,) + before.shape[1:]


class TestProbe:
    def test_candidates_sorted_and_known(self, built_index, query_records):
        embeddings = built_index.embed_queries(query_records[:20])
        any_candidates = False
        for embedding in embeddings:
            candidates = built_index.candidates(built_index.band_keys(embedding))
            assert candidates == sorted(candidates)
            for candidate_id in candidates:
                assert built_index.record(candidate_id) is not None
            any_candidates = any_candidates or bool(candidates)
        assert any_candidates, "no query produced candidates; fixtures too sparse"

    def test_candidates_batch_invariant(self, built_index, query_records):
        """A query's candidate set must not depend on its batch-mates."""
        alone = built_index.embed_queries(query_records[:1])
        grouped = built_index.embed_queries(query_records[:7])
        assert np.array_equal(alone[0], grouped[0])
        assert built_index.candidates(built_index.band_keys(alone[0])) == built_index.candidates(
            built_index.band_keys(grouped[0])
        )

    def test_reference_row_usually_among_own_candidates(
        self, built_index, reference_records
    ):
        """An indexed record queried verbatim should collide with itself."""
        records, ids = reference_records
        embeddings = built_index.embed_queries(records[:15])
        found = sum(
            str(ids[i]) in built_index.candidates(built_index.band_keys(embeddings[i]))
            for i in range(15)
        )
        assert found >= 14  # identical signature ⇒ same bucket in every band

    def test_embed_queries_empty(self, built_index, trained_matcher):
        out = built_index.embed_queries([])
        assert out.shape == (0, trained_matcher.embedder.dim)

    def test_unknown_record_id_raises(self, built_index):
        with pytest.raises(KeyError):
            built_index.record("no-such-id")

    def test_rebuild_replaces_index(self, trained_matcher, reference_records):
        records, ids = reference_records
        index = BlockingIndex(
            trained_matcher.embedder, n_bits=16, n_bands=4, rng=0
        ).build(records, ids, jobs=1)
        index.build(records[:5], ids[:5], jobs=1)
        assert len(index) == 5
        with pytest.raises(KeyError):
            index.record(str(ids[10]))
