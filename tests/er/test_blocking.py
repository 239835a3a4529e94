"""Blocking tests: LSH banding behaviour and traditional baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.er import AttributeBlocker, LSHBlocker, TokenBlocker, pair_completeness, reduction_ratio


@pytest.fixture(scope="module")
def toy_records():
    rng = np.random.default_rng(0)
    nouns = ["pasta", "sushi", "grill", "deli", "cafe", "tavern", "bistro"]
    cities = ["austin", "boston", "chicago", "denver"]
    records = [
        {
            "name": f"{rng.choice(nouns)} {rng.choice(nouns)} {i}",
            "city": str(rng.choice(cities)),
            "phone": f"{rng.integers(100, 999)}-{rng.integers(1000, 9999)}",
        }
        for i in range(40)
    ]
    return records[:20], records[20:]


class TestEdgeInputs:
    def test_empty_and_single_inputs(self, toy_records):
        records_a, records_b = toy_records
        token = TokenBlocker(["name", "city"], max_df=0.2)
        lsh = LSHBlocker(n_bits=16, n_bands=4, rng=0)
        empty_emb = np.empty((0, 8))
        one_emb = np.random.default_rng(1).normal(size=(1, 8))
        assert token.candidate_pairs([], [], records_b, [f"b{i}" for i in range(20)]) == set()
        assert token.candidate_pairs(records_a[:1], ["a0"], records_b[:1], ["b0"]) in (set(), {("a0", "b0")})
        assert lsh.candidate_pairs(empty_emb, [], one_emb, ["b0"]) == set()
        assert lsh.candidate_pairs(one_emb, ["a0"], one_emb, ["b0"]) == {("a0", "b0")}


class TestLSHBlocker:
    def test_bits_divisible_by_bands(self):
        with pytest.raises(ValueError):
            LSHBlocker(n_bits=10, n_bands=3)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            LSHBlocker(n_bits=0)
        with pytest.raises(ValueError):
            LSHBlocker(n_bits=16.0, n_bands=4)
        with pytest.raises(ValueError):
            LSHBlocker(n_bits=16, n_bands=4.0)

    def test_identical_vectors_always_candidates(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(10, 8))
        blocker = LSHBlocker(n_bits=16, n_bands=4, rng=0)
        pairs = blocker.candidate_pairs(emb, [f"a{i}" for i in range(10)], emb.copy(), [f"b{i}" for i in range(10)])
        for i in range(10):
            assert (f"a{i}", f"b{i}") in pairs

    def test_clustered_data_recall_vs_reduction(self):
        """Near-duplicates must collide; far vectors mostly must not."""
        rng = np.random.default_rng(0)
        base = rng.normal(size=(40, 16))
        emb_a = base
        emb_b = base + rng.normal(0, 0.05, size=base.shape)  # near-duplicates
        ids_a = [f"a{i}" for i in range(40)]
        ids_b = [f"b{i}" for i in range(40)]
        blocker = LSHBlocker(n_bits=16, n_bands=4, rng=1)
        candidates = blocker.candidate_pairs(emb_a, ids_a, emb_b, ids_b)
        gold = {(f"a{i}", f"b{i}") for i in range(40)}
        assert pair_completeness(candidates, gold) > 0.85
        assert reduction_ratio(len(candidates), 1600) > 0.3

    def test_more_bands_higher_recall(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(50, 12))
        noisy = base + rng.normal(0, 0.25, size=base.shape)
        ids_a = [f"a{i}" for i in range(50)]
        ids_b = [f"b{i}" for i in range(50)]
        gold = {(f"a{i}", f"b{i}") for i in range(50)}
        few = LSHBlocker(n_bits=16, n_bands=2, rng=0).candidate_pairs(base, ids_a, noisy, ids_b)
        many = LSHBlocker(n_bits=16, n_bands=8, rng=0).candidate_pairs(base, ids_a, noisy, ids_b)
        assert pair_completeness(many, gold) >= pair_completeness(few, gold)

    def test_block_sizes_sum(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(30, 8))
        blocker = LSHBlocker(n_bits=8, n_bands=2, rng=0)
        blocker._fit_transform(emb)
        sizes = blocker.block_sizes(emb)
        assert sum(sizes) == 30 * 2  # every row lands in one bucket per band


class TestAttributeBlocker:
    def _records(self):
        records_a = [
            {"title": "deep learning systems"},
            {"title": "database curation"},
            {"title": None},
        ]
        records_b = [
            {"title": "deep neural models"},
            {"title": "graph matching"},
        ]
        return records_a, records_b

    def test_first_token_blocking(self):
        records_a, records_b = self._records()
        blocker = AttributeBlocker("title")
        pairs = blocker.candidate_pairs(records_a, ["a0", "a1", "a2"], records_b, ["b0", "b1"])
        assert pairs == {("a0", "b0")}  # both start with "deep"

    def test_missing_values_never_block(self):
        records_a, records_b = self._records()
        blocker = AttributeBlocker("title")
        pairs = blocker.candidate_pairs(records_a, ["a0", "a1", "a2"], records_b, ["b0", "b1"])
        assert all(a != "a2" for a, _ in pairs)

    def test_custom_key_fn(self):
        blocker = AttributeBlocker("x", key_fn=lambda r: str(r.get("x", ""))[:1] or None)
        pairs = blocker.candidate_pairs(
            [{"x": "apple"}], ["a0"], [{"x": "avocado"}, {"x": "banana"}], ["b0", "b1"]
        )
        assert pairs == {("a0", "b0")}

    def test_block_sizes(self):
        records_a, _ = self._records()
        assert sorted(AttributeBlocker("title").block_sizes(records_a)) == [1, 1]


class TestTokenBlocker:
    def test_shared_rare_token_blocks(self):
        records_a = [{"t": "unique9 common"}, {"t": "common other"}]
        records_b = [{"t": "unique9 thing"}, {"t": "common stuff"}]
        # "unique9" has df 2/4 = 0.5 (a matching pair's shared token always
        # has df >= 2/n); "common" has df 3/4 and must not block alone.
        blocker = TokenBlocker(["t"], max_df=0.5)
        pairs = blocker.candidate_pairs(records_a, ["a0", "a1"], records_b, ["b0", "b1"])
        assert ("a0", "b0") in pairs
        assert ("a1", "b1") not in pairs

    def test_multiple_columns(self):
        records_a = [{"name": "zorro", "city": "x"}, {"name": "plain", "city": "y"}]
        records_b = [{"name": "other", "city": "zorro"}]
        blocker = TokenBlocker(["name", "city"], max_df=0.7)
        pairs = blocker.candidate_pairs(records_a, ["a0", "a1"], records_b, ["b0"])
        assert ("a0", "b0") in pairs
        assert ("a1", "b0") not in pairs
