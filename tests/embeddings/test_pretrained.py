"""Pre-trained store and fine-tuning tests (transfer learning, §6.2.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings import EmbeddingStore, fine_tune
from repro.text import SkipGram, cosine


@pytest.fixture(scope="module")
def base_model():
    rng = np.random.default_rng(0)
    docs = []
    for _ in range(200):
        docs.append(["france", "capital", "paris"])
        docs.append(["germany", "capital", "berlin"])
        docs.append(["coffee", "served", "hot"])
    return SkipGram(dim=16, epochs=4, rng=0).fit(docs)


class TestEmbeddingStore:
    def test_save_load_roundtrip(self, base_model, tmp_path):
        store = EmbeddingStore(tmp_path)
        store.save("base", base_model)
        loaded = store.load("base")
        assert np.allclose(loaded.vector("france"), base_model.vector("france"))

    def test_names_and_contains(self, base_model, tmp_path):
        store = EmbeddingStore(tmp_path)
        store.save("one", base_model)
        store.save("two", base_model)
        assert store.names() == ["one", "two"]
        assert "one" in store
        assert "three" not in store

    def test_missing_model_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EmbeddingStore(tmp_path).load("ghost")

    def test_path_traversal_rejected(self, tmp_path):
        store = EmbeddingStore(tmp_path)
        with pytest.raises(ValueError):
            store.save("../evil", None)

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        EmbeddingStore(nested)
        assert nested.exists()


class TestFineTune:
    def test_new_tokens_added(self, base_model):
        tuned = fine_tune(base_model, [["espresso", "coffee", "hot"]] * 30, epochs=2, rng=0)
        assert "espresso" in tuned
        assert "france" in tuned

    def test_pretrained_geometry_preserved(self, base_model):
        tuned = fine_tune(base_model, [["espresso", "coffee"]] * 20, epochs=2, rng=0)
        sim = cosine(tuned.vector("france"), base_model.vector("france"))
        assert sim > 0.9

    def test_new_token_learns_context(self, base_model):
        tuned = fine_tune(
            base_model, [["espresso", "served", "hot"]] * 60, epochs=5, rng=0
        )
        assert tuned.first_order_similarity("espresso", "hot") > \
            tuned.first_order_similarity("espresso", "paris")

    def test_min_count_filters_new_tokens_only(self, base_model):
        tuned = fine_tune(
            base_model, [["rareword", "coffee"]], epochs=1, min_count=5, rng=0
        )
        assert "rareword" not in tuned
        assert "coffee" in tuned

    def test_probability_table_matches_merged_counts(self, base_model):
        tuned = fine_tune(
            base_model, [["espresso", "coffee"]] * 10 + [["rareword"]],
            epochs=1, min_count=5, rng=0,
        )
        freqs = np.asarray(tuned.vocabulary.frequencies(), dtype=np.float64)
        assert np.array_equal(tuned.vocabulary.probabilities, freqs / freqs.sum())
        assert "espresso" in tuned and "rareword" not in tuned
        assert not np.array_equal(
            tuned.vocabulary.probabilities[:len(base_model.vocabulary)],
            base_model.vocabulary.probabilities,
        )

    def test_original_untouched(self, base_model):
        before = base_model.vectors_.copy()
        fine_tune(base_model, [["espresso", "coffee"]] * 10, epochs=1, rng=0)
        assert np.allclose(base_model.vectors_, before)
