"""Skip-gram trainer tests: semantics, persistence, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.text import SkipGram, cosine


@pytest.fixture(scope="module")
def country_model():
    """A model trained on a corpus with strong country-capital structure."""
    rng = np.random.default_rng(0)
    pairs = [("france", "paris"), ("germany", "berlin"), ("italy", "rome"),
             ("japan", "tokyo"), ("egypt", "cairo")]
    noise = ["the weather is fine today", "we had lunch in the office",
             "music and art fill the gallery"]
    docs = []
    for _ in range(500):
        country, capital = pairs[rng.integers(len(pairs))]
        docs.append(f"the capital of {country} is {capital}".split())
        docs.append(f"{capital} lies in {country}".split())
    for _ in range(200):
        docs.append(noise[rng.integers(len(noise))].split())
    return SkipGram(dim=24, window=4, epochs=8, rng=0).fit(docs)


class TestTraining:
    def test_vector_shape(self, country_model):
        assert country_model.vector("france").shape == (24,)

    def test_contains(self, country_model):
        assert "france" in country_model
        assert "atlantis" not in country_model

    def test_unknown_raises(self, country_model):
        with pytest.raises(KeyError):
            country_model.vector("atlantis")

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SkipGram().vector("x")

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            SkipGram(min_count=5).fit([["rare"]])

    def test_first_order_similarity_tracks_cooccurrence(self, country_model):
        """The SGNS objective itself must score true pairs above false ones."""
        paired = country_model.first_order_similarity("france", "paris")
        unpaired = country_model.first_order_similarity("france", "tokyo")
        assert paired > unpaired

    def test_first_order_similarity_unknown_token(self, country_model):
        assert country_model.first_order_similarity("france", "atlantis") == 0.0

    def test_semantic_words_separate_from_noise(self, country_model):
        related = cosine(country_model.vector("france"), country_model.vector("paris"))
        noise = cosine(country_model.vector("france"), country_model.vector("music"))
        assert related > noise

    def test_most_similar_excludes_query(self, country_model):
        results = country_model.most_similar("france", topn=5)
        assert all(token != "france" for token, _ in results)
        assert all(-1.001 <= score <= 1.001 for _, score in results)

    def test_vectors_for_skips_unknown(self, country_model):
        matrix = country_model.vectors_for(["france", "atlantis"])
        assert matrix.shape == (1, 24)

    def test_subsampling_runs(self):
        docs = [["the", "the", "cat"], ["the", "dog", "the"]] * 50
        model = SkipGram(dim=8, epochs=2, subsample=1e-2, rng=0).fit(docs)
        assert "the" in model
        freqs = np.asarray(model.vocabulary.frequencies(), dtype=np.float64)
        rel = freqs / freqs.sum()
        expected = np.minimum(1.0, np.sqrt(1e-2 / rel) + 1e-2 / rel)
        assert np.array_equal(model._keep_probabilities(), expected)

    def test_deterministic_given_seed(self):
        docs = [["a", "b", "c"], ["b", "c", "d"]] * 20
        m1 = SkipGram(dim=8, epochs=3, rng=7).fit(docs)
        m2 = SkipGram(dim=8, epochs=3, rng=7).fit(docs)
        assert np.allclose(m1.vectors_, m2.vectors_)


class TestAnalogyAndPersistence:
    def test_analogy_interface(self, country_model):
        results = country_model.analogy("france", "paris", "germany", topn=3)
        assert len(results) == 3
        assert all(t not in {"france", "paris", "germany"} for t, _ in results)

    def test_save_load_roundtrip(self, country_model, tmp_path):
        path = tmp_path / "model.npz"
        country_model.save(str(path))
        loaded = SkipGram.load(str(path))
        assert np.allclose(loaded.vector("france"), country_model.vector("france"))
        assert loaded.vocabulary.tokens == country_model.vocabulary.tokens
        freqs = np.asarray(loaded.vocabulary.frequencies(), dtype=np.float64)
        assert np.array_equal(loaded.vocabulary.probabilities, freqs / freqs.sum())
        assert np.array_equal(
            loaded.vocabulary.probabilities, country_model.vocabulary.probabilities
        )

    def test_loaded_model_answers_queries(self, country_model, tmp_path):
        path = tmp_path / "model.npz"
        country_model.save(str(path))
        loaded = SkipGram.load(str(path))
        assert loaded.most_similar("france", topn=2)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"window": 0}, {"negatives": 0}, {"epochs": 0},
        {"learning_rate": 0.0},
    ])
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            SkipGram(**kwargs)
