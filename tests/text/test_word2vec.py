"""Skip-gram trainer tests: semantics, persistence, edge cases, exactness."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.text import SkipGram, cosine
from repro.text.word2vec import _stable_sigmoid
from tests.text.reference_sgns import reference_scaled_update, reference_stable_sigmoid


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
        {"learning_rate": math.nan}, {"epochs": math.nan}, {"window": 2.5},
        {"batch_size": 0}, {"dim": 8.0}, {"negatives": True}, {"batch_size": -64},
    ])
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            SkipGram(**kwargs)


@st.composite
def sgns_updates(draw):
    """A matrix, row ids with heavy repeats, gradients and a learning rate.

    Gradient magnitudes span 1e-8 to 1e3 with both signs; some cells are
    +0.0 or -0.0, and the last ``n_cancel`` rows repeat the first ones with
    negated gradients, so their sums cancel exactly where the order allows.
    """
    vocab = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 48))
    n = draw(st.integers(1, 400))
    hot = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice(np.asarray(hot, dtype=np.int64), size=n)
    magnitude = 10.0 ** rng.uniform(-8, 3, size=(n, dim))
    grads = np.where(rng.random((n, dim)) < 0.5, -magnitude, magnitude)
    zeros = rng.random((n, dim)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    grads[zeros] = np.copysign(0.0, grads[zeros])
    n_cancel = draw(st.integers(0, n // 2))
    rows[n - n_cancel:] = rows[:n_cancel]
    grads[n - n_cancel:] = -grads[:n_cancel]
    matrix = (rng.random((vocab, dim)) - 0.5) / dim
    lr = draw(st.sampled_from([0.05, 0.0025, 1.0]))
    return matrix, rows, grads, lr


def _sha1(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestExactness:
    """The bincount update and one-exp sigmoid equal the reference to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(sgns_updates())
    def test_scaled_update_matches_reference(self, case):
        matrix, rows, grads, lr = case
        expected = matrix.copy()
        reference_scaled_update(expected, rows, grads, lr)
        SkipGram()._scaled_update(matrix, rows, grads, lr)
        assert matrix.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 50.0, -50.0, np.nextafter(50.0, 99), -1e-300]),
    )))
    def test_stable_sigmoid_matches_reference(self, x):
        assert _stable_sigmoid(x).tobytes() == reference_stable_sigmoid(x).tobytes()

    def test_fit_digest_is_pinned(self, country_model):
        # Digests of the fixture's fit as trained by the np.unique + np.add.at
        # update.  They hold as long as numpy's exp, einsum and RNG streams
        # round the same way; a numpy upgrade can move them with no fault here.
        assert _sha1(country_model.vectors_) == "1e47cf4e00e12a645628a803543946a7b454c1ce"
        assert _sha1(country_model.context_vectors_) == (
            "af11929d369957f4a2921ca0fca4fac207895eca"
        )
