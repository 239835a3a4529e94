"""Vocabulary tests, including hypothesis roundtrips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import Vocabulary


class TestVocabulary:
    def test_frequency_ordering(self):
        vocab = Vocabulary.from_documents([["b", "a", "a", "c", "a", "b"]])
        assert vocab.token_of(0) == "a"
        assert vocab.id_of("a") == 0

    def test_tie_break_alphabetical(self):
        vocab = Vocabulary.from_documents([["z", "y"]])
        assert vocab.tokens == ["y", "z"]

    def test_min_count_filters(self):
        vocab = Vocabulary.from_documents([["a", "a", "b"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert len(vocab) == 1

    def test_encode_skip_unknown(self):
        vocab = Vocabulary.from_documents([["a", "b"]])
        assert vocab.encode(["a", "zzz", "b"]) == [vocab.id_of("a"), vocab.id_of("b")]

    def test_encode_strict_raises(self):
        vocab = Vocabulary.from_documents([["a"]])
        with pytest.raises(KeyError):
            vocab.encode(["zzz"], skip_unknown=False)

    def test_incremental_add(self):
        vocab = Vocabulary()
        vocab.add_documents([["a"]])
        vocab.add_documents([["b", "b"]])
        assert vocab.token_of(0) == "b"

    def test_frequencies_aligned_with_ids(self):
        vocab = Vocabulary.from_documents([["a", "a", "b", "c", "c", "c"]])
        freqs = vocab.frequencies()
        assert freqs == [3, 2, 1]
        assert vocab.probabilities.tolist() == [3 / 6, 2 / 6, 1 / 6]

    def test_probabilities_read_only_after_every_rebuild(self):
        vocab = Vocabulary.from_documents([["a", "b"]])
        with pytest.raises(ValueError):
            vocab.probabilities[0] = 1.0
        vocab.add_documents([["c"]])
        with pytest.raises(ValueError):
            vocab.probabilities[:] = 0.0

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)

    def test_get_with_default(self):
        vocab = Vocabulary.from_documents([["a"]])
        assert vocab.get("missing") is None
        assert vocab.get("missing", -1) == -1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8),
        min_size=1,
        max_size=10,
    )
)
def test_encode_decode_roundtrip_property(documents):
    vocab = Vocabulary.from_documents(documents)
    for doc in documents:
        ids = vocab.encode(doc)
        assert vocab.decode(ids) == doc  # every token in-vocab at min_count 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )
)
def test_frequencies_monotone_property(documents):
    vocab = Vocabulary.from_documents(documents)
    freqs = vocab.frequencies()
    assert freqs == sorted(freqs, reverse=True)


documents_strategy = st.lists(
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)


@settings(max_examples=50, deadline=None)
@given(documents_strategy, documents_strategy, st.integers(1, 3))
def test_probabilities_match_counts_property(first, second, min_count):
    """The table is ``freqs / freqs.sum()`` element by element, also after a
    second ``add_documents`` changes the total."""
    vocab = Vocabulary.from_documents(first, min_count=min_count)
    for _ in range(2):
        freqs = np.asarray(vocab.frequencies(), dtype=np.float64)
        assert np.array_equal(vocab.probabilities, freqs / freqs.sum())
        assert vocab.probabilities.dtype == np.float64
        vocab.add_documents(second)
