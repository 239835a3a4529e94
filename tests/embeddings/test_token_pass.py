"""The batched token pass equals the per-record composition, bit for bit.

``TupleEmbedder.embed_many_with_columns`` embeds a list of records in one
pass (one lookup per distinct token, one ``np.bincount`` over every
segment).  These tests hold it to the frozen per-record reference in
``reference_token_pass.py`` and to batch independence: a record's rows
must not depend on what else shares its pass.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import TupleEmbedder
from repro.text import SkipGram, SubwordEmbeddings

from tests.embeddings import reference_token_pass as reference

COLUMNS = ["a", "b", "c"]


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    words = ["red", "blue", "green", "small", "large", "widget", "gadget", "device"]
    docs = [[str(w) for w in rng.choice(words, size=4, replace=False)] for _ in range(200)]
    docs += [["widget", "widget", "widget"]] * 100
    fitted = SkipGram(dim=12, epochs=3, rng=0).fit(docs)
    # Signed zeros in the vectors: a composition that starts from the
    # first row instead of +0.0, or reorders its additions, shows here.
    signed = copy.deepcopy(fitted)
    signed.vectors_[signed.vocabulary.id_of("red"), :4] = -0.0
    signed.vectors_[signed.vocabulary.id_of("blue"), 2:6] = -0.0
    signed.vectors_[signed.vocabulary.id_of("green"), :3] = 0.0
    return signed


@pytest.fixture(scope="module")
def subword(model):
    back_off = SubwordEmbeddings(model)
    back_off.ngram_vectors_[: len(back_off.ngram_vectors_) // 3, 1:5] = -0.0
    return back_off


# In-vocabulary words; out-of-vocabulary ones with known n-grams
# ("reds", "widgets", "Gadgett,"), and without ("qqq", "7", "xz").
WORDS = ["widget", "red", "blue", "green", "device", "reds", "widgets",
         "Gadgett,", "qqq", "7", "xz"]
VALUES = st.one_of(
    st.sampled_from([None, "", float("nan"), "!!", 3, 2.5]),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(" ".join),
)
RECORDS = st.fixed_dictionaries({}, optional={column: VALUES for column in COLUMNS})
BATCHES = st.lists(RECORDS, min_size=0, max_size=8)


def embedder_for(model, subword, method, lookup):
    vector_fn = {"default": None, "subword": subword.vector,
                 "custom": lambda token: model.vector(token) if token in model
                 else np.full(model.dim, -0.0)}[lookup]
    return TupleEmbedder(model, COLUMNS, method=method, vector_fn=vector_fn)


def assert_rows_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lookup", ["default", "subword", "custom"])
@pytest.mark.parametrize("method", ["mean", "sif"])
@settings(max_examples=120, deadline=None)
@given(batch=BATCHES)
def test_pass_equals_per_record_reference(model, subword, method, lookup, batch):
    embedder = embedder_for(model, subword, method, lookup)
    vectors, stacks = embedder.embed_many_with_columns(batch)
    assert vectors.shape == (len(batch), model.dim)
    assert stacks.shape == (len(batch), len(COLUMNS), model.dim)
    for i, record in enumerate(batch):
        want_vector, want_stack = reference.embed_with_columns(embedder, record)
        assert_rows_equal(vectors[i], want_vector)
        assert_rows_equal(stacks[i], want_stack)


@pytest.mark.parametrize("method", ["mean", "sif"])
@settings(max_examples=80, deadline=None)
@given(batch=st.lists(RECORDS, min_size=1, max_size=8), data=st.data())
def test_rows_do_not_depend_on_the_batch(model, subword, method, batch, data):
    """Alone, inside any batch and in any batch order: the same bytes."""
    embedder = embedder_for(model, subword, method, "subword")
    vectors, stacks = embedder.embed_many_with_columns(batch)
    order = data.draw(st.permutations(range(len(batch))))
    shuffled_vectors, shuffled_stacks = embedder.embed_many_with_columns(
        [batch[i] for i in order]
    )
    for position, i in enumerate(order):
        alone_vector, alone_stack = embedder.embed_many_with_columns([batch[i]])
        assert_rows_equal(vectors[i], alone_vector[0])
        assert_rows_equal(stacks[i], alone_stack[0])
        assert_rows_equal(shuffled_vectors[position], vectors[i])
        assert_rows_equal(shuffled_stacks[position], stacks[i])


@pytest.mark.parametrize("method", ["mean", "sif"])
def test_single_record_views_equal_the_pass(model, subword, method):
    embedder = embedder_for(model, subword, method, "subword")
    records = [{"a": "red widget reds", "b": None, "c": "qqq 7"}, {}, {"a": "", "c": float("nan")}]
    vectors, stacks = embedder.embed_many_with_columns(records)
    assert_rows_equal(embedder.embed_many(records), vectors)
    for i, record in enumerate(records):
        assert_rows_equal(embedder.embed(record), vectors[i])
        assert_rows_equal(embedder.embed_columns(record), stacks[i])
        vector, stack = embedder.embed_with_columns(record)
        assert_rows_equal(vector, vectors[i])
        assert_rows_equal(stack, stacks[i])


def test_empty_batch_and_tokenless_records_are_zero(model):
    embedder = TupleEmbedder(model, COLUMNS, method="sif")
    vectors, stacks = embedder.embed_many_with_columns([])
    assert vectors.shape == (0, model.dim) and stacks.shape == (0, 3, model.dim)
    vectors, stacks = embedder.embed_many_with_columns([{}, {"a": None, "b": "!!", "c": ""}])
    assert_rows_equal(vectors, np.zeros((2, model.dim)))
    assert_rows_equal(stacks, np.zeros((2, 3, model.dim)))


def test_vector_fn_called_once_per_distinct_token(model):
    calls: list[str] = []

    def counting(token):
        calls.append(token)
        return model.vector(token) if token in model else np.zeros(model.dim)

    embedder = TupleEmbedder(model, COLUMNS, method="sif", vector_fn=counting)
    embedder.embed_many_with_columns([
        {"a": "red red widget", "b": "widget"},
        {"a": "blue", "c": "red zzz zzz"},
    ])
    assert calls == ["red", "widget", "blue", "zzz"]


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(st.sampled_from(WORDS + ["", "<", "aaaa"]), max_size=12))
def test_subword_batch_lookup_equals_vector(subword, tokens):
    got = subword.vectors(tokens)
    assert got.shape == (len(tokens), subword.model.dim)
    for row, token in zip(got, tokens):
        assert row.tobytes() == subword.vector(token).tobytes()
        if token not in subword.model:
            assert row.tobytes() == reference.oov_vector(subword, token).tobytes()
