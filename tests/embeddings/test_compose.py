"""Compositional embedding tests: tuple2vec, column2vec, table2vec, LSTM."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Table
from repro.embeddings import (
    LSTMComposer,
    TupleEmbedder,
    column_embedding,
    database_embedding,
    sif_weights,
    table_embedding,
)
from repro.text import SkipGram, Vocabulary, word_tokenize


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    words = ["red", "blue", "green", "small", "large", "widget", "gadget", "device"]
    docs = [
        [str(w) for w in rng.choice(words, size=4, replace=False)] for _ in range(200)
    ]
    # Make "widget" very frequent so SIF down-weights it measurably.
    docs += [["widget", "widget", "widget"]] * 100
    return SkipGram(dim=12, epochs=3, rng=0).fit(docs)


class TestTupleEmbedder:
    def test_embed_shape(self, model):
        embedder = TupleEmbedder(model, ["name", "color"])
        vec = embedder.embed({"name": "widget", "color": "red"})
        assert vec.shape == (12,)

    def test_empty_record_zero(self, model):
        embedder = TupleEmbedder(model, ["name"])
        assert np.allclose(embedder.embed({"name": None}), 0.0)

    def test_mean_is_token_average(self, model):
        embedder = TupleEmbedder(model, ["a"])
        vec = embedder.embed({"a": "red blue"})
        expected = (model.vector("red") + model.vector("blue")) / 2
        assert np.allclose(vec, expected)

    def test_invalid_method(self, model):
        with pytest.raises(ValueError):
            TupleEmbedder(model, ["a"], method="max")

    def test_sif_downweights_frequent_tokens(self, model):
        weights = sif_weights(["widget", "green"], model)
        assert weights[0] < weights[1]

    def test_sif_differs_from_mean(self, model):
        mean_emb = TupleEmbedder(model, ["a"], method="mean")
        sif_emb = TupleEmbedder(model, ["a"], method="sif")
        record = {"a": "widget green"}
        assert not np.allclose(mean_emb.embed(record), sif_emb.embed(record))

    def test_embed_columns_aligned(self, model):
        embedder = TupleEmbedder(model, ["x", "y"])
        matrix = embedder.embed_columns({"x": "red", "y": None})
        assert matrix.shape == (2, 12)
        assert np.allclose(matrix[0], model.vector("red"))
        assert np.allclose(matrix[1], 0.0)

    def test_token_matrix_padding_and_truncation(self, model):
        embedder = TupleEmbedder(model, ["a"])
        matrix = embedder.token_matrix({"a": "red blue"}, max_tokens=4)
        assert matrix.shape == (4, 12)
        assert np.allclose(matrix[2:], 0.0)
        truncated = embedder.token_matrix({"a": "red blue green small large"}, max_tokens=2)
        assert truncated.shape == (2, 12)

    def test_embed_many(self, model):
        embedder = TupleEmbedder(model, ["a"])
        out = embedder.embed_many([{"a": "red"}, {"a": "blue"}])
        assert out.shape == (2, 12)
        assert embedder.embed_many([]).shape == (0, 12)

    def test_custom_vector_fn(self, model):
        constant = np.ones(12)
        embedder = TupleEmbedder(model, ["a"], vector_fn=lambda t: constant)
        assert np.allclose(embedder.embed({"a": "anything at all"}), 1.0)


def reference_sif_weights(tokens, model, a=1e-3):
    """SIF weights by the per-call formula: rebuild p(w) from the counts."""
    freqs = np.asarray(model.vocabulary.frequencies(), dtype=np.float64)
    weights = []
    for token in tokens:
        token_id = model.vocabulary.get(token)
        p = freqs[token_id] / freqs.sum() if token_id is not None else 0.0
        weights.append(a / (a + p))
    return np.asarray(weights)


def reference_sif_compose(tokens, model):
    """SIF composition of ``tokens`` weighted by the reference formula."""
    vectors = np.array(
        [model.vector(t) if t in model else np.zeros(model.dim) for t in tokens]
    )
    weights = reference_sif_weights(tokens, model)
    total = weights.sum()
    if total < 1e-12:
        return np.zeros(model.dim)
    return (vectors * weights[:, None]).sum(axis=0) / total


SIF_RECORDS = [
    {"a": "widget green", "b": "red red small"},
    {"a": "gadget unseen", "b": None},
    {"a": "typoo", "b": "device widget widget"},
    {"a": "", "b": "large"},
    {"a": None, "b": None},
]


class TestSIFProbabilityTable:
    """SIF reads p(w) from the vocabulary's table, bit for bit the value
    the per-call formula gives, and never rescans the counts."""

    @pytest.mark.parametrize("tokens", [
        ["widget", "green", "device"],     # in vocabulary
        ["unseen", "typoo"],               # out of vocabulary
        ["widget", "widget", "red", "widget", "zzz"],  # repeated + mixed
        [],
    ])
    def test_weights_equal_reference(self, model, tokens):
        weights = sif_weights(tokens, model)
        assert np.array_equal(weights, reference_sif_weights(tokens, model))
        assert weights.dtype == np.float64

    def test_embed_equals_reference_composition(self, model):
        embedder = TupleEmbedder(model, ["a", "b"], method="sif")
        for record in SIF_RECORDS:
            expected = reference_sif_compose(embedder.tokens_of(record), model)
            assert np.array_equal(embedder.embed(record), expected)

    def test_embed_columns_equals_reference_composition(self, model):
        embedder = TupleEmbedder(model, ["a", "b"], method="sif")
        for record in SIF_RECORDS:
            expected = np.zeros((2, model.dim))
            for idx, column in enumerate(embedder.columns):
                tokens = word_tokenize(record[column] or "")
                if tokens:
                    expected[idx] = reference_sif_compose(tokens, model)
            assert np.array_equal(embedder.embed_columns(record), expected)

    def test_embedding_never_calls_frequencies(self, model, monkeypatch):
        calls: list[Vocabulary] = []
        original = Vocabulary.frequencies

        def counting(vocabulary):
            calls.append(vocabulary)
            return original(vocabulary)

        monkeypatch.setattr(Vocabulary, "frequencies", counting)
        embedder = TupleEmbedder(model, ["a", "b"], method="sif")
        for record in SIF_RECORDS:
            embedder.embed(record)
            embedder.embed_columns(record)
        assert calls == []

    @pytest.mark.parametrize("documents,min_count", [
        ([], 1),
        ([["widget", "green"]], 5),    # min_count filters out every token
    ])
    def test_empty_vocabulary_weights_are_one(self, documents, min_count):
        empty = SkipGram(dim=4)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            empty.vocabulary = Vocabulary.from_documents(documents, min_count)
            weights = sif_weights(["widget", "green"], empty)
        assert len(empty.vocabulary) == 0
        assert np.array_equal(weights, [1.0, 1.0])


class TestColumnTableEmbeddings:
    def _vector_fn(self, model):
        return lambda t: model.vector(t) if t in model else np.zeros(model.dim)

    def test_column_embedding(self, model):
        table = Table("t", ["color"], rows=[["red"], ["blue"], ["red"]])
        vec = column_embedding(table, "color", self._vector_fn(model), 12)
        assert vec.shape == (12,)
        assert not np.allclose(vec, 0.0)

    def test_empty_column_zero(self, model):
        table = Table("t", ["color"], rows=[[None]])
        assert np.allclose(column_embedding(table, "color", self._vector_fn(model), 12), 0.0)

    def test_column_sampling(self, model):
        table = Table("t", ["c"], rows=[["red"]] * 100)
        vec = column_embedding(table, "c", self._vector_fn(model), 12, sample=10)
        assert np.allclose(vec, model.vector("red"))

    def test_table_and_database_embeddings(self, model):
        table = Table("t", ["a", "b"], rows=[["red", "widget"], ["blue", "gadget"]])
        t_vec = table_embedding(table, self._vector_fn(model), 12)
        db_vec = database_embedding([table, table], self._vector_fn(model), 12)
        assert t_vec.shape == (12,)
        assert np.allclose(db_vec, t_vec)  # mean of identical tables

    def test_similar_columns_closer_than_different(self, model):
        from repro.text import cosine

        colors_a = Table("a", ["c"], rows=[["red"], ["blue"]])
        colors_b = Table("b", ["c"], rows=[["green"], ["red"]])
        things = Table("c", ["c"], rows=[["widget"], ["gadget"]])
        fn = self._vector_fn(model)
        va = column_embedding(colors_a, "c", fn, 12)
        vb = column_embedding(colors_b, "c", fn, 12)
        vc = column_embedding(things, "c", fn, 12)
        assert cosine(va, vb) > cosine(va, vc) or np.allclose(va, vb)


class TestLSTMComposer:
    def test_output_shape(self, model):
        composer = LSTMComposer(12, hidden_dim=8, rng=0)
        out = composer(np.zeros((3, 5, 12)))
        assert out.shape == (3, 16)  # bidirectional doubles

    def test_unidirectional(self, model):
        composer = LSTMComposer(12, hidden_dim=8, bidirectional=False, rng=0)
        assert composer(np.zeros((2, 4, 12))).shape == (2, 8)

    def test_gradients_flow(self, model):
        composer = LSTMComposer(6, hidden_dim=4, rng=0)
        out = composer(np.random.default_rng(0).normal(size=(2, 3, 6)))
        (out * out).sum().backward()
        assert all(p.grad is not None for p in composer.parameters())


# -- one token pass: the fused embedding equals the two separate ones ---------


def reference_embed(embedder, record):
    """``embed`` as a whole-record token list composed at once."""
    tokens = []
    for column in embedder.columns:
        value = record.get(column)
        if value is None or value == "" or value != value:
            continue
        tokens.extend(word_tokenize(str(value)))
    return reference_compose(embedder, tokens)


def reference_embed_columns(embedder, record):
    """``embed_columns`` as one composition per column's own tokens."""
    out = np.zeros((len(embedder.columns), embedder.dim))
    for idx, column in enumerate(embedder.columns):
        value = record.get(column)
        if value is None or value == "" or value != value:
            continue
        out[idx] = reference_compose(embedder, word_tokenize(str(value)))
    return out


def reference_compose(embedder, tokens):
    model = embedder.model
    if not tokens:
        return np.zeros(model.dim)
    vectors = np.array(
        [model.vector(t) if t in model else np.zeros(model.dim) for t in tokens]
    )
    if embedder.method == "mean":
        return vectors.mean(axis=0)
    weights = sif_weights(tokens, model)
    total = weights.sum()
    if total < 1e-12:
        return np.zeros(model.dim)
    return (vectors * weights[:, None]).sum(axis=0) / total


# In-vocabulary words, out-of-vocabulary ones and the missing encodings;
# joined values repeat tokens within and across columns.
FUSED_WORDS = ["widget", "red", "blue", "device", "zzz", "typoo", "Widget,", "7"]
FUSED_VALUES = st.one_of(
    st.sampled_from([None, "", float("nan"), 3, 2.5]),
    st.lists(st.sampled_from(FUSED_WORDS), min_size=1, max_size=6).map(" ".join),
)
FUSED_RECORDS = st.fixed_dictionaries(
    {}, optional={column: FUSED_VALUES for column in ["a", "b", "c"]}
)


class TestFusedTokenPass:
    """``embed_with_columns`` equals ``(embed, embed_columns)`` bit for bit,
    and both equal the per-method compositions they replaced."""

    @pytest.mark.parametrize("method", ["mean", "sif"])
    @settings(max_examples=150, deadline=None)
    @given(record=FUSED_RECORDS)
    def test_equals_the_two_separate_passes(self, model, method, record):
        embedder = TupleEmbedder(model, ["a", "b", "c"], method=method)
        vector, columns = embedder.embed_with_columns(record)
        assert np.array_equal(vector, embedder.embed(record))
        assert np.array_equal(columns, embedder.embed_columns(record))
        assert np.array_equal(vector, reference_embed(embedder, record))
        assert np.array_equal(columns, reference_embed_columns(embedder, record))
        assert vector.shape == (model.dim,)
        assert columns.shape == (3, model.dim)

    def test_one_tokenisation_per_column(self, model, monkeypatch):
        import repro.embeddings.compose as compose

        calls = []

        def counting(text, *args, **kwargs):
            calls.append(text)
            return word_tokenize(text, *args, **kwargs)

        monkeypatch.setattr(compose, "word_tokenize", counting)
        embedder = TupleEmbedder(model, ["a", "b", "c"], method="sif")
        embedder.embed_with_columns({"a": "red red widget", "b": None, "c": "zzz"})
        assert calls == ["red red widget", "zzz"]
