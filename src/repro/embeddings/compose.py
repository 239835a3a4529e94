"""Compositional distributed representations (paper Section 3.1).

From atomic word/cell vectors the paper asks for representations of
increasingly abstract units: tuples (tuple2vec), columns (column2vec),
tables (table2vec) and whole databases (database2vec).  Three composition
strategies are provided:

* **mean** — the "common approach" of averaging component vectors;
* **SIF** — smoothed-inverse-frequency weighting (rare words count more),
  a strong unsupervised baseline for sentence-style composition;
* **LSTM** — a data-driven composer (:class:`LSTMComposer`) trained
  end-to-end inside DeepER, matching the paper's "more sophisticated
  approach such as LSTM".
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.table import Table
from repro.data.types import is_missing
from repro.nn.layers import Module
from repro.nn.rnn import SequenceEncoder
from repro.nn.tensor import Tensor
from repro.text.tokenize import word_tokenize
from repro.text.word2vec import SkipGram
from repro.utils.rng import ensure_rng

VectorFn = Callable[[str], np.ndarray]


def mean_compose(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Average composition; zero vector for empty input."""
    if vectors.size == 0:
        return np.zeros(dim)
    return vectors.mean(axis=0)


def sif_weights(tokens: list[str], model: SkipGram, a: float = 1e-3) -> np.ndarray:
    """Smoothed-inverse-frequency weights ``a / (a + p(w))`` per token.

    p(w) is read from the vocabulary's probability table (0 for unknown
    tokens), so a call costs O(tokens), not O(vocabulary).
    """
    vocabulary = model.vocabulary
    probabilities = vocabulary.probabilities
    weights = []
    for token in tokens:
        token_id = vocabulary.get(token)
        p = probabilities[token_id] if token_id is not None else 0.0
        weights.append(a / (a + p))
    return np.asarray(weights)


class TupleEmbedder:
    """Embed records (dicts) into vectors from word embeddings.

    Parameters
    ----------
    model:
        Fitted :class:`SkipGram` supplying word vectors.
    columns:
        The attributes to include, in a fixed order.
    method:
        ``"mean"`` or ``"sif"``.
    vector_fn:
        Optional override mapping token → vector (e.g. subword back-off);
        defaults to the model's in-vocabulary lookup with zero for OOV.
    """

    def __init__(
        self,
        model: SkipGram,
        columns: list[str],
        method: str = "mean",
        vector_fn: VectorFn | None = None,
    ) -> None:
        if method not in {"mean", "sif"}:
            raise ValueError(f"method must be 'mean' or 'sif', got {method!r}")
        self.model = model
        self.columns = list(columns)
        self.method = method
        self._vector_fn = vector_fn or self._default_vector

    def _default_vector(self, token: str) -> np.ndarray:
        if token in self.model:
            return self.model.vector(token)
        return np.zeros(self.model.dim)

    @property
    def vector_fn(self) -> VectorFn | None:
        """The token → vector override, or None for the default lookup."""
        fn = self._vector_fn
        if getattr(fn, "__func__", None) is TupleEmbedder._default_vector:
            return None
        return fn

    @property
    def dim(self) -> int:
        return self.model.dim

    def _column_tokens(self, record: dict[str, object]) -> list[list[str]]:
        """Each configured column's tokens; ``[]`` for a missing value."""
        tokens: list[list[str]] = []
        for column in self.columns:
            value = record.get(column)
            tokens.append([] if is_missing(value) else word_tokenize(str(value)))
        return tokens

    def tokens_of(self, record: dict[str, object]) -> list[str]:
        """Token stream of a record over the configured columns."""
        return [token for tokens in self._column_tokens(record) for token in tokens]

    def _token_pass(
        self, record: dict[str, object]
    ) -> "tuple[np.ndarray | None, np.ndarray | None, list[tuple[int, int, int]]]":
        """One pass over a record's tokens, shared by every composition.

        Returns the whole record's token vectors stacked in token order,
        their SIF weights (``None`` for mean) and, per column with tokens,
        ``(position, start, stop)``: its rows of that stack.  Each token
        is tokenised, looked up and weighted once.
        """
        tokens: list[str] = []
        spans: list[tuple[int, int, int]] = []
        for position, column_tokens in enumerate(self._column_tokens(record)):
            if column_tokens:
                spans.append((position, len(tokens), len(tokens) + len(column_tokens)))
                tokens.extend(column_tokens)
        if not tokens:
            return None, None, spans
        vectors = np.array([self._vector_fn(t) for t in tokens])
        weights = sif_weights(tokens, self.model) if self.method == "sif" else None
        return vectors, weights, spans

    def _average(self, vectors: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        """Mean of token vectors, or their SIF average (zero when the
        weights vanish)."""
        if weights is None:
            return mean_compose(vectors, self.dim)
        total = weights.sum()
        if total < 1e-12:
            return np.zeros(self.dim)
        return (vectors * weights[:, None]).sum(axis=0) / total

    def _tuple_vector(self, vectors, weights, spans) -> np.ndarray:
        if not spans:
            return np.zeros(self.dim)
        return self._average(vectors, weights)

    def _column_stack(self, vectors, weights, spans) -> np.ndarray:
        """Each column composed over its own rows of the record's stack."""
        out = np.zeros((len(self.columns), self.dim))
        for position, start, stop in spans:
            out[position] = self._average(
                vectors[start:stop], None if weights is None else weights[start:stop]
            )
        return out

    def embed(self, record: dict[str, object]) -> np.ndarray:
        """Tuple2vec: one vector per record."""
        return self._tuple_vector(*self._token_pass(record))

    def embed_many(self, records: list[dict[str, object]]) -> np.ndarray:
        """Stack of tuple embeddings, shape ``(n, dim)``."""
        if not records:
            return np.zeros((0, self.dim))
        return np.array([self.embed(r) for r in records])

    def embed_columns(self, record: dict[str, object]) -> np.ndarray:
        """Per-attribute embeddings, shape ``(len(columns), dim)``.

        Missing or empty attributes map to the zero vector.  DeepER's pair
        featurisation compares attributes position-by-position, which needs
        this attribute-aligned view rather than one whole-tuple bag.
        """
        return self._column_stack(*self._token_pass(record))

    def embed_with_columns(
        self, record: dict[str, object]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(embed(record), embed_columns(record))`` from one token pass.

        Serving needs both for every never-seen record: the tuple vector
        probes the blocking index and the column stack feeds the pair
        features.  Bit-identical to the two separate calls.
        """
        terms = self._token_pass(record)
        return self._tuple_vector(*terms), self._column_stack(*terms)

    def token_matrix(self, record: dict[str, object], max_tokens: int) -> np.ndarray:
        """Fixed-length ``(max_tokens, dim)`` matrix for sequence models.

        Tokens beyond ``max_tokens`` are truncated; shorter records are
        zero-padded (zero rows contribute nothing to the LSTM input).
        """
        tokens = self.tokens_of(record)[:max_tokens]
        matrix = np.zeros((max_tokens, self.dim))
        for i, token in enumerate(tokens):
            matrix[i] = self._vector_fn(token)
        return matrix


def column_embedding(
    table: Table, column: str, embed_value: VectorFn, dim: int, sample: int | None = None,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """Column2vec: mean embedding of a column's (optionally sampled) values."""
    values = [v for v in table.column(column) if not is_missing(v)]
    if sample is not None and len(values) > sample:
        rng = ensure_rng(rng)
        idx = rng.choice(len(values), size=sample, replace=False)
        values = [values[i] for i in idx]
    if not values:
        return np.zeros(dim)
    vectors = []
    for value in values:
        tokens = word_tokenize(str(value))
        if not tokens:
            continue
        vectors.append(np.mean([embed_value(t) for t in tokens], axis=0))
    if not vectors:
        return np.zeros(dim)
    return np.mean(vectors, axis=0)


def table_embedding(
    table: Table, embed_value: VectorFn, dim: int, columns: list[str] | None = None
) -> np.ndarray:
    """Table2vec: mean of its column embeddings."""
    columns = columns or table.columns
    if not columns:
        return np.zeros(dim)
    stack = np.array([column_embedding(table, c, embed_value, dim) for c in columns])
    return stack.mean(axis=0)


def database_embedding(tables: list[Table], embed_value: VectorFn, dim: int) -> np.ndarray:
    """Database2vec: mean of table embeddings."""
    if not tables:
        return np.zeros(dim)
    stack = np.array([table_embedding(t, embed_value, dim) for t in tables])
    return stack.mean(axis=0)


class LSTMComposer(Module):
    """Trainable tuple composition: token vectors → (bi)LSTM → tuple vector.

    Used as DeepER's sophisticated composition arm; consumes the padded
    ``(batch, max_tokens, dim)`` matrices from
    :meth:`TupleEmbedder.token_matrix`.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 32,
        bidirectional: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.encoder = SequenceEncoder(
            input_dim, hidden_dim, bidirectional=bidirectional, pooling="last", rng=rng
        )
        self.output_dim = self.encoder.output_size

    def forward(self, token_batch: "Tensor | np.ndarray") -> Tensor:
        if not isinstance(token_batch, Tensor):
            token_batch = Tensor(token_batch)
        return self.encoder(token_batch)
