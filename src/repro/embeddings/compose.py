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
from repro.text.subword import SubwordEmbeddings
from repro.text.tokenize import word_tokenize
from repro.text.word2vec import SkipGram
from repro.utils.rng import ensure_rng
from repro.utils.stats import segment_sums

VectorFn = Callable[[str], np.ndarray]


def sif_weights(tokens: list[str], model: SkipGram, a: float = 1e-3) -> np.ndarray:
    """Smoothed-inverse-frequency weights ``a / (a + p(w))`` per token.

    p(w) is read from the vocabulary's probability table (0 for unknown
    tokens), so a call costs O(tokens), not O(vocabulary).
    """
    vocabulary = model.vocabulary
    p = np.zeros(len(tokens))
    known = [(i, token_id) for i, token in enumerate(tokens)
             if (token_id := vocabulary.get(token)) is not None]
    if known:
        positions, token_ids = zip(*known)
        p[list(positions)] = vocabulary.probabilities[list(token_ids)]
    return a / (a + p)


class TupleEmbedder:
    """Embed records (dicts) into vectors from word embeddings.

    Every embedding is a view of one token pass over a list of records
    (:meth:`embed_many_with_columns`); a record's vectors do not depend
    on the other records of the pass.

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

    def tokens_of(self, record: dict[str, object]) -> list[str]:
        """Token stream of a record over the configured columns."""
        tokens: list[str] = []
        for column in self.columns:
            value = record.get(column)
            if not is_missing(value):
                tokens += word_tokenize(str(value))
        return tokens

    def _vectors(self, tokens: list[str]) -> np.ndarray:
        """``(len(tokens), dim)`` vectors of distinct tokens: one batch
        lookup for subword back-off, else one ``vector_fn`` call each."""
        fn = self._vector_fn
        if getattr(fn, "__func__", None) is SubwordEmbeddings.vector:
            return fn.__self__.vectors(tokens)
        return np.array([fn(token) for token in tokens], dtype=np.float64)

    def embed_many_with_columns(
        self, records: list[dict[str, object]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tuple vectors ``(n, dim)`` and column stacks ``(n, columns, dim)``.

        One token pass over ``records``: each non-missing column is
        tokenised once, each distinct token is looked up (and SIF-weighted)
        once, and every column's and every record's weighted rows are
        summed by one ``np.bincount``, which adds a segment's rows in
        token order from +0.0 as ``sum(axis=0)`` does.  SIF totals stay
        one 1-D ``sum`` per segment, in numpy's pairwise order.  So a
        record's rows are bit-identical to composing it alone, whatever
        else is in the pass.  Missing or empty attributes, and records
        without tokens, map to zero vectors.
        """
        n, width, dim = len(records), len(self.columns), self.dim
        # Segments 0..n*width-1 are the (record, column) cells, then one
        # per record; ``spans`` holds (segment, start, stop) over the
        # token stream for every segment with tokens.
        position: dict[str, int] = {}
        occurrences: list[int] = []
        spans: list[tuple[int, int, int]] = []
        record_spans: list[tuple[int, int, int]] = []
        for r, record in enumerate(records):
            first = len(occurrences)
            for c, column in enumerate(self.columns):
                value = record.get(column)
                if is_missing(value):
                    continue
                tokens = word_tokenize(str(value))
                if tokens:
                    start = len(occurrences)
                    occurrences += [position.setdefault(t, len(position)) for t in tokens]
                    spans.append((r * width + c, start, len(occurrences)))
            if len(occurrences) > first:
                record_spans.append((n * width + r, first, len(occurrences)))
        if not occurrences:
            return np.zeros((n, dim)), np.zeros((n, width, dim))
        spans += record_spans
        segments: list[int] = []
        for segment, start, stop in spans:
            segments += [segment] * (stop - start)
        distinct = list(position)
        rows = self._vectors(distinct)
        divisors = [1.0] * (n * (width + 1))
        vanished: list[int] = []
        if self.method == "sif":
            weights = sif_weights(distinct, self.model)
            rows = rows * weights[:, None]
            weights = weights[occurrences]
            for segment, start, stop in spans:
                total = np.add.reduce(weights[start:stop])
                if total < 1e-12:
                    vanished.append(segment)
                else:
                    divisors[segment] = total
        else:
            for segment, start, stop in spans:
                divisors[segment] = stop - start
        sums = segment_sums(rows[occurrences + occurrences], segments, len(divisors))
        averages = sums / np.array(divisors)[:, None]
        if vanished:
            averages[vanished] = 0.0
        return averages[n * width:], averages[: n * width].reshape(n, width, dim)

    def embed(self, record: dict[str, object]) -> np.ndarray:
        """Tuple2vec: one vector per record."""
        return self.embed_many_with_columns([record])[0][0]

    def embed_many(self, records: list[dict[str, object]]) -> np.ndarray:
        """Stack of tuple embeddings, shape ``(n, dim)``."""
        return self.embed_many_with_columns(records)[0]

    def embed_columns(self, record: dict[str, object]) -> np.ndarray:
        """Per-attribute embeddings, shape ``(len(columns), dim)``.

        Missing or empty attributes map to the zero vector.  DeepER's pair
        featurisation compares attributes position-by-position, which needs
        this attribute-aligned view rather than one whole-tuple bag.
        """
        return self.embed_many_with_columns([record])[1][0]

    def embed_with_columns(
        self, record: dict[str, object]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(embed(record), embed_columns(record))`` from one token pass."""
        vectors, stacks = self.embed_many_with_columns([record])
        return vectors[0], stacks[0]

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
