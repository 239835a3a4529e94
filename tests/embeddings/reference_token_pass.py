"""Frozen per-record token pass: the reference the batched pass must equal.

:meth:`repro.embeddings.compose.TupleEmbedder.embed_many_with_columns`
embeds a whole list of records in one pass.  This module keeps the
composition it replaced — one record at a time, one ``vector_fn`` call
and one SIF weight per token, ``sum(axis=0)`` / ``mean(axis=0)`` per
segment — so the differential tests can demand bit-equality.
"""

from __future__ import annotations

import numpy as np

from repro.data.types import is_missing
from repro.text.tokenize import word_tokenize


def sif_weights(tokens, model, a=1e-3):
    """``a / (a + p(w))`` per token, one token at a time."""
    vocabulary = model.vocabulary
    probabilities = vocabulary.probabilities
    weights = []
    for token in tokens:
        token_id = vocabulary.get(token)
        p = probabilities[token_id] if token_id is not None else 0.0
        weights.append(a / (a + p))
    return np.asarray(weights)


def token_pass(embedder, record):
    """The record's token vectors in token order, their SIF weights
    (``None`` for mean) and ``(position, start, stop)`` per column with
    tokens."""
    tokens = []
    spans = []
    for position, column in enumerate(embedder.columns):
        value = record.get(column)
        column_tokens = [] if is_missing(value) else word_tokenize(str(value))
        if column_tokens:
            spans.append((position, len(tokens), len(tokens) + len(column_tokens)))
            tokens.extend(column_tokens)
    if not tokens:
        return None, None, spans
    vectors = np.array([embedder._vector_fn(t) for t in tokens])
    weights = sif_weights(tokens, embedder.model) if embedder.method == "sif" else None
    return vectors, weights, spans


def average(embedder, vectors, weights):
    """Mean of token vectors, or their SIF average (zero when the weights
    vanish)."""
    if weights is None:
        return vectors.mean(axis=0)
    total = weights.sum()
    if total < 1e-12:
        return np.zeros(embedder.dim)
    return (vectors * weights[:, None]).sum(axis=0) / total


def tuple_vector(embedder, vectors, weights, spans):
    if not spans:
        return np.zeros(embedder.dim)
    return average(embedder, vectors, weights)


def column_stack(embedder, vectors, weights, spans):
    """Each column composed over its own rows of the record's stack."""
    out = np.zeros((len(embedder.columns), embedder.dim))
    for position, start, stop in spans:
        out[position] = average(
            embedder,
            vectors[start:stop],
            None if weights is None else weights[start:stop],
        )
    return out


def embed_with_columns(embedder, record):
    """``(tuple vector, column stack)`` of one record, composed alone."""
    terms = token_pass(embedder, record)
    return tuple_vector(embedder, *terms), column_stack(embedder, *terms)


def oov_vector(subword, token):
    """Subword back-off of one token: mean of its known n-gram rows."""
    from repro.text.tokenize import char_ngrams

    grams = char_ngrams(token, subword.n_min, subword.n_max)
    known = [subword.ngram_index_[g] for g in grams if g in subword.ngram_index_]
    if not known:
        return np.zeros(subword.model.dim)
    return subword.ngram_vectors_[known].mean(axis=0)
