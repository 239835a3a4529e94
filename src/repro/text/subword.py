"""Character-n-gram subword embeddings for out-of-vocabulary terms.

Section 5.1 highlights that enterprise schemas are full of multi-word
phrases and OOV terms (``biopsy_site``, ``pcr``).  The *coherent groups*
matcher needs a vector for every term, known or not.  This module induces
n-gram vectors from a trained :class:`~repro.text.word2vec.SkipGram` model
by solving a ridge regression: each word vector should equal the mean of
its n-gram vectors.  Unknown words are then embedded as the mean of their
known n-gram vectors (fastText-style back-off, learned post hoc).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import lsqr

from repro.text.tokenize import char_ngrams
from repro.text.word2vec import SkipGram
from repro.utils.stats import segment_sums
from repro.utils.validation import check_fitted


class SubwordEmbeddings:
    """OOV-capable embeddings induced from a word-level SGNS model.

    Parameters
    ----------
    model:
        A fitted :class:`SkipGram` providing the target word vectors.
    n_min, n_max:
        Character n-gram sizes (with ``<``/``>`` boundary markers).
    ridge:
        Tikhonov damping for the least-squares solve.
    """

    def __init__(
        self,
        model: SkipGram,
        n_min: int = 3,
        n_max: int = 5,
        ridge: float = 1e-2,
    ) -> None:
        check_fitted(model, "vectors_")
        self.model = model
        self.n_min = n_min
        self.n_max = n_max
        self.ridge = ridge
        self.ngram_index_: dict[str, int] | None = None
        self.ngram_vectors_: np.ndarray | None = None
        self._fit()

    def _fit(self) -> None:
        tokens = self.model.vocabulary.tokens
        ngram_index: dict[str, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for row, token in enumerate(tokens):
            grams = char_ngrams(token, self.n_min, self.n_max)
            if not grams:
                continue
            weight = 1.0 / len(grams)
            for gram in grams:
                col = ngram_index.setdefault(gram, len(ngram_index))
                rows.append(row)
                cols.append(col)
                vals.append(weight)
        n_tokens, n_grams = len(tokens), len(ngram_index)
        design = sparse.csr_matrix((vals, (rows, cols)), shape=(n_tokens, n_grams))
        dim = self.model.dim
        vectors = np.zeros((n_grams, dim))
        targets = self.model.vectors_
        for d in range(dim):
            solution = lsqr(design, targets[:, d], damp=self.ridge)[0]
            vectors[:, d] = solution
        self.ngram_index_ = ngram_index
        self.ngram_vectors_ = vectors

    def vector(self, token: str) -> np.ndarray:
        """Embedding for ``token``: exact if in-vocabulary, else subword mean.

        Returns the zero vector when no n-gram of an OOV token is known.
        """
        if token in self.model:
            return self.model.vector(token)
        return self.oov_vector(token)

    def vectors(self, tokens: list[str]) -> np.ndarray:
        """``(len(tokens), dim)`` stack of :meth:`vector`, bit for bit.

        One gather of the in-vocabulary rows, then one gather of every
        out-of-vocabulary token's known n-gram rows and one in-order
        segment sum for their means (+0.0 rows when none is known).
        """
        check_fitted(self, "ngram_vectors_")
        model, index = self.model, self.ngram_index_
        get = model.vocabulary.get
        token_ids = [get(token) for token in tokens]
        out = model.vectors_[[0 if i is None else i for i in token_ids]]
        backoff = [row for row, token_id in enumerate(token_ids) if token_id is None]
        if not backoff:
            return out
        grams: list[int] = []
        segments: list[int] = []
        counts: list[int] = []
        for segment, row in enumerate(backoff):
            known = [index[g] for g in char_ngrams(tokens[row], self.n_min, self.n_max)
                     if g in index]
            grams += known
            segments += [segment] * len(known)
            counts.append(len(known) or 1)
        sums = segment_sums(self.ngram_vectors_[grams], segments, len(backoff))
        out[backoff] = sums / np.array(counts)[:, None]
        return out

    def oov_vector(self, token: str) -> np.ndarray:
        """Subword back-off embedding, ignoring vocabulary membership."""
        check_fitted(self, "ngram_vectors_")
        grams = char_ngrams(token, self.n_min, self.n_max)
        known = [self.ngram_index_[g] for g in grams if g in self.ngram_index_]
        if not known:
            return np.zeros(self.model.dim)
        return self.ngram_vectors_[known].mean(axis=0)

    def coverage(self, token: str) -> float:
        """Fraction of the token's n-grams that are known (OOV confidence)."""
        grams = char_ngrams(token, self.n_min, self.n_max)
        if not grams:
            return 0.0
        known = sum(1 for g in grams if g in self.ngram_index_)
        return known / len(grams)
