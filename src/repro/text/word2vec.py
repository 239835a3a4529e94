"""Skip-gram with negative sampling (SGNS), from scratch on numpy.

This is the word-embedding learner of Section 2.2 (word2vec [40]) that most
of the library's distributed representations build on: cell embeddings treat
tuples as documents, graph embeddings feed random walks through the same
trainer, and DeepER composes the resulting vectors into tuple
representations.

The implementation follows Mikolov et al.: frequent-word subsampling, a
unigram^0.75 negative-sampling table, logistic loss on (center, context)
pairs, and minibatched vectorised SGD updates.
"""

from __future__ import annotations

import numpy as np

from repro.text.vocab import Vocabulary
from repro.utils.rng import ensure_rng
from repro.utils.stats import segment_sums
from repro.utils.validation import check_fitted, check_positive, check_positive_int


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) on the x >= 0 lanes and exp(x) on the others:
    # one exp serves both branches and never overflows.
    e = np.exp(-np.abs(np.clip(x, -50, 50)))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class SkipGram:
    """Skip-gram-with-negative-sampling embedding trainer.

    Parameters
    ----------
    dim:
        Embedding dimensionality (the paper cites 300 for NLP; DC corpora
        here are smaller so defaults are modest).
    window:
        Max distance between center and context token.  Section 3.1's
        limitation 2 — related attributes further apart than ``window``
        never co-occur as training pairs — is directly observable by
        sweeping this (experiment E7).
    negatives:
        Negative samples per positive pair.
    subsample:
        Frequent-word subsampling threshold ``t`` (0 disables).
    """

    def __init__(
        self,
        dim: int = 50,
        window: int = 4,
        negatives: int = 5,
        epochs: int = 5,
        learning_rate: float = 0.05,
        batch_size: int = 64,
        min_count: int = 1,
        subsample: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        check_positive_int("dim", dim)
        check_positive_int("window", window)
        check_positive_int("negatives", negatives)
        check_positive_int("epochs", epochs)
        check_positive_int("batch_size", batch_size)
        check_positive("learning_rate", learning_rate)
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.min_count = min_count
        self.subsample = subsample
        self._rng = ensure_rng(rng)
        self.vocabulary: Vocabulary | None = None
        self.vectors_: np.ndarray | None = None   # input (center) vectors
        self.context_vectors_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def fit(self, documents: list[list[str]]) -> "SkipGram":
        """Learn embeddings from an iterable of token lists."""
        self.vocabulary = Vocabulary.from_documents(documents, min_count=self.min_count)
        vocab_size = len(self.vocabulary)
        if vocab_size == 0:
            raise ValueError("no tokens survived min_count filtering")
        self.vectors_ = (self._rng.random((vocab_size, self.dim)) - 0.5) / self.dim
        self.context_vectors_ = np.zeros((vocab_size, self.dim))
        neg_table = self._negative_table()
        keep_prob = self._keep_probabilities()

        encoded = [self.vocabulary.encode(doc) for doc in documents]
        for epoch in range(self.epochs):
            lr = self.learning_rate * (1.0 - epoch / max(1, self.epochs))
            lr = max(lr, self.learning_rate * 0.05)
            centers, contexts = self._generate_pairs(encoded, keep_prob)
            if centers.size == 0:
                continue
            self._sgd_epoch(centers, contexts, neg_table, lr, batch_size=self.batch_size)
        return self

    def _keep_probabilities(self) -> np.ndarray | None:
        if self.subsample <= 0:
            return None
        rel = self.vocabulary.probabilities
        keep = np.minimum(1.0, np.sqrt(self.subsample / rel) + self.subsample / rel)
        return keep

    def _negative_table(self, table_size: int = 1_000_000) -> np.ndarray:
        freqs = np.asarray(self.vocabulary.frequencies(), dtype=np.float64)
        probs = freqs**0.75
        probs /= probs.sum()
        counts = np.maximum(1, np.round(probs * table_size)).astype(np.int64)
        return np.repeat(np.arange(len(freqs)), counts)

    def _generate_pairs(
        self, encoded: list[list[int]], keep_prob: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        centers: list[int] = []
        contexts: list[int] = []
        for doc in encoded:
            if keep_prob is not None and doc:
                mask = self._rng.random(len(doc)) < keep_prob[doc]
                doc = [t for t, keep in zip(doc, mask) if keep]
            length = len(doc)
            for i, center in enumerate(doc):
                # Dynamic window, as in the original implementation.
                span = int(self._rng.integers(1, self.window + 1))
                lo = max(0, i - span)
                hi = min(length, i + span + 1)
                for j in range(lo, hi):
                    if j != i:
                        centers.append(center)
                        contexts.append(doc[j])
        return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)

    def _sgd_epoch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        neg_table: np.ndarray,
        lr: float,
        batch_size: int = 64,
    ) -> None:
        order = self._rng.permutation(centers.size)
        for start in range(0, centers.size, batch_size):
            idx = order[start : start + batch_size]
            c = centers[idx]
            pos = contexts[idx]
            m = c.size
            neg = neg_table[self._rng.integers(0, neg_table.size, size=(m, self.negatives))]
            v_c = self.vectors_[c]                       # (m, d)
            v_pos = self.context_vectors_[pos]           # (m, d)
            v_neg = self.context_vectors_[neg]           # (m, k, d)

            # Positive pairs: maximise log sigma(v_c . v_pos).
            pos_score = _stable_sigmoid(np.einsum("md,md->m", v_c, v_pos))
            pos_coeff = (1.0 - pos_score)[:, None]       # (m, 1)
            # Negative pairs: maximise log sigma(-v_c . v_neg).
            neg_score = _stable_sigmoid(np.einsum("md,mkd->mk", v_c, v_neg))
            neg_coeff = -neg_score[:, :, None]           # (m, k, 1)

            grad_c = pos_coeff * v_pos + np.einsum("mko,mkd->md", neg_coeff, v_neg)
            grad_pos = pos_coeff * v_c
            grad_neg = neg_coeff * v_c[:, None, :]

            # Batched updates hit the same row many times with gradients
            # computed at stale values; averaging per unique row (instead of
            # summing) keeps the effective step bounded regardless of how
            # often a token repeats within the batch — without it, small
            # vocabularies oscillate and the vectors diverge.
            self._scaled_update(self.vectors_, c, grad_c, lr)
            self._scaled_update(self.context_vectors_, pos, grad_pos, lr)
            self._scaled_update(
                self.context_vectors_,
                neg.reshape(-1),
                grad_neg.reshape(-1, self.dim),
                lr,
            )

    def _scaled_update(
        self, matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray, lr: float
    ) -> None:
        # Sum each distinct row's gradients in input order: bincount adds
        # every weight to a 0.0-initialised bin one by one, the same IEEE
        # additions np.add.at makes, so the update is exact, not just close.
        counts = np.bincount(rows)
        unique = np.flatnonzero(counts)
        slot = np.empty(counts.size, dtype=np.intp)
        slot[unique] = np.arange(unique.size)
        sums = segment_sums(grads, slot[rows], unique.size)
        matrix[unique] += lr * sums / counts[unique, None]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __contains__(self, token: str) -> bool:
        return self.vocabulary is not None and token in self.vocabulary

    def vector(self, token: str) -> np.ndarray:
        """Embedding of ``token``; raises ``KeyError`` when out of vocabulary."""
        check_fitted(self, "vectors_")
        return self.vectors_[self.vocabulary.id_of(token)]

    def vectors_for(self, tokens: list[str], skip_unknown: bool = True) -> np.ndarray:
        """Stack embeddings for the given tokens, shape ``(n, dim)``."""
        check_fitted(self, "vectors_")
        ids = self.vocabulary.encode(tokens, skip_unknown=skip_unknown)
        return self.vectors_[ids] if ids else np.zeros((0, self.dim))

    def first_order_similarity(self, token_a: str, token_b: str) -> float:
        """Direct co-occurrence association: sigmoid(v_in(a) · v_ctx(b)).

        Cosine over input vectors measures *second-order* similarity (same
        contexts), which on small templated corpora lumps all same-topic
        words together.  This score is the trained SGNS objective itself —
        high iff the pair actually co-occurred — and is the right signal
        for cell-level matching (does ``france`` go with ``paris``?).
        """
        check_fitted(self, "vectors_")
        if token_a not in self or token_b not in self:
            return 0.0
        dot = float(
            self.vectors_[self.vocabulary.id_of(token_a)]
            @ self.context_vectors_[self.vocabulary.id_of(token_b)]
        )
        return float(_stable_sigmoid(np.array(dot)))

    def most_similar(self, token: str, topn: int = 10) -> list[tuple[str, float]]:
        """Nearest neighbours of ``token`` by cosine similarity."""
        check_fitted(self, "vectors_")
        return self.similar_by_vector(self.vector(token), topn=topn, exclude={token})

    def similar_by_vector(
        self, query: np.ndarray, topn: int = 10, exclude: set[str] | None = None
    ) -> list[tuple[str, float]]:
        """Nearest vocabulary entries to an arbitrary query vector."""
        check_fitted(self, "vectors_")
        norms = np.linalg.norm(self.vectors_, axis=1) + 1e-12
        q_norm = np.linalg.norm(query) + 1e-12
        sims = (self.vectors_ @ query) / (norms * q_norm)
        order = np.argsort(-sims)
        results: list[tuple[str, float]] = []
        exclude = exclude or set()
        for idx in order:
            token = self.vocabulary.token_of(int(idx))
            if token in exclude:
                continue
            results.append((token, float(sims[idx])))
            if len(results) >= topn:
                break
        return results

    def analogy(self, a: str, b: str, c: str, topn: int = 5) -> list[tuple[str, float]]:
        """Solve ``a : b :: c : ?`` via vector arithmetic (king − man + woman)."""
        query = self.vector(b) - self.vector(a) + self.vector(c)
        return self.similar_by_vector(query, topn=topn, exclude={a, b, c})

    # ------------------------------------------------------------------ #
    # persistence (transfer learning / pre-trained models, Section 6.2.5)
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Persist vectors + vocabulary to an ``.npz`` file."""
        check_fitted(self, "vectors_")
        np.savez(
            path,
            vectors=self.vectors_,
            context_vectors=self.context_vectors_,
            tokens=np.array(self.vocabulary.tokens, dtype=object),
            counts=np.array(self.vocabulary.frequencies(), dtype=np.int64),
            dim=self.dim,
        )

    @classmethod
    def load(cls, path: str) -> "SkipGram":
        """Load a model saved by :meth:`save`."""
        data = np.load(path, allow_pickle=True)
        model = cls(dim=int(data["dim"]))
        vocab = Vocabulary()
        for token, count in zip(data["tokens"], data["counts"]):
            vocab.counts[str(token)] = int(count)
        vocab._rebuild()
        model.vocabulary = vocab
        model.vectors_ = data["vectors"]
        model.context_vectors_ = data["context_vectors"]
        return model
