"""Blocking: LSH over tuple embeddings vs traditional attribute blocking.

DeepER's efficiency contribution (Section 5.2): a locality-sensitive-hashing
scheme over distributed tuple representations that "takes all attributes of
a tuple into consideration and produces much smaller blocks" than
traditional blocking on a few attributes.  Implemented with random
hyperplane signatures (cosine LSH) split into bands; two tuples are
candidates when they collide in at least one band.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

import numpy as np

from repro.data.types import is_missing
from repro.faults.retry import HOT_POLICY, retry_call
from repro.par import pmap, pmap_chunks
from repro.text.tokenize import word_tokenize
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


def _band_candidates(
    bands: list[tuple[int, int]], sig_a: np.ndarray, sig_b: np.ndarray
) -> set[tuple[int, int]]:
    """Index pairs of signatures colliding in any of the given bands.

    Module-level (not a method) so :func:`repro.par.pmap_chunks` workers
    can pickle it by reference.
    """
    found: set[tuple[int, int]] = set()
    for lo, hi in bands:
        buckets: dict[bytes, list[int]] = defaultdict(list)
        for i, signature in enumerate(sig_a):
            buckets[signature[lo:hi].tobytes()].append(i)
        for j, signature in enumerate(sig_b):
            key = signature[lo:hi].tobytes()
            for i in buckets.get(key, ()):
                found.add((i, j))
    return found


def _token_candidates(
    indexed_tokens: list[tuple[int, set[str]]],
    index: dict[str, list[int]],
    rare: set[str],
) -> set[tuple[int, int]]:
    """Index pairs sharing a rare token, for one chunk of B-side records."""
    found: set[tuple[int, int]] = set()
    for j, tokens in indexed_tokens:
        for token in tokens & rare:
            for i in index.get(token, ()):
                found.add((i, j))
    return found


class LSHBlocker:
    """Random-hyperplane LSH blocking over tuple embeddings.

    Parameters
    ----------
    n_bits:
        Total signature length (number of hyperplanes).
    n_bands:
        Bands the signature splits into; candidates must share all bits of
        at least one band.  More bands → higher recall, bigger blocks.
    """

    def __init__(
        self,
        n_bits: int = 16,
        n_bands: int = 4,
        whiten: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        check_positive_int("n_bits", n_bits)
        check_positive_int("n_bands", n_bands)
        if n_bits % n_bands != 0:
            raise ValueError(f"n_bits ({n_bits}) must be divisible by n_bands ({n_bands})")
        self.n_bits = n_bits
        self.n_bands = n_bands
        self.whiten = whiten
        self.rows_per_band = n_bits // n_bands
        self._rng = ensure_rng(rng)
        self._hyperplanes: np.ndarray | None = None
        self._center: np.ndarray | None = None
        self._transform: np.ndarray | None = None

    def _fit_transform(self, embeddings: np.ndarray) -> None:
        """Center (and optionally PCA-whiten) the embedding space.

        Same-domain tuple embeddings cluster in a narrow anisotropic cone;
        raw hyperplane signs barely discriminate there.  Whitening
        equalises variance across directions so matched pairs keep small
        angles while random pairs spread to ~90°.
        """
        self._center = embeddings.mean(axis=0)
        if not self.whiten:
            self._transform = None
            return
        centered = embeddings - self._center
        covariance = np.cov(centered.T)
        eigenvalues, eigenvectors = np.linalg.eigh(np.atleast_2d(covariance))
        eigenvalues = np.maximum(eigenvalues, 1e-8)
        self._transform = eigenvectors / np.sqrt(eigenvalues)

    def _signatures(self, embeddings: np.ndarray) -> np.ndarray:
        if self._hyperplanes is None:
            dim = embeddings.shape[1]
            self._hyperplanes = self._rng.normal(size=(dim, self.n_bits))
        projected = embeddings - self._center
        if self._transform is not None:
            projected = projected @ self._transform
        return (projected @ self._hyperplanes) >= 0

    def prepare_reference(self, embeddings: np.ndarray) -> np.ndarray:
        """Fit the transform on a reference table and return its signatures.

        Index-build path for :mod:`repro.serve`: unlike
        :meth:`candidate_pairs` (which refits the centering/whitening on
        the union of both tables per call), this fits once on the indexed
        table only, so later :meth:`query_signatures` calls see a *frozen*
        hash function — a query's candidate set cannot depend on which
        other queries share its micro-batch.
        """
        if len(embeddings) == 0:
            raise ValueError("cannot prepare an LSH reference from zero embeddings")
        self._fit_transform(embeddings)
        return self._signatures(embeddings)

    def query_signatures(self, embeddings: np.ndarray) -> np.ndarray:
        """Signatures for query embeddings under the fitted transform."""
        if self._center is None:
            raise RuntimeError(
                "prepare_reference must run before query_signatures"
            )
        return self._signatures(embeddings)

    def band_slices(self) -> list[tuple[int, int]]:
        """The ``(lo, hi)`` signature column range of every band."""
        return [
            (band * self.rows_per_band, (band + 1) * self.rows_per_band)
            for band in range(self.n_bands)
        ]

    def candidate_pairs(
        self,
        embeddings_a: np.ndarray,
        ids_a: list[str],
        embeddings_b: np.ndarray,
        ids_b: list[str],
        *,
        jobs: int = 1,
    ) -> set[tuple[str, str]]:
        """Cross-table candidate pairs sharing at least one band bucket.

        ``jobs > 1`` fans the per-band bucket matching out over a process
        pool via :mod:`repro.par`; the result is identical to the serial
        path for every ``jobs`` value (bands are independent and the
        union is order-insensitive).
        """
        if len(embeddings_a) == 0 or len(embeddings_b) == 0:
            return set()
        self._fit_transform(np.concatenate([embeddings_a, embeddings_b]))
        sig_a = self._signatures(embeddings_a)
        sig_b = self._signatures(embeddings_b)
        bands = self.band_slices()
        index_pairs: set[tuple[int, int]] = retry_call(
            pmap_chunks,
            partial(_band_candidates, sig_a=sig_a, sig_b=sig_b),
            bands,
            jobs=jobs,
            chunk_size=1,
            label="lsh.bands",
            combine=lambda left, right: left | right,
            initial=set(),
            site="er.blocking.lsh",
            policy=HOT_POLICY,
            validate=lambda pairs: isinstance(pairs, set),
        )
        return {(ids_a[i], ids_b[j]) for i, j in index_pairs}

    def block_sizes(self, embeddings: np.ndarray) -> list[int]:
        """Bucket sizes per band over one table (for block-size reporting)."""
        signatures = self._signatures(embeddings)
        sizes: list[int] = []
        for band in range(self.n_bands):
            lo = band * self.rows_per_band
            hi = lo + self.rows_per_band
            buckets: dict[bytes, int] = defaultdict(int)
            for signature in signatures:
                buckets[signature[lo:hi].tobytes()] += 1
            sizes.extend(buckets.values())
        return sizes


class AttributeBlocker:
    """Traditional blocking: exact match on a (derived) blocking key.

    ``key_fn`` maps a record to its blocking key; the default takes the
    first token of ``column`` — the classic "block on first author / first
    word of title" heuristic that considers only one attribute.
    """

    def __init__(self, column: str, key_fn=None) -> None:
        self.column = column
        self._key_fn = key_fn or self._first_token

    def _first_token(self, record: dict[str, object]) -> str | None:
        value = record.get(self.column)
        if is_missing(value):
            return None
        tokens = word_tokenize(str(value))
        return tokens[0] if tokens else None

    def candidate_pairs(
        self,
        records_a: list[dict[str, object]],
        ids_a: list[str],
        records_b: list[dict[str, object]],
        ids_b: list[str],
    ) -> set[tuple[str, str]]:
        buckets: dict[str, list[int]] = defaultdict(list)
        for i, record in enumerate(records_a):
            key = self._key_fn(record)
            if key is not None:
                buckets[key].append(i)
        candidates: set[tuple[str, str]] = set()
        for j, record in enumerate(records_b):
            key = self._key_fn(record)
            if key is None:
                continue
            for i in buckets.get(key, ()):
                candidates.add((ids_a[i], ids_b[j]))
        return candidates

    def block_sizes(self, records: list[dict[str, object]]) -> list[int]:
        buckets: dict[str, int] = defaultdict(int)
        for record in records:
            key = self._key_fn(record)
            if key is not None:
                buckets[key] += 1
        return list(buckets.values())


class TokenBlocker:
    """Blocking on shared rare tokens across a set of columns.

    Two records are candidates if they share any token whose document
    frequency is below ``max_df`` — a stronger traditional baseline than
    single-attribute blocking, but still syntactic.
    """

    def __init__(self, columns: list[str], max_df: float = 0.1) -> None:
        self.columns = list(columns)
        self.max_df = max_df

    def _tokens(self, record: dict[str, object]) -> set[str]:
        tokens: set[str] = set()
        for column in self.columns:
            value = record.get(column)
            if not is_missing(value):
                tokens.update(word_tokenize(str(value)))
        return tokens

    def candidate_pairs(
        self,
        records_a: list[dict[str, object]],
        ids_a: list[str],
        records_b: list[dict[str, object]],
        ids_b: list[str],
        *,
        jobs: int = 1,
    ) -> set[tuple[str, str]]:
        """Rare-token candidate pairs; ``jobs > 1`` parallelises the
        tokenisation of both sides and the B-side probing (document
        frequencies stay serial — they need the global counts)."""
        if not records_a or not records_b:
            return set()

        def _block() -> set[tuple[str, str]]:
            # Pure in its inputs — re-runnable under the retry budget.
            n_docs = len(records_a) + len(records_b)
            document_frequency: dict[str, int] = defaultdict(int)
            token_sets_a = pmap(self._tokens, records_a, jobs=jobs, label="token.tokenize_a")
            token_sets_b = pmap(self._tokens, records_b, jobs=jobs, label="token.tokenize_b")
            for tokens in token_sets_a + token_sets_b:
                for token in tokens:
                    document_frequency[token] += 1
            rare = {
                token
                for token, df in document_frequency.items()
                if df / n_docs <= self.max_df
            }
            index: dict[str, list[int]] = {}
            for i, tokens in enumerate(token_sets_a):
                for token in tokens & rare:
                    index.setdefault(token, []).append(i)
            index_pairs: set[tuple[int, int]] = pmap_chunks(
                partial(_token_candidates, index=index, rare=rare),
                list(enumerate(token_sets_b)),
                jobs=jobs,
                label="token.probe",
                combine=lambda left, right: left | right,
                initial=set(),
            )
            return {(ids_a[i], ids_b[j]) for i, j in index_pairs}

        return retry_call(
            _block,
            site="er.blocking.token",
            policy=HOT_POLICY,
            validate=lambda pairs: isinstance(pairs, set),
        )
