"""Vocabulary: the bidirectional token ↔ id mapping under every embedding."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

import numpy as np


class Vocabulary:
    """Frequency-aware token index.

    Tokens are assigned ids in descending frequency order (ties broken
    alphabetically) so id 0 is always the most frequent token — a property
    the negative-sampling table construction relies on.  Every (re)build
    also derives the unigram probability table :attr:`probabilities`.
    """

    def __init__(self, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.min_count = min_count
        self.counts: Counter[str] = Counter()
        self._rebuild()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_documents(self, documents: Iterable[list[str]]) -> "Vocabulary":
        """Count tokens from an iterable of token lists, then (re)build ids."""
        for doc in documents:
            self.counts.update(doc)
        self._rebuild()
        return self

    @classmethod
    def from_documents(cls, documents: Iterable[list[str]], min_count: int = 1) -> "Vocabulary":
        """Build a vocabulary from an iterable of token lists."""
        return cls(min_count=min_count).add_documents(documents)

    def _rebuild(self) -> None:
        kept = [
            (token, count)
            for token, count in self.counts.items()
            if count >= self.min_count
        ]
        kept.sort(key=lambda item: (-item[1], item[0]))
        self._id_to_token = [token for token, _ in kept]
        self._token_to_id = {token: i for i, token in enumerate(self._id_to_token)}
        freqs = np.asarray(self.frequencies(), dtype=np.float64)
        self._probabilities = freqs / freqs.sum()
        self._probabilities.flags.writeable = False

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def id_of(self, token: str) -> int:
        """Return the id of ``token``; raises ``KeyError`` if unknown."""
        return self._token_to_id[token]

    def get(self, token: str, default: int | None = None) -> int | None:
        """Id of ``token`` or ``default`` when unknown."""
        return self._token_to_id.get(token, default)

    def token_of(self, token_id: int) -> str:
        """Token with the given id."""
        return self._id_to_token[token_id]

    def encode(self, tokens: list[str], skip_unknown: bool = True) -> list[int]:
        """Map tokens to ids; unknown tokens are dropped or raise."""
        if skip_unknown:
            return [self._token_to_id[t] for t in tokens if t in self._token_to_id]
        return [self._token_to_id[t] for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        """Map ids back to tokens."""
        return [self._id_to_token[i] for i in ids]

    def count_of(self, token: str) -> int:
        """Raw corpus count of ``token`` (0 when unseen)."""
        return self.counts.get(token, 0)

    @property
    def tokens(self) -> list[str]:
        """All in-vocabulary tokens in id order."""
        return list(self._id_to_token)

    def frequencies(self) -> list[int]:
        """Counts aligned with id order (used for sampling tables)."""
        return [self.counts[token] for token in self._id_to_token]

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only unigram probabilities p(w) aligned with id order.

        Built with the ids by every (re)build, so a lookup is one index
        instead of a pass over the whole vocabulary.
        """
        return self._probabilities
