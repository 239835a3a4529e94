"""Schema matchers: embedding-based semantic matching with coherent groups
vs syntactic baselines (paper Section 5.1).

The semantic matcher scores a pair of columns by combining

* **name similarity** — coherent-group similarity between the word groups
  of the two column names (handles multi-word names; OOV terms back off to
  subword vectors), and
* **value similarity** — cosine between the columns' value embeddings
  (column2vec).

The syntactic baseline uses edit distance on names and token overlap on
values — the matcher family whose spurious links ([21]'s ``biopsy site`` /
``site_components`` example) the semantic matcher is supposed to discard.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.data.table import Table
from repro.data.types import is_missing
from repro.embeddings.compose import column_embedding
from repro.er.features import levenshtein_similarity
from repro.par import pmap
from repro.text.similarity import coherent_group_similarity, cosine

VectorFn = Callable[[str], np.ndarray]

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def _score_pair(
    columns: tuple[str, str], matcher, table_a: Table, table_b: Table
) -> "ColumnLink":
    """Score one cross-table column pair (process-pool worker)."""
    return matcher.score_columns(table_a, columns[0], table_b, columns[1])


def _match_tables(
    score_pair: "Callable[[tuple[str, str]], ColumnLink]",
    table_a: Table,
    table_b: Table,
    threshold: float,
    jobs: int,
) -> "list[ColumnLink]":
    """Shared ``match_tables`` body for both matcher families.

    Column pairs are scored by ``score_pair`` via :func:`repro.par.pmap`
    (results come back in nested-loop order regardless of ``jobs``),
    then filtered and stably sorted — bit-identical to the serial double
    loop.  A matcher whose ``vector_fn`` is an unpicklable closure
    silently degrades to the serial path.
    """
    pairs = [
        (column_a, column_b)
        for column_a in table_a.columns
        for column_b in table_b.columns
    ]
    links = pmap(score_pair, pairs, jobs=jobs, label="matcher.match_tables")
    kept = [link for link in links if link.score >= threshold]
    return sorted(kept, key=lambda l: -l.score)


def _value_set(table: Table, column: str) -> "set[str]":
    """A column's distinct non-missing values, lowercased: the input of
    :class:`SyntacticMatcher`'s value overlap."""
    return {str(v).lower() for v in table.column(column) if not is_missing(v)}


def name_word_group(column_name: str) -> list[str]:
    """Split a column name into its word group.

    Handles snake_case, kebab-case, camelCase and spaces:
    ``"biopsySite_id"`` → ``["biopsy", "site", "id"]``.
    """
    spaced = _CAMEL_RE.sub(" ", column_name)
    words = re.split(r"[\s_\-./]+", spaced)
    return [w.lower() for w in words if w]


@dataclass(frozen=True)
class ColumnLink:
    """A scored candidate link between two columns."""

    table_a: str
    column_a: str
    table_b: str
    column_b: str
    score: float
    name_score: float
    value_score: float

    def key(self) -> tuple[str, str, str, str]:
        return (self.table_a, self.column_a, self.table_b, self.column_b)


class SemanticMatcher:
    """Embedding-driven column matcher with coherent groups.

    Parameters
    ----------
    vector_fn:
        Token → embedding map; pass a subword-capable function so OOV
        schema terms still get vectors.
    dim:
        Embedding dimensionality (for zero vectors / column2vec).
    name_weight:
        Blend between name-group similarity and value similarity.
    """

    def __init__(self, vector_fn: VectorFn, dim: int, name_weight: float = 0.5) -> None:
        if not 0.0 <= name_weight <= 1.0:
            raise ValueError(f"name_weight must be in [0,1], got {name_weight}")
        self.vector_fn = vector_fn
        self.dim = dim
        self.name_weight = name_weight

    def score_columns(
        self, table_a: Table, column_a: str, table_b: Table, column_b: str
    ) -> ColumnLink:
        """Score one column pair."""
        name_score = coherent_group_similarity(
            name_word_group(column_a), name_word_group(column_b), self.vector_fn
        )
        vec_a = column_embedding(table_a, column_a, self.vector_fn, self.dim, sample=50)
        vec_b = column_embedding(table_b, column_b, self.vector_fn, self.dim, sample=50)
        value_score = cosine(vec_a, vec_b)
        score = self.name_weight * name_score + (1.0 - self.name_weight) * value_score
        return ColumnLink(
            table_a.name, column_a, table_b.name, column_b,
            score, name_score, value_score,
        )

    def match_tables(
        self, table_a: Table, table_b: Table, threshold: float = 0.5, *, jobs: int = 1
    ) -> list[ColumnLink]:
        """All cross-table column links scoring at least ``threshold``."""
        score_pair = partial(_score_pair, matcher=self, table_a=table_a, table_b=table_b)
        return _match_tables(score_pair, table_a, table_b, threshold, jobs)


class SyntacticMatcher:
    """Baseline: name edit-similarity + value token-overlap.

    Scores highly whenever strings look alike — including the spurious
    ``biopsy site``/``site components`` style of match the paper's semantic
    matcher is meant to filter out.
    """

    def __init__(self, name_weight: float = 0.5) -> None:
        if not 0.0 <= name_weight <= 1.0:
            raise ValueError(f"name_weight must be in [0,1], got {name_weight}")
        self.name_weight = name_weight

    def score_columns(
        self, table_a: Table, column_a: str, table_b: Table, column_b: str
    ) -> ColumnLink:
        return self._link(
            (table_a.name, column_a, _value_set(table_a, column_a)),
            (table_b.name, column_b, _value_set(table_b, column_b)),
        )

    def _link(
        self, side_a: "tuple[str, str, set[str]]", side_b: "tuple[str, str, set[str]]"
    ) -> ColumnLink:
        """Score one column pair given as ``(table name, column, value
        set)`` sides, each value set made by :func:`_value_set`."""
        (table_a, column_a, values_a), (table_b, column_b, values_b) = side_a, side_b
        group_a = name_word_group(column_a)
        group_b = name_word_group(column_b)
        # Name: best-effort token alignment by edit similarity + shared words.
        shared = len(set(group_a) & set(group_b))
        union = len(set(group_a) | set(group_b))
        token_overlap = shared / union if union else 0.0
        edit = levenshtein_similarity(" ".join(group_a), " ".join(group_b))
        name_score = max(token_overlap, edit)
        if values_a and values_b:
            value_score = len(values_a & values_b) / min(len(values_a), len(values_b))
        else:
            value_score = 0.0
        score = self.name_weight * name_score + (1.0 - self.name_weight) * value_score
        return ColumnLink(
            table_a, column_a, table_b, column_b,
            score, name_score, value_score,
        )

    def match_tables(
        self, table_a: Table, table_b: Table, threshold: float = 0.5, *, jobs: int = 1
    ) -> list[ColumnLink]:
        """All cross-table column links scoring at least ``threshold``;
        each column's value set is made once per call, not once per pair."""
        sides_a = {c: (table_a.name, c, _value_set(table_a, c)) for c in table_a.columns}
        sides_b = {c: (table_b.name, c, _value_set(table_b, c)) for c in table_b.columns}
        score_pair = partial(_link_pair, matcher=self, sides_a=sides_a, sides_b=sides_b)
        return _match_tables(score_pair, table_a, table_b, threshold, jobs)


def _link_pair(columns: tuple[str, str], matcher, sides_a: dict, sides_b: dict) -> ColumnLink:
    """Score one column pair from prepared sides (process-pool worker)."""
    return matcher._link(sides_a[columns[0]], sides_b[columns[1]])


def one_to_one(links: list[ColumnLink]) -> list[ColumnLink]:
    """Greedy best-score-first 1:1 assignment of column links.

    Schema matching is (usually) a bipartite matching problem: once
    ``full_name ↔ person`` is taken, a weaker ``work_city ↔ person`` link
    must not survive.  Links are consumed best-first; a link is kept only
    if both of its columns are still unclaimed.
    """
    kept: list[ColumnLink] = []
    used_a: set[tuple[str, str]] = set()
    used_b: set[tuple[str, str]] = set()
    for link in sorted(links, key=lambda l: -l.score):
        key_a = (link.table_a, link.column_a)
        key_b = (link.table_b, link.column_b)
        if key_a in used_a or key_b in used_b:
            continue
        used_a.add(key_a)
        used_b.add(key_b)
        kept.append(link)
    return kept


def centered_vector_fn(model, vector_fn: VectorFn) -> VectorFn:
    """Wrap a token→vector map to subtract the vocabulary mean.

    Small-corpus embedding spaces are anisotropic (every vector shares a
    large common component), which inflates all similarities toward 1 and
    destroys the contrast the matcher needs; mean-centering ("all but the
    top") restores it.
    """
    mean = model.vectors_.mean(axis=0)

    def centered(token: str) -> np.ndarray:
        vec = vector_fn(token)
        if np.linalg.norm(vec) > 1e-9:
            return vec - mean
        return vec

    return centered


def evaluate_links(
    predicted: list[ColumnLink],
    gold: set[tuple[str, str, str, str]],
) -> dict[str, float]:
    """Precision/recall/F1 of predicted links vs a gold link set.

    Links are order-insensitive: (A.x, B.y) matches gold (B.y, A.x).
    """
    def normalise(key: tuple[str, str, str, str]) -> tuple:
        a = (key[0], key[1])
        b = (key[2], key[3])
        return tuple(sorted([a, b]))

    predicted_keys = {normalise(link.key()) for link in predicted}
    gold_keys = {normalise(k) for k in gold}
    tp = len(predicted_keys & gold_keys)
    precision = tp / len(predicted_keys) if predicted_keys else 0.0
    recall = tp / len(gold_keys) if gold_keys else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}
