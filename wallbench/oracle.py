"""Answer checks, run outside the timed calls.

Served answers are logged by content key and by the fingerprint of the
matcher that served it.  Logged match answers are rescored with offline
``DeepER.predict_proba`` over the answer's candidate list, using that
same matcher: the best id must agree and the probability must agree
within 1e-9.  Clean and discover answers are recomputed with direct
``FDRepairer.repair`` and ``SyntacticMatcher.match_tables`` calls.
"""

from __future__ import annotations

import hashlib
import heapq
import json

import numpy as np

from repro.cleaning.repair import FDRepairer
from repro.discovery.matcher import SyntacticMatcher

from wallbench.stack import FDS

TOLERANCE = 1e-9
# Rescoring costs about as much as serving, so a run keeps at most this
# many distinct match answers for the oracle: the ones whose content keys
# hash lowest, a uniform sample that needs no memory beyond itself.
ORACLE_CAP = 512
_CHUNK_PAIRS = 8192


class AnswerLog:
    """Sampled distinct answers of a run, plus the answer prefix to digest."""

    def __init__(self, prefix_size: int) -> None:
        self.match: "dict[tuple[int, str], tuple]" = {}
        self._ranks: "list[tuple[int, str]]" = []  # max-heap of match keys, negated
        self.tables: "dict[tuple[str, str], dict]" = {}
        self.prefix: list = []
        self.prefix_size = prefix_size
        self.inconsistent = 0
        self.matched = 0

    def add_match(self, record: dict, answer, fingerprint: str) -> None:
        served = (answer.candidates, answer.best_id, answer.probability)
        self.matched += bool(answer.matched)
        if len(self.prefix) < self.prefix_size:
            self.prefix.append([answer.query_key, answer.best_id, round(answer.probability, 9)])
        key = (int(answer.query_key[:15], 16), fingerprint)
        seen = self.match.get(key)
        if seen is not None:
            # A repeated query must get the answer it got before from the
            # same matcher, whether the caches held it or not.
            self.inconsistent += not _same(seen[1:], served)
            return
        if len(self.match) == ORACLE_CAP:
            if key[0] > -self._ranks[0][0]:
                return
            rank, evicted = heapq.heappop(self._ranks)
            del self.match[(-rank, evicted)]
        self.match[key] = (record, *served)
        heapq.heappush(self._ranks, (-key[0], key[1]))

    def add_table(self, route: str, table, answer: dict) -> None:
        if len(self.prefix) < self.prefix_size:
            self.prefix.append([route, answer])
        key = (route, table.name)
        seen = self.tables.get(key)
        if seen is None:
            self.tables[key] = (table, answer)
        elif seen[1] != answer:
            self.inconsistent += 1

    def digest(self) -> str:
        payload = json.dumps(self.prefix, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _same(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and a[1] == b[1] and abs(a[2] - b[2]) <= TOLERANCE


def check_matches(log: AnswerLog, matchers: "dict[str, object]", index) -> "tuple[int, int]":
    """Rescore the logged match answers offline; returns (checked, mismatches)."""
    mismatches = 0
    by_matcher: "dict[str, list]" = {}
    for key in sorted(log.match):
        by_matcher.setdefault(key[1], []).append(log.match[key])
    for fingerprint, entries in sorted(by_matcher.items()):
        position = 0
        while position < len(entries):
            chunk: list = []
            pairs: list = []
            while position < len(entries) and (
                not chunk or len(pairs) + len(entries[position][1]) <= _CHUNK_PAIRS
            ):
                record, candidates = entries[position][:2]
                chunk.append(entries[position])
                pairs.extend((record, index.record(c)) for c in candidates)
                position += 1
            mismatches += _rescore(matchers[fingerprint], chunk, pairs)
    return len(log.match), mismatches


def _rescore(matcher, entries: list, pairs: list) -> int:
    probabilities = matcher.predict_proba(pairs) if pairs else np.zeros(0)
    mismatches = 0
    offset = 0
    for _, candidates, best_id, probability in entries:
        scores = probabilities[offset:offset + len(candidates)]
        offset += len(candidates)
        if not candidates:
            expected = (None, 0.0)
        else:
            best = min(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
            expected = (candidates[best], float(scores[best]))
        if expected[0] != best_id or abs(expected[1] - probability) > TOLERANCE:
            mismatches += 1
    return mismatches


def clean_answer(table) -> dict:
    """What the clean route must answer for ``table``, computed directly."""
    _, report = FDRepairer(FDS).repair(table)
    return {
        "table": table.name,
        "rows": table.num_rows,
        "columns": len(table.columns),
        "repairs": len(report),
        "repaired_cells": sorted([row, column] for row, column in report.cells()),
    }


def discover_answer(reference, table, threshold: float = 0.5) -> dict:
    """What the discover route must answer for ``table``, computed directly."""
    links = SyntacticMatcher().match_tables(reference, table, threshold, jobs=1)
    return {
        "table": table.name,
        "links": [
            {"column_a": link.column_a, "column_b": link.column_b, "score": round(float(link.score), 9)}
            for link in links
        ],
    }


def check_tables(log: AnswerLog, reference) -> "tuple[int, int]":
    """Recompute every distinct clean/discover answer; (checked, mismatches)."""
    mismatches = 0
    for (route, _), (table, answer) in sorted(log.tables.items(), key=lambda kv: kv[0]):
        expected = clean_answer(table) if route == "clean" else discover_answer(reference, table)
        mismatches += expected != answer
    return len(log.tables), mismatches
