"""Differential tier: batched kernels versus the loop references.

The kernel contract (:mod:`repro.kernels.features`) is *bit-exactness* in
float mode — not closeness.  Every test here compares full byte patterns
(``np.array_equal``), across batch sizes 1/2/7/32/1000, empty input and
duplicate pairs, at three levels: feature matrices, classifier
probabilities, and end-to-end serving answers.  The references live in
:mod:`repro.kernels.reference`, which no production module imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernels import (
    PairSide,
    compose_pair_features,
    pair_feature_matrix,
    score_pairs,
    unique_column_stack,
)
from repro.kernels.reference import _pair_feature_row, loop_match_batch
from repro.obs import drain_roots
from repro.serve import MatchService

BATCH_SIZES = [1, 2, 7, 32, 1000]


def _loop_features(pairs, embedder) -> np.ndarray:
    return np.array([_pair_feature_row(pair, embedder) for pair in pairs])


def _column_stacks(pairs, embedder):
    u = np.array([embedder.embed_columns(a) for a, _ in pairs])
    v = np.array([embedder.embed_columns(b) for _, b in pairs])
    return u, v


class TestFeatureKernel:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_bit_exact_across_batch_sizes(self, trained_matcher, pair_pool, size):
        pairs = pair_pool[:size]
        embedder = trained_matcher.embedder
        batched = pair_feature_matrix(*_column_stacks(pairs, embedder))
        assert np.array_equal(batched, _loop_features(pairs, embedder))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_composed_bit_exact_across_batch_sizes(
        self, trained_matcher, pair_pool, size
    ):
        pairs = pair_pool[:size]
        embedder = trained_matcher.embedder
        composed = compose_pair_features(pairs, embedder)
        assert np.array_equal(composed, _loop_features(pairs, embedder))

    def test_empty_batch(self, trained_matcher):
        embedder = trained_matcher.embedder
        out = compose_pair_features([], embedder)
        assert out.shape == (0, len(embedder.columns) * (embedder.dim + 1))

    def test_duplicate_pairs(self, trained_matcher, pair_pool):
        # Duplicates exercise the dedup gather: repeated pairs must come
        # back as identical rows, and the whole matrix must still match
        # the (dedup-free) loop.
        pairs = pair_pool[:6] + pair_pool[:3] + [pair_pool[0]]
        embedder = trained_matcher.embedder
        composed = compose_pair_features(pairs, embedder)
        assert np.array_equal(composed, _loop_features(pairs, embedder))
        assert np.array_equal(composed[0], composed[6])
        assert np.array_equal(composed[0], composed[9])

    def test_zero_norm_columns_guarded(self, trained_matcher, pair_pool):
        # A record with no known tokens embeds to all-zero columns; the
        # guarded lanes must agree with the loop's scalar branches.
        embedder = trained_matcher.embedder
        blank = {column: "" for column in embedder.columns}
        pairs = [(blank, pair_pool[0][1]), (blank, blank), pair_pool[1]]
        composed = compose_pair_features(pairs, embedder)
        assert np.array_equal(composed, _loop_features(pairs, embedder))
        assert np.all(np.isfinite(composed))

    def test_kernel_and_loop_matcher_paths_identical(
        self, trained_matcher, pair_pool
    ):
        pairs = pair_pool[:25]
        kernel_features = trained_matcher._pair_features_numpy(pairs)
        loop_features = _loop_features(pairs, trained_matcher.embedder)
        assert np.array_equal(kernel_features, loop_features)


class TestColumnStackJobs:
    """``unique_column_stack`` is a ``repro.par`` call site: ``jobs=2``
    must give the ``jobs=1`` stack and indices byte for byte."""

    @pytest.mark.parametrize("size", [0, 1, 12])
    def test_jobs_two_equals_jobs_one(self, trained_matcher, query_records, size):
        records = query_records[:size]
        records = records + records[: (size + 1) // 2]  # duplicates
        embedder = trained_matcher.embedder
        serial_stack, serial_indices = unique_column_stack(records, embedder, jobs=1)
        drain_roots()
        stack, indices = unique_column_stack(records, embedder, jobs=2)
        assert stack.shape == serial_stack.shape == (size, len(embedder.columns), embedder.dim)
        assert stack.dtype == serial_stack.dtype
        assert stack.tobytes() == serial_stack.tobytes()
        assert indices.tobytes() == serial_indices.tobytes()
        modes = [root.meta["mode"] for root in drain_roots() if root.name == "par.map"]
        assert modes == ([] if size == 0 else ["serial:single_chunk" if size == 1 else "parallel"])


class TestScoreKernel:
    @pytest.mark.parametrize("size", [1, 2, 7, 32])
    def test_probabilities_match_predict_proba(
        self, trained_matcher, pair_pool, size
    ):
        pairs = pair_pool[:size]
        u, v = _column_stacks(pairs, trained_matcher.embedder)
        kernel = score_pairs(trained_matcher.classifier, u, v)
        offline = trained_matcher.predict_proba(pairs)
        assert np.array_equal(kernel, offline)

    def test_empty_batch(self, trained_matcher):
        dim = trained_matcher.embedder.dim
        columns = len(trained_matcher.embedder.columns)
        out = score_pairs(
            trained_matcher.classifier,
            np.zeros((0, columns, dim)),
            np.zeros((0, columns, dim)),
        )
        assert out.shape == (0,)


class TestServingDifferential:
    def test_kernel_service_equals_loop_service(
        self, trained_matcher, built_index, query_records
    ):
        queries = query_records[:40]
        kernel = MatchService(trained_matcher, built_index, jobs=1).match_batch(queries)
        loop, loop_pairs = loop_match_batch(trained_matcher, built_index, queries)
        assert kernel.scored_pairs == loop_pairs
        assert len(kernel.answers) == len(loop)
        for a, b in zip(kernel.answers, loop):
            assert a.best_id == b["best_id"]
            assert a.probability == b["probability"]  # bit-equal, not approx
            assert a.matched == b["matched"]

    def test_kernel_service_equals_offline_predict(
        self, trained_matcher, built_index, query_records
    ):
        service = MatchService(trained_matcher, built_index, jobs=1)
        for query in query_records[:12]:
            answer = service.match_one(query)
            if not answer.candidates:
                continue
            pairs = [(query, built_index.record(c)) for c in answer.candidates]
            offline = trained_matcher.predict_proba(pairs)
            assert answer.probability == float(offline.max())
            best_position = answer.candidates.index(answer.best_id)
            assert answer.probability == float(offline[best_position])


class _RowsEmbedder:
    """Stands in for a TupleEmbedder: a record is a ``(rows, i)`` handle
    and its column stack is ``rows[i]``, so the loop reference runs on
    synthetic rows."""

    @staticmethod
    def embed_columns(record):
        rows, i = record
        return rows[i]


def _distinct(indices):
    """Distinct values in first-seen order, and each position's place."""
    place: dict[int, int] = {}
    local = [place.setdefault(int(i), len(place)) for i in indices]
    return np.array(list(place), dtype=np.intp), np.array(local, dtype=np.intp)


class TestPerRowTerms:
    """``PairSide`` inputs at ``bulk``'s shape — 16 query rows, about 64
    candidates each, a 155-row store — equal the per-pair loop bit for
    bit, with duplicate-heavy indices and zero-norm rows on both sides."""

    COLUMNS, DIM = 3, 40  # citations' compare columns, wallbench's dim

    # One arm, ``none``: the store as an index keeps it, unrounded
    # float64 rows behind a read-only flag.
    @pytest.fixture(params=["none"])
    def batch(self):
        gen = np.random.default_rng(5)
        queries = gen.normal(size=(16, self.COLUMNS, self.DIM))
        store = gen.normal(size=(155, self.COLUMNS, self.DIM))
        queries[3] = 0.0                 # a zero row
        queries[5, 2] = 0.0              # a zero column
        queries[6, 1] = 1e-11            # between the two guards
        queries[6, 0] = 1e-13            # under both guards
        store[7] = 0.0
        store[9, 2] = 0.0
        store[11, 0] = 5e-10
        store.flags.writeable = False
        # ~64 candidates per query, drawn with repeats from a 40-row hot
        # set plus the rest of the store, and the zero rows on purpose.
        query_index = np.repeat(np.arange(16), 64)[:1015]
        hot = gen.integers(0, 40, size=600)
        rest = gen.integers(0, 155, size=415)
        reference_index = np.concatenate([hot, rest])
        reference_index[::97] = 7
        return queries, store, query_index, reference_index

    def test_equals_the_per_pair_loop(self, batch):
        queries, store, query_index, reference_index = batch
        q_rows, q_local = _distinct(query_index)
        r_rows, r_local = _distinct(reference_index)
        features = pair_feature_matrix(
            PairSide(queries[q_rows], q_local),
            PairSide(store[r_rows], r_local),
        )
        loop = np.array([
            _pair_feature_row(((queries, q), (store, r)), _RowsEmbedder)
            for q, r in zip(query_index, reference_index)
        ])
        assert features.shape == (1015, self.COLUMNS * (self.DIM + 1))
        assert np.array_equal(features, loop)
        assert np.all(np.isfinite(features))
        # The per-pair stacks give the same bits as the distinct rows.
        stacked = pair_feature_matrix(queries[query_index], store[reference_index])
        assert np.array_equal(features, stacked)

    def test_pair_side_reports_the_per_pair_shape(self, batch):
        queries, _, query_index, _ = batch
        side = PairSide(queries, query_index)
        assert side.shape == (1015, self.COLUMNS, self.DIM)
        assert len(side) == 1015

    def test_empty_batch(self, batch):
        queries, store, _, _ = batch
        empty = np.zeros(0, dtype=np.intp)
        out = pair_feature_matrix(
            PairSide(queries, empty), PairSide(store[:3], empty)
        )
        assert out.shape == (0, self.COLUMNS * (self.DIM + 1))

    def test_mismatched_sides_are_rejected(self, batch):
        queries, _, query_index, _ = batch
        with pytest.raises(ValueError, match="share a shape"):
            pair_feature_matrix(
                PairSide(queries, query_index), PairSide(queries, query_index[:3])
            )


def _imported_modules(path: Path, root: Path) -> "set[str]":
    """Absolute module names ``path`` imports; ``from a import b`` gives
    ``a`` and ``a.b``, and relative imports resolve against its package."""
    package = ("repro",) + path.relative_to(root).parent.parts
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            anchor = package[: len(package) - node.level + 1] if node.level else ()
            base = ".".join(anchor + ((node.module,) if node.module else ()))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_production_module_imports_the_references():
    """The loop references stay out of production: no module under
    ``repro`` imports :mod:`repro.kernels.reference`."""
    root = Path(repro.__file__).parent
    importers = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if "repro.kernels.reference" in _imported_modules(path, root)
    ]
    assert importers == []
