"""Micro-benchmarks of the deep-learning substrate's hot kernels.

Unlike the experiment benches (single pedantic rounds around whole
experiments), these let pytest-benchmark do proper multi-round timing of
the primitives everything else is built on: autograd forward+backward,
LSTM steps, SGNS epochs and per-row updates, LSH signatures, and pair
featurisation.

The ``pair scoring`` rows are the before/after pair for the
:mod:`repro.kernels` rewrite: the same DeepER featurisation over the
same 200 pairs, once through the per-pair loop reference
(:func:`repro.kernels.reference._pair_feature_row`) and once through the
batched matmul path.
These measurements calibrate the kernel cost model in
``bench_e17_serving``.

The ``serving features`` rows time the feature kernel at wallbench
``bulk``'s shape: 1,015 pairs over 16 query rows and a 155-row
reference store (3 columns, dim 40).  One row hands the kernel each
side's distinct rows plus a per-pair index (norms and unit vectors per
distinct row), the other the per-pair stacks; both equal the per-pair
loop bit for bit.

The ``sif embed`` rows time SIF tuple and per-column embedding over a
vocabulary of ~1,000 tokens, the size at which a per-record cost that
grows with the vocabulary shows: once as two calls (``embed`` +
``embed_columns``) and once as the one token pass that makes both.

The ``token pass`` rows time one batched token pass
(``TupleEmbedder.embed_many_with_columns``, SIF with subword back-off)
over the same 96 records in batches of 1, 4 and 16 records, the
shapes serving embeds, each beside the frozen per-record reference
(``tests/embeddings/reference_token_pass.py``) over the same batches.

The ``fd repair`` rows time minimal FD repair of one 2,000-row slice
shaped like the gateway's ``clean`` requests: one FD, ~15 % of rows
disagreeing with their group's majority.  One row repairs through
``FDRepairer``, the other through the frozen per-row reference scan
(``tests/cleaning/reference_fd_scans.py``); both must give the same
table and repairs.  The ``clean group`` row times
``CleanRouter.handle_group`` over four such slices, the group the
gateway hands its clean route, answers included.

The ``score cache`` rows time one ``bulk`` batch's score-cache traffic:
1,015 never-seen pair keys (16 query keys x ~63 candidates) consulted and
written back against a full 4,096-entry cache, once as one
``get_many`` + one ``put_many`` and once as the per-key ``get``/``put``
loop.  Both must leave the same entries, recency order and stats.

The ``shard candidates`` and ``shard embeddings`` rows time two stages
of a 4x2 ``ShardedMatchService`` batch on 4 never-seen records over 3
home shards, the shape of a ``gateway`` match batch: the candidate
stage with each key hashed once (``BlockingIndex.band_keys``) and looked
up on every shard, and the embedding stage on cold tiers with one token
pass for the batch.  Each sits beside the frozen parent stage
(``tests/serve/reference_pipeline.py``: every shard hashes each key;
one pass per home shard), and both must give the same candidates,
embeddings and column stacks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleaning import FDRepairer
from repro.data import FunctionalDependency, Table
from repro.embeddings import TupleEmbedder
from repro.er import DeepER, LSHBlocker, pair_features
from repro.gateway import CleanRouter, GatewayRequest
from repro.kernels import PairSide, pair_feature_matrix
from repro.kernels.reference import _pair_feature_row
from repro.nn import Adam, LSTM, Tensor, bce_with_logits, mlp
from repro.serve import BlockingIndex, ShardedMatchService
from repro.serve.cache import LRUCache, content_key
from repro.text import SkipGram, SubwordEmbeddings

from tests.cleaning.reference_fd_scans import reference_repair
from tests.embeddings import reference_token_pass
from tests.serve import reference_pipeline


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_micro_mlp_train_step(benchmark, rng):
    """One forward+backward+update step of a 64→64→1 MLP on 256 rows."""
    net = mlp([64, 64, 1], rng=0)
    optimizer = Adam(net.parameters(), lr=1e-3)
    x = Tensor(rng.normal(size=(256, 64)))
    y = (rng.random((256, 1)) < 0.5).astype(float)

    def step():
        loss = bce_with_logits(net(x), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_micro_lstm_forward_backward(benchmark, rng):
    """Forward+backward through a 32-step LSTM, batch 32, width 32."""
    lstm = LSTM(32, 32, rng=0)
    x = Tensor(rng.normal(size=(32, 32, 32)))

    def step():
        _, last = lstm(x)
        loss = (last * last).mean()
        lstm.zero_grad()
        loss.backward()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_micro_sgns_epoch(benchmark, rng):
    """One SGNS epoch over ~2k tokens (vocab ~100)."""
    vocab = [f"w{i}" for i in range(100)]
    documents = [
        [vocab[int(rng.integers(100))] for _ in range(20)] for _ in range(100)
    ]
    model = SkipGram(dim=32, window=4, epochs=1, rng=0)

    def run():
        return model.fit(documents)

    benchmark(run)
    assert len(model.vocabulary) == 100


@pytest.mark.parametrize("n_rows", [64, 320])
def test_micro_sgns_scaled_update(benchmark, n_rows):
    """One SGNS per-row averaged update at wallbench's set-up shapes.

    A 922 x 40 matrix, as ``wallbench``'s word vectors; 64 rows is a batch
    of centers or positive contexts, 320 its 5 negatives per pair, drawn
    from a unigram^0.75-like table so hot rows repeat.
    """
    gen = np.random.default_rng(26)
    weights = 1.0 / np.arange(1, 923) ** 0.75
    rows = gen.choice(922, size=n_rows, p=weights / weights.sum())
    grads = gen.normal(0.0, 0.01, size=(n_rows, 40))
    matrix = (gen.random((922, 40)) - 0.5) / 40
    model = SkipGram(dim=40)

    benchmark(model._scaled_update, matrix, rows, grads, 0.05)
    assert np.isfinite(matrix).all()


def test_micro_lsh_candidates(benchmark, rng):
    """Whitened LSH candidate generation over 500×500 embeddings."""
    emb_a = rng.normal(size=(500, 40))
    emb_b = emb_a + rng.normal(0, 0.1, size=emb_a.shape)
    ids_a = [f"a{i}" for i in range(500)]
    ids_b = [f"b{i}" for i in range(500)]

    def run():
        blocker = LSHBlocker(n_bits=64, n_bands=16, rng=0)
        return blocker.candidate_pairs(emb_a, ids_a, emb_b, ids_b)

    candidates = benchmark(run)
    assert len(candidates) > 0


def test_micro_pair_featurisation(benchmark):
    """Hand-crafted feature extraction for 200 record pairs."""
    record_a = {"title": "holistic query optimization 77", "authors": "david johnson"}
    record_b = {"title": "holistic optimization query 77", "authors": "d. johnson"}

    def run():
        return [
            pair_features(record_a, record_b, ["title", "authors"])
            for _ in range(200)
        ]

    features = benchmark(run)
    assert len(features) == 200


@pytest.fixture(scope="module")
def scoring_setup():
    """A SIF DeepER embedder plus 200 deterministic record pairs.

    40 distinct records appear across the 200 pairs — the repeat-heavy
    shape the serving workload has, which is exactly what the kernel's
    content-addressed dedup exploits and the per-pair loop cannot.
    """
    gen = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(120)]
    documents = [
        [vocab[int(gen.integers(120))] for _ in range(12)] for _ in range(160)
    ]
    model = SkipGram(dim=24, window=4, epochs=2, rng=0).fit(documents)

    def record(i: int) -> dict:
        return {
            "title": " ".join(vocab[(i * 3 + j) % 120] for j in range(6)),
            "authors": " ".join(vocab[(i * 5 + j) % 120] for j in range(3)),
        }

    distinct = [record(i) for i in range(40)]
    pairs = [(distinct[i % 40], distinct[(i * 7) % 40]) for i in range(200)]
    matcher = DeepER(model, ["title", "authors"], composition="sif", rng=0)
    return matcher, pairs


def _loop_features(pairs, embedder) -> np.ndarray:
    return np.array([_pair_feature_row(pair, embedder) for pair in pairs])


def test_micro_pair_scoring_loop(benchmark, scoring_setup):
    """DeepER featurisation of 200 pairs via the per-pair loop (before)."""
    matcher, pairs = scoring_setup

    features = benchmark(_loop_features, pairs, matcher.embedder)
    assert features.shape[0] == 200


def test_micro_pair_scoring_kernel(benchmark, scoring_setup):
    """The same 200 pairs through the batched kernel (after) — and the
    two paths must agree bit-for-bit, which is the whole contract."""
    matcher, pairs = scoring_setup

    features = benchmark(matcher._pair_features_numpy, pairs)
    assert features.shape[0] == 200
    assert np.array_equal(features, _loop_features(pairs, matcher.embedder))


class _RowsEmbedder:
    """A record is a ``(rows, i)`` handle; its column stack is ``rows[i]``."""

    @staticmethod
    def embed_columns(record):
        rows, i = record
        return rows[i]


@pytest.fixture(scope="module")
def serving_batch():
    """``bulk``'s scoring call: 16 query rows x ~64 candidates each
    (1,015 pairs) over a 155-row store, in canonical (query-major) order."""
    gen = np.random.default_rng(17)
    queries = gen.normal(size=(16, 3, 40))
    store = gen.normal(size=(155, 3, 40))
    query_index = np.repeat(np.arange(16), 64)[:1015]
    reference_index = np.concatenate(
        [np.sort(gen.choice(155, size=64, replace=False)) for _ in range(16)]
    )[:1015]
    loop = np.array([
        _pair_feature_row(((queries, q), (store, r)), _RowsEmbedder)
        for q, r in zip(query_index, reference_index)
    ])
    return queries, store, query_index, reference_index, loop


def test_micro_serving_features(benchmark, serving_batch):
    """Feature kernel over distinct rows + per-pair indices (per call)."""
    queries, store, query_index, reference_index, loop = serving_batch

    def run():
        place: dict[int, int] = {}
        local = [place.setdefault(int(r), len(place)) for r in reference_index]
        return pair_feature_matrix(
            PairSide(queries, query_index),
            PairSide(store[list(place)], np.array(local)),
        )

    features = benchmark(run)
    assert np.array_equal(features, loop)


def test_micro_serving_features_per_pair(benchmark, serving_batch):
    """The same call over per-pair stacks: every pair's query and store
    row gathered first (per call)."""
    queries, store, query_index, reference_index, loop = serving_batch
    query_list = list(queries)

    def run():
        u_cols = np.array([query_list[q] for q in query_index])
        return pair_feature_matrix(u_cols, store[reference_index])

    features = benchmark(run)
    assert np.array_equal(features, loop)


@pytest.fixture(scope="module")
def sif_setup():
    """A SIF embedder over a 1,000-token vocabulary plus 100 records.

    Every token occurs at least once and a Zipf tail repeats some of
    them, so p(w) varies; each record also carries one never-seen token,
    as typo'd serving traffic does.
    """
    gen = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(1000)]
    documents = [vocab[start:start + 10] for start in range(0, 1000, 10)]
    documents += [
        [vocab[min(int(gen.zipf(1.3)), 1000) - 1] for _ in range(10)]
        for _ in range(200)
    ]
    model = SkipGram(dim=24, window=4, epochs=1, rng=0).fit(documents)
    records = [
        {
            "title": " ".join(vocab[(i * 7 + j * 13) % 1000] for j in range(6)),
            "authors": " ".join(vocab[(i * 11 + j) % 1000] for j in range(2))
            + f" unseen{i}",
        }
        for i in range(100)
    ]
    return TupleEmbedder(model, ["title", "authors"], method="sif"), records


def test_micro_sif_embed(benchmark, sif_setup):
    """SIF ``embed`` + ``embed_columns`` of 100 records (÷100 per record)."""
    embedder, records = sif_setup

    def run():
        return [(embedder.embed(r), embedder.embed_columns(r)) for r in records]

    embedded = benchmark(run)
    assert len(embedded) == 100
    assert len(embedder.model.vocabulary) == 1000


def test_micro_sif_embed_fused(benchmark, sif_setup):
    """The same 100 records through ``embed_with_columns``: one token
    pass makes both outputs, bit-identical to the two calls."""
    embedder, records = sif_setup

    def run():
        return [embedder.embed_with_columns(r) for r in records]

    embedded = benchmark(run)
    for record, (vector, columns) in zip(records, embedded):
        assert np.array_equal(vector, embedder.embed(record))
        assert np.array_equal(columns, embedder.embed_columns(record))


@pytest.fixture(scope="module")
def pass_setup(sif_setup):
    """``sif_setup``'s model and records with subword back-off."""
    embedder, records = sif_setup
    subword = SubwordEmbeddings(embedder.model)
    backed_off = TupleEmbedder(
        embedder.model, embedder.columns, method="sif", vector_fn=subword.vector
    )
    return backed_off, records[:96]


@pytest.mark.parametrize("size", [1, 4, 16])
def test_micro_token_pass(benchmark, pass_setup, size):
    """96 records, one pass per ``size``-record batch (÷96 per record)."""
    embedder, records = pass_setup
    batches = [records[i:i + size] for i in range(0, len(records), size)]

    def run():
        return [embedder.embed_many_with_columns(batch) for batch in batches]

    passes = benchmark(run)
    for batch, (vectors, stacks) in zip(batches, passes):
        for record, vector, stack in zip(batch, vectors, stacks):
            want_vector, want_stack = reference_token_pass.embed_with_columns(embedder, record)
            assert vector.tobytes() == want_vector.tobytes()
            assert stack.tobytes() == want_stack.tobytes()


@pytest.mark.parametrize("size", [1, 4, 16])
def test_micro_token_pass_reference(benchmark, pass_setup, size):
    """The same batches through the per-record reference (÷96 per record)."""
    embedder, records = pass_setup
    batches = [records[i:i + size] for i in range(0, len(records), size)]

    def run():
        return [
            [reference_token_pass.embed_with_columns(embedder, record) for record in batch]
            for batch in batches
        ]

    assert sum(len(rows) for rows in benchmark(run)) == len(records)


DEPT_FD = FunctionalDependency(("dept_id",), "dept_name")


def _clean_slice(seed: int, table_name: str) -> Table:
    """2,000 rows x 4 columns; ``dept_id -> dept_name`` fails on ~15 % of rows."""
    gen = np.random.default_rng(seed)
    rows = []
    for i in range(2000):
        dept = int(gen.integers(12))
        divergent = gen.random() < 0.15
        name = f"dept-x{int(gen.integers(5))}" if divergent else f"dept-{dept}"
        rows.append([f"s{i}", f"D{dept}", name, f"city-{int(gen.integers(6))}"])
    return Table(table_name, ["record_id", "dept_id", "dept_name", "city"], rows)


@pytest.fixture(scope="module")
def fd_slice():
    return _clean_slice(3, "slice")


def test_micro_fd_repair(benchmark, fd_slice):
    """Majority-vote repair of the slice's one FD (per repair call)."""
    repaired, report = benchmark(FDRepairer([DEPT_FD]).repair, fd_slice)
    assert DEPT_FD.holds(repaired)
    assert 200 < len(report) < 400


def test_micro_fd_repair_reference(benchmark, fd_slice):
    """The same repair through the per-row reference scan (per repair call)."""
    repaired, report = benchmark(reference_repair, [DEPT_FD], fd_slice, 3)
    want, want_report = FDRepairer([DEPT_FD]).repair(fd_slice)
    assert repaired.equals(want)
    assert report.repairs == want_report.repairs


@pytest.fixture(scope="module")
def clean_group():
    """Four slices as four clean requests: one gateway group's worth."""
    return tuple(
        GatewayRequest(
            request_id=i, tenant="etl", route="clean", priority="batch",
            payload={"table": _clean_slice(3 + i, f"slice_{i}")},
        )
        for i in range(4)
    )


def test_micro_clean_group(benchmark, clean_group):
    """``CleanRouter.handle_group`` over the four slices (per group)."""
    outcome = benchmark(CleanRouter(FDRepairer([DEPT_FD])).handle_group, clean_group)
    for request, answer in zip(clean_group, outcome.answers):
        _, report = reference_repair([DEPT_FD], request.payload["table"], 3)
        assert answer["repaired_cells"] == sorted(map(list, report.cells()))


@pytest.fixture(scope="module")
def score_traffic():
    """A full 4,096-entry score cache and one ``bulk`` batch of misses.

    Pair keys are (content key, candidate id), each query key with ~63
    sorted candidates out of a 155-row table, as ``bulk`` sends them.
    Returns a factory for the full cache, the batch's keys and scores,
    and the state the per-key loop leaves.
    """
    gen = np.random.default_rng(23)

    def batch(tag):
        keys = [content_key({"record": f"{tag}-{i}"}) for i in range(16)]
        return [
            (key, f"c{c:04d}")
            for key in keys
            for c in np.sort(gen.choice(155, size=64, replace=False))
        ][:1015]

    history = [pair for tag in range(5) for pair in batch(f"old{tag}")][-4096:]
    pairs = batch("new")
    scores = gen.random(len(pairs)).tolist()

    def full_cache():
        cache = LRUCache(4096, name="score")
        for pair in history:
            cache.put(pair, 0.5)
        cache.stats.inserts = cache.stats.evictions = 0
        return cache

    expected = full_cache()
    consult_and_write_per_key(expected, pairs, scores)
    return full_cache, pairs, scores, expected


def consult_and_write_per_key(cache, pairs, scores):
    for pair in pairs:
        cache.get(pair)
    for pair, score in zip(pairs, scores):
        cache.put(pair, score)
    return cache


def consult_and_write_batch(cache, pairs, scores):
    cache.get_many(pairs)
    cache.put_many(pairs, scores)
    return cache


def assert_same_cache(got, want):
    assert got.keys() == want.keys()
    assert [got.peek(k) for k in got.keys()] == [want.peek(k) for k in want.keys()]
    assert got.stats == want.stats


def test_micro_score_cache(benchmark, score_traffic):
    """One batch's consult + write-back as one get_many + one put_many."""
    full_cache, pairs, scores, expected = score_traffic
    cache = benchmark.pedantic(
        consult_and_write_batch,
        setup=lambda: ((full_cache(), pairs, scores), {}),
        rounds=100,
    )
    assert_same_cache(cache, expected)


def test_micro_score_cache_per_key(benchmark, score_traffic):
    """The same traffic as 1,015 gets then 1,015 puts, one key at a time."""
    full_cache, pairs, scores, expected = score_traffic
    cache = benchmark.pedantic(
        consult_and_write_per_key,
        setup=lambda: ((full_cache(), pairs, scores), {}),
        rounds=100,
    )
    assert_same_cache(cache, expected)


@pytest.fixture(scope="module")
def shard_batch(pass_setup):
    """A 4x2 sharded service over 80 of ``pass_setup``'s records and a
    batch of 4 never-seen records spread over 3 home shards, the shape of
    a ``gateway`` match batch.

    Returns the service, the batch's ``(key, record)`` lists per home
    shard, its keys in order and their embeddings.
    """
    embedder, records = pass_setup
    reference, queries = records[:80], records[80:84]
    train = [(r, r, 1) for r in reference[:20]] + [
        (a, b, 0) for a, b in zip(reference[:40], reference[40:])
    ]
    matcher = DeepER(
        embedder.model, embedder.columns, composition="sif",
        vector_fn=embedder.vector_fn, rng=0,
    ).fit(train, epochs=2)
    index = BlockingIndex(matcher.embedder, n_bits=32, n_bands=8, rng=0).build(
        reference, [f"r{i:03d}" for i in range(len(reference))]
    )
    service = ShardedMatchService(matcher, index, n_shards=4, replicas=2)
    keys = [content_key(record) for record in queries]
    by_home = reference_pipeline.keyed_by_home(
        keys, dict(zip(keys, service._route(keys))), dict(zip(keys, queries))
    )
    assert len(by_home) == 3
    embeddings = dict(zip(keys, index.embed_queries(queries)))
    return service, by_home, keys, embeddings


def test_micro_shard_candidates(benchmark, shard_batch):
    """The 4-shard candidate stage: each key's band keys made once, then
    every shard's ``candidate_map`` looks them up (per batch)."""
    service, _, keys, embeddings = shard_batch
    index = service.groups[0].primary.index

    def run():
        band_keys = {key: index.band_keys(embeddings[key]) for key in keys}
        return [group.primary.candidate_map(band_keys, keys) for group in service.groups]

    got = benchmark(run)
    assert got == [
        reference_pipeline.candidate_map(group.primary, embeddings, keys)
        for group in service.groups
    ]
    assert any(any(local.values()) for local in got)


def test_micro_shard_candidates_reference(benchmark, shard_batch):
    """The same stage with every shard hashing each key inside its probe,
    the frozen parent stage (per batch)."""
    service, _, keys, embeddings = shard_batch
    benchmark(lambda: [
        reference_pipeline.candidate_map(group.primary, embeddings, keys)
        for group in service.groups
    ])


def _cold_embedding_stage(service, by_home):
    for group in service.groups:
        group.primary.embedding_cache.clear()
    return (service.groups, by_home), {}


def test_micro_shard_embeddings(benchmark, shard_batch):
    """The 4-shard embedding stage on cold tiers: lookups on each home
    shard, one token pass for the batch, inserts (per batch)."""
    service, by_home, keys, _ = shard_batch
    got = benchmark.pedantic(
        service._embed_batch,
        setup=lambda: _cold_embedding_stage(service, by_home),
        rounds=300,
    )
    _cold_embedding_stage(service, by_home)
    want = reference_pipeline.embed_stage(service, service.groups, by_home)
    assert [got[0][key].tobytes() for key in keys] == [want[0][key].tobytes() for key in keys]
    assert [got[2][key].tobytes() for key in keys] == [want[2][key].tobytes() for key in keys]
    assert got[1:2] + got[3:] == want[1:2] + want[3:]


def test_micro_shard_embeddings_reference(benchmark, shard_batch):
    """The same stage with one token pass per home shard, the frozen
    parent stage (per batch)."""
    service, by_home, _, _ = shard_batch
    benchmark.pedantic(
        lambda groups, keyed: reference_pipeline.embed_stage(service, groups, keyed),
        setup=lambda: _cold_embedding_stage(service, by_home),
        rounds=300,
    )


# -- lint engine: cold parse vs warm cache ------------------------------------
#
# The `repro-lint` incremental cache is a perf feature with a correctness
# contract: a warm run may skip every parse, but its findings must be
# byte-identical to a cold run's, and independent of the `jobs=` fan-out.
# These rows time both phases over the lint+faults packages (big enough
# to exercise the project graph, small enough for multi-round timing)
# and assert the contract on every run.

import json
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.report import render_json

_REPO_ROOT = Path(__file__).resolve().parent.parent
_LINT_TARGETS = [_REPO_ROOT / "src" / "repro" / "lint",
                 _REPO_ROOT / "src" / "repro" / "faults"]


def _lint_findings(cache_path, jobs=1):
    result = lint_paths(
        _LINT_TARGETS, root=_REPO_ROOT, cache_path=cache_path, jobs=jobs,
    )
    return json.loads(render_json(result))["findings"], result


def test_micro_lint_cold(benchmark, tmp_path):
    """Cold lint of the lint+faults packages: parse + rules + graph."""
    cache = tmp_path / "lint-cache.json"

    def setup():
        if cache.exists():
            cache.unlink()
        return (), {}

    findings, result = benchmark.pedantic(
        lambda: _lint_findings(cache), setup=setup, rounds=3,
    )
    assert result.files_reused == 0
    assert result.files_checked > 10


def test_micro_lint_warm(benchmark, tmp_path):
    """Warm lint off the cache: hash check + project graph, no parsing.

    Asserts the cache contract: warm findings are byte-identical to the
    cold run's and independent of the per-file fan-out.
    """
    cache = tmp_path / "lint-cache.json"
    cold_findings, cold = _lint_findings(cache)
    assert cold.files_reused == 0

    findings, result = benchmark(lambda: _lint_findings(cache))
    assert result.files_reused == result.files_checked == cold.files_checked
    assert findings == cold_findings

    fanned_cache = tmp_path / "lint-cache-j2.json"
    fanned_findings, _ = _lint_findings(fanned_cache, jobs=2)
    assert fanned_findings == cold_findings
