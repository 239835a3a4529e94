"""Shared helpers for the experiment benches (E1-E16).

Each bench module exposes ``run_experiment(profile="full") -> list[dict]``
producing the rows of its results table, plus a pytest-benchmark test that
times the core computation once and asserts the expected *shape* (who
wins, where the crossover falls).  The ``"smoke"`` profile shrinks every
knob to the smallest config that still exercises the full code path — the
tier-1 smoke suite and ``python -m benchmarks.run_all --profile smoke``
run it.  ``python -m benchmarks.run_all`` prints every table and emits a
machine-readable ``BENCH_<exp>.json`` per experiment via :func:`emit_bench`.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.data import EMBenchmark, World, citations_benchmark, products_benchmark, restaurants_benchmark
from repro.embeddings import tuple_documents
from repro.er import DeepER
from repro.obs.bench import build_record, write_record
from repro.obs.trace import Span
from repro.serve import BlockingIndex
from repro.text import SkipGram, SubwordEmbeddings

PROFILES = ("full", "smoke")


def profile_config(per_profile: dict[str, dict], profile: str) -> dict:
    """Pick a bench module's knob dict for ``profile`` (validated)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    return per_profile[profile]


def emit_bench(
    rows: list[dict],
    experiment_id: str,
    *,
    title: str | None = None,
    profile: str = "full",
    started_unix: float | None = None,
    wall_time_seconds: float | None = None,
    span: Span | None = None,
    metrics_snapshot: dict | None = None,
    out_dir: str | Path = ".",
) -> Path:
    """Write ``BENCH_<EXPERIMENT_ID>.json`` and return its path.

    The record bundles the result rows with wall time, the current metrics
    snapshot, the experiment's span tree and the git sha — one diffable
    artifact per experiment run (schema in :mod:`repro.obs.bench`).
    """
    record = build_record(
        rows,
        experiment_id,
        title=title,
        profile=profile,
        started_unix=started_unix,
        wall_time_seconds=wall_time_seconds,
        span=span,
        metrics_snapshot=metrics_snapshot,
    )
    return write_record(record, out_dir)


def format_table(rows: list[dict], title: str) -> str:
    """Render result rows as an aligned text table."""
    if not rows:
        return f"== {title} ==\n(no rows)"
    columns = list(rows[0])
    widths = {
        c: max(len(str(c)), max(len(_fmt(row.get(c))) for row in rows))
        for c in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    divider = "-" * len(header)
    lines = [f"== {title} ==", header, divider]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@lru_cache(maxsize=8)
def benchmark_with_embeddings(
    name: str = "citations",
    n_entities: int = 200,
    seed: int = 0,
    dim: int = 40,
    window: int = 8,
    epochs: int = 15,
    corpus_sentences: int = 800,
) -> tuple[EMBenchmark, SkipGram, SubwordEmbeddings]:
    """An EM benchmark plus word embeddings pre-trained on its tables and
    the world corpus (the transfer setup DeepER assumes)."""
    makers = {
        "citations": citations_benchmark,
        "products": products_benchmark,
        "restaurants": restaurants_benchmark,
    }
    bench = makers[name](n_entities=n_entities, rng=seed)
    documents = tuple_documents([bench.table_a, bench.table_b])
    word_documents = [
        [token for value in doc for token in str(value).split()] for doc in documents
    ]
    corpus = World(5).corpus(corpus_sentences)
    model = SkipGram(dim=dim, window=window, epochs=epochs, rng=0).fit(
        word_documents + corpus
    )
    subword = SubwordEmbeddings(model)
    return bench, model, subword


def profile_embeddings(
    name: str = "citations", profile: str = "full"
) -> tuple[EMBenchmark, SkipGram, SubwordEmbeddings]:
    """Profile-sized :func:`benchmark_with_embeddings` (cached per config)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if profile == "smoke":
        return benchmark_with_embeddings(
            name, n_entities=60, dim=24, window=6, epochs=5, corpus_sentences=200
        )
    return benchmark_with_embeddings(name, n_entities=200)


def benchmark_split(
    bench: EMBenchmark,
    negative_ratio: float = 5.0,
    train_fraction: float = 0.7,
    seed: int = 1,
):
    """Labelled train/test triples for an EM benchmark."""
    labeled = bench.labeled_pairs(negative_ratio=negative_ratio, rng=seed)
    triples = [
        (bench.record_a(a), bench.record_b(b), y) for a, b, y in labeled
    ]
    split = int(train_fraction * len(triples))
    train, test = triples[:split], triples[split:]
    test_pairs = [(a, b) for a, b, _ in test]
    test_labels = np.array([y for _, _, y in test])
    return train, test_pairs, test_labels


def records_and_ids(bench: EMBenchmark):
    """Row dicts + id lists for both tables of a benchmark."""
    records_a = [bench.table_a.row_dict(i) for i in range(len(bench.table_a))]
    records_b = [bench.table_b.row_dict(i) for i in range(len(bench.table_b))]
    ids_a = [str(v) for v in bench.table_a.column(bench.id_column)]
    ids_b = [str(v) for v in bench.table_b.column(bench.id_column)]
    return records_a, ids_a, records_b, ids_b


class ServedStack(NamedTuple):
    """What :func:`served_stack` builds: the matcher, its index and the
    data around them."""

    bench: EMBenchmark
    factory: Callable[[int], DeepER]  # an unfitted matcher per seed
    matcher: DeepER
    index: BlockingIndex
    records_b: list
    labels: list  # the (a, b, y) triples the matcher fitted on
    test_pairs: list
    test_labels: np.ndarray


def served_stack(profile: str, *, epochs: int, seed_train: int | None = None) -> ServedStack:
    """The stack E17, E18 and E19 serve, at ``profile``'s sizes.

    A SIF DeepER (seed 0) with subword back-off over the profile's
    citations embeddings, fitted for ``epochs`` on the first
    ``seed_train`` training triples (all of them by default), and a
    32-bit, 8-band LSH index over table A built with ``jobs=1``: by the
    :mod:`repro.par` contract a parallel build is bit-identical.

    Not cached here: each experiment caches its own, so what one
    experiment trains and counts never depends on what ran before it.
    """
    bench, model, subword = profile_embeddings("citations", profile)
    train, test_pairs, test_labels = benchmark_split(bench)
    labels = train[:seed_train]

    def factory(seed: int) -> DeepER:
        return DeepER(
            model, bench.compare_columns, composition="sif",
            vector_fn=subword.vector, rng=seed,
        )

    matcher = factory(0).fit(labels, epochs=epochs)
    records_a, ids_a, records_b, _ = records_and_ids(bench)
    index = BlockingIndex(
        matcher.embedder, n_bits=32, n_bands=8, rng=0
    ).build(records_a, ids_a, jobs=1)
    return ServedStack(
        bench, factory, matcher, index, records_b, labels, test_pairs, test_labels
    )
