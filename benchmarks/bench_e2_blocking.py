"""E2 — LSH blocking over tuple embeddings vs traditional blocking (§5.2).

Claim: the LSH scheme "takes all attributes of a tuple into consideration
and produces much smaller blocks, compared with traditional methods that
consider only few attributes".

Expected shape: at comparable pair completeness (blocking recall), LSH
candidates are fewer (higher reduction ratio) than single-attribute
blocking, and sweeping bits/bands traces the recall-vs-reduction frontier.

The ``×N`` stress rows scale the embedding space with deterministic
random fill (matches untouched) — the paper positions blocking as ER's
scalability bottleneck.  ``run_experiment(jobs=...)`` fans the LSH grid
out over :mod:`repro.par`, one row per task: the one call site measured
to gain at ``--jobs 2`` (EXPERIMENTS.md, "repro.par call sites").  Every
row carries its own blocking ``seconds``; the rest of each row is
bit-identical for every ``jobs`` value.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.common import (
    format_table,
    profile_config,
    profile_embeddings,
    records_and_ids,
)
from repro.embeddings import TupleEmbedder
from repro.er import (
    AttributeBlocker,
    LSHBlocker,
    TokenBlocker,
    pair_completeness,
    reduction_ratio,
)
from repro.par import pmap


_P = {
    "full": dict(
        lsh_grid=[(32, 4), (32, 8), (64, 16), (96, 16), (96, 12), (120, 24), (150, 25)],
        stress_scale=16,
        stress_grid=[(96, 12), (104, 13), (112, 16), (128, 16)],
    ),
    "smoke": dict(
        lsh_grid=[(32, 8), (64, 16)],
        stress_scale=2,
        stress_grid=[(32, 8)],
    ),
}


def _scaled(embeddings: np.ndarray, ids: list[str], scale: int, prefix: str,
            rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    """Grow one side of the blocking input ``scale``× with random fill.

    The fill is deterministic (seeded) noise at the embeddings' own
    standard deviation: realistic non-matching rows that stress bucket
    probing without touching the gold matches.
    """
    extra = rng.normal(0.0, embeddings.std(), size=((scale - 1) * len(embeddings), embeddings.shape[1]))
    extra_ids = [f"{prefix}{k}" for k in range(len(extra))]
    return np.concatenate([embeddings, extra]), ids + extra_ids


def _lsh_row(task: tuple) -> dict:
    """One LSH grid row (runs in a repro.par worker when jobs > 1)."""
    tag, n_bits, n_bands, emb_a, ids_a, emb_b, ids_b, matches = task
    started = time.perf_counter()
    blocker = LSHBlocker(n_bits=n_bits, n_bands=n_bands, rng=0)
    candidates = blocker.candidate_pairs(emb_a, ids_a, emb_b, ids_b)
    sizes = blocker.block_sizes(np.concatenate([emb_a, emb_b]))
    total = len(ids_a) * len(ids_b)
    return {
        "blocker": f"LSH {n_bits}b/{n_bands}bands{tag}",
        "candidates": len(candidates),
        "reduction": reduction_ratio(len(candidates), total),
        "completeness": pair_completeness(candidates, matches),
        "max_block": max(sizes),
        "seconds": time.perf_counter() - started,
    }


def run_experiment(profile: str = "full", jobs: int = 1) -> list[dict]:
    cfg = profile_config(_P, profile)
    bench, model, subword = profile_embeddings("citations", profile)
    records_a, ids_a, records_b, ids_b = records_and_ids(bench)
    embedder = TupleEmbedder(
        model, bench.compare_columns, method="sif", vector_fn=subword.vector
    )
    emb_a = embedder.embed_many(records_a)
    emb_b = embedder.embed_many(records_b)
    total = len(ids_a) * len(ids_b)

    scale = cfg["stress_scale"]
    fill_rng = np.random.default_rng(0)
    big_a, big_ids_a = _scaled(emb_a, ids_a, scale, "xa", fill_rng)
    big_b, big_ids_b = _scaled(emb_b, ids_b, scale, "xb", fill_rng)

    grid_tasks = [
        ("", bits, bands, emb_a, ids_a, emb_b, ids_b, bench.matches)
        for bits, bands in cfg["lsh_grid"]
    ] + [
        (f" ×{scale}", bits, bands, big_a, big_ids_a, big_b, big_ids_b, bench.matches)
        for bits, bands in cfg["stress_grid"]
    ]
    # One worker task per grid config: coarse-grained enough that pool
    # overhead is negligible next to the candidate generation it wraps.
    rows = pmap(_lsh_row, grid_tasks, jobs=jobs, chunk_size=1, label="e2.lsh_grid")

    for column in ("title", "authors"):
        blocker = AttributeBlocker(column)
        started = time.perf_counter()
        candidates = blocker.candidate_pairs(records_a, ids_a, records_b, ids_b)
        sizes = blocker.block_sizes(records_a + records_b)
        rows.append({
            "blocker": f"attribute({column})",
            "candidates": len(candidates),
            "reduction": reduction_ratio(len(candidates), total),
            "completeness": pair_completeness(candidates, bench.matches),
            "max_block": max(sizes) if sizes else 0,
            "seconds": time.perf_counter() - started,
        })

    token = TokenBlocker(bench.compare_columns, max_df=0.05)
    started = time.perf_counter()
    candidates = token.candidate_pairs(records_a, ids_a, records_b, ids_b)
    rows.append({
        "blocker": "token(rare, all cols)",
        "candidates": len(candidates),
        "reduction": reduction_ratio(len(candidates), total),
        "completeness": pair_completeness(candidates, bench.matches),
        "max_block": -1,
        "seconds": time.perf_counter() - started,
    })
    return rows


def test_e2_blocking(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(format_table(rows, "E2: blocking — reduction vs completeness"))
    lsh_rows = [r for r in rows if r["blocker"].startswith("LSH") and "×" not in r["blocker"]]
    attr_rows = [r for r in rows if r["blocker"].startswith("attribute")]
    # Robustness claim: because LSH hashes ALL attributes, its best config
    # must beat every single-attribute blocker on completeness while still
    # pruning a large share of the cross product.
    best_attr_pc = max(r["completeness"] for r in attr_rows)
    strong = [
        r for r in lsh_rows
        if r["completeness"] > best_attr_pc and r["reduction"] >= 0.4
    ]
    assert strong, "no LSH config beats attribute blocking completeness"
    # Banding trade-off: more bands at fixed bits => higher completeness.
    c4 = next(r for r in lsh_rows if r["blocker"] == "LSH 32b/4bands")
    c8 = next(r for r in lsh_rows if r["blocker"] == "LSH 32b/8bands")
    assert c8["completeness"] >= c4["completeness"]
    # Stress rows keep the gold matches findable in the scaled space.
    stress = [r for r in rows if "×" in r["blocker"]]
    assert stress and all(r["completeness"] > 0 for r in stress)


if __name__ == "__main__":
    print(format_table(run_experiment(), "E2: blocking"))
