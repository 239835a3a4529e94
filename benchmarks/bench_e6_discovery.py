"""E6 — semantic vs syntactic schema matching + dataset search (§5.1).

Claims: the embedding semantic matcher (with coherent groups) (a) surfaces
links "previously unknown" that syntactic matchers miss (no shared
strings, e.g. ``work_city`` ↔ ``location_town``), (b) discards spurious
syntactic matches (the paper's ``biopsy site`` / ``site_components``
example — here the ``site_parts`` trap table), and (c) powers a
Google-style dataset search that answers vocabulary-disjoint queries
lexical engines score zero on.

Expected shape: semantic link F1 > syntactic link F1 under 1:1 matching;
embedding-search MRR > TF-IDF/BM25 MRR on paraphrased queries.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import format_table, profile_config
from repro.data import Table, World
from repro.discovery import (
    BM25SearchEngine,
    EmbeddingSearchEngine,
    SemanticMatcher,
    SyntacticMatcher,
    TfIdfSearchEngine,
    centered_vector_fn,
    evaluate_links,
    mean_reciprocal_rank,
    one_to_one,
)
from repro.text import SkipGram, SubwordEmbeddings

_P = {
    "full": dict(corpus=2500, schema_reps=40, sg_epochs=12, lake_rows=40),
    "smoke": dict(corpus=600, schema_reps=10, sg_epochs=4, lake_rows=15),
}


def _enterprise(seed: int = 0):
    """Tables + gold semantic links + a spurious-syntactic trap table."""
    world = World(seed)
    people = world.people(80)
    staff = Table.from_records("staff_records", [
        {"sid": p.person_id, "full_name": p.name, "work_city": p.city,
         "dept": p.department_name} for p in people[:40]
    ])
    directory = Table.from_records("person_directory", [
        {"pid": p.person_id, "person": p.name, "location_town": p.city,
         "division": p.department_name} for p in people[40:]
    ])
    sites = Table.from_records("site_parts", [
        {"site_id": f"s{i}", "site_component": f"part {i}", "weight": i}
        for i in range(30)
    ])
    gold = {
        ("staff_records", "full_name", "person_directory", "person"),
        ("staff_records", "work_city", "person_directory", "location_town"),
        ("staff_records", "dept", "person_directory", "division"),
        ("staff_records", "sid", "person_directory", "pid"),
    }
    return staff, directory, sites, gold


def _embeddings(seed: int = 0, corpus_sentences: int = 2500,
                schema_reps: int = 40, sg_epochs: int = 12):
    """World corpus + light schema-term co-occurrence documents.

    The schema documents stand in for the enterprise documentation /
    glossaries a real deployment would pre-train on (DESIGN.md
    substitution), linking synonymous schema words.
    """
    world = World(seed)
    corpus = world.corpus(corpus_sentences)
    schema_docs = [
        ["full", "name", "person", "people", "employee", "staff"],
        ["work", "city", "location", "town", "place"],
        ["dept", "division", "department", "unit"],
        ["sid", "pid", "id", "identifier"],
        ["site", "component", "part", "weight"],
    ] * schema_reps
    model = SkipGram(dim=40, window=6, epochs=sg_epochs, rng=0).fit(corpus + schema_docs)
    return model, SubwordEmbeddings(model)


def run_experiment(profile: str = "full", jobs: int = 1) -> list[dict]:
    cfg = profile_config(_P, profile)
    staff, directory, sites, gold = _enterprise()
    model, subword = _embeddings(
        corpus_sentences=cfg["corpus"], schema_reps=cfg["schema_reps"],
        sg_epochs=cfg["sg_epochs"],
    )
    vector_fn = centered_vector_fn(model, subword.vector)
    rows = []

    semantic = SemanticMatcher(vector_fn, model.dim, name_weight=0.5)
    syntactic = SyntacticMatcher(name_weight=0.5)
    for name, matcher, threshold in [
        ("semantic (coherent groups)", semantic, 0.35),
        ("syntactic (edit+overlap)", syntactic, 0.35),
    ]:
        # jobs is forwarded for the run_all --jobs contract, though no
        # family gains from it (EXPERIMENTS.md, "repro.par call sites"):
        # the semantic matcher's centered vector_fn closure is
        # unpicklable, so that family takes repro.par's serial fallback.
        links = matcher.match_tables(staff, directory, threshold=threshold, jobs=jobs)
        links += matcher.match_tables(staff, sites, threshold=threshold, jobs=jobs)
        links = one_to_one(links)
        metrics = evaluate_links(links, gold)
        spurious = sum(1 for link in links if link.table_b == "site_parts")
        rows.append({
            "matcher": name, "precision": metrics["precision"],
            "recall": metrics["recall"], "f1": metrics["f1"],
            "spurious_site_links": spurious,
        })

    # Search: paraphrased analyst queries that share no tokens with the
    # target tables — only the corpus knows the words co-occur.
    world = World(0)
    lake_rows = cfg["lake_rows"]
    lake = [
        Table.from_records("restaurant_guide", world.restaurants(lake_rows)),
        Table.from_records("paper_index", world.citations(lake_rows)),
        Table.from_records("product_catalog", world.products(lake_rows)),
        staff,
    ]
    queries = [
        ("served downtown popular", "restaurant_guide"),
        ("researchers presented conference", "paper_index"),
        ("released new great", "product_catalog"),
        ("hired department staff", "staff_records"),
    ]
    engines = {
        "embedding": EmbeddingSearchEngine(vector_fn, model.dim),
        "tfidf": TfIdfSearchEngine(),
        "bm25": BM25SearchEngine(),
    }
    for name, engine in engines.items():
        engine.add_tables(lake)
        rows.append({
            "matcher": f"search:{name}",
            "precision": float("nan"), "recall": float("nan"),
            "f1": mean_reciprocal_rank(engine, queries),
            "spurious_site_links": -1,
        })
    return rows


def test_e6_discovery(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(format_table(rows, "E6: discovery — link F1 / search MRR"))
    by_name = {r["matcher"]: r for r in rows}
    semantic = by_name["semantic (coherent groups)"]
    syntactic = by_name["syntactic (edit+overlap)"]
    assert semantic["f1"] > syntactic["f1"]
    assert semantic["recall"] >= 0.75
    # Paraphrase queries: only the embedding engine resolves them.
    assert by_name["search:embedding"]["f1"] > by_name["search:bm25"]["f1"]
    assert by_name["search:embedding"]["f1"] > by_name["search:tfidf"]["f1"]
    assert by_name["search:embedding"]["f1"] >= 0.5


if __name__ == "__main__":
    print(format_table(run_experiment(), "E6: discovery"))
