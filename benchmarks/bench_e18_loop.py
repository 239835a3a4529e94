"""E18 — the continuous-curation loop: traffic that retrains the matcher.

E17 serves a frozen model; E18 closes the paper's loop (repro.loop):
each simulated day of traffic emits its low-confidence answers to a
deterministic labeling queue, the simulated crowd + the A2 active-
learning selector turn the day's labeling budget into training pairs, a
fresh candidate matcher trains on everything banked so far, and a
deterministic promotion rule (eval-set F1 delta ≥ threshold) decides
whether the service hot-swaps it — score cache invalidated, embedding
and column caches kept warm.

Each row is one simulated day of one scenario.  The expected shape:

* ``active_f1`` is **non-decreasing** over days (the promotion rule only
  ever moves the pointer to a better-scoring version) and strictly
  higher at the end than on day 1 — the matcher demonstrably learned
  from its own traffic;
* the sharded scenario's rows equal the unsharded scenario's rows
  column for column (scenario label aside): the loop's decisions are a
  pure function of the answer stream, and scatter-gather answers are
  byte-identical to the unsharded service's, so the *learning dynamics*
  are topology-invariant — same promotions, same fingerprints, same
  per-day ``answers_sha1``;
* rows are byte-identical across reruns, ``--jobs`` values and
  ``--chaos`` seeds (killed retrains and swaps recover bit-identically;
  the smoke tier pins this).
"""

from __future__ import annotations

from functools import lru_cache

from benchmarks.common import ServedStack, format_table, profile_config, served_stack
from repro.loop import ContinuousCurationLoop, CrowdOracle, LoopConfig
from repro.serve import MatchService, ServerConfig, ShardedMatchService

_P = {
    "full": dict(
        days=5,
        n_queries=150,
        rate=300.0,
        repeat_fraction=0.4,
        workload_seed=5,
        seed_train=12,
        seed_epochs=5,
        epochs=10,
        labels_per_day=24,
        al_batch=8,
        band=(0.2, 0.8),
        min_f1_delta=0.01,
        crowd_seed=3,
        shards=4,
        max_batch_size=8,
        max_wait=0.004,
        max_queue=512,
        embedding_cache=1024,
        score_cache=4096,
    ),
    "smoke": dict(
        days=3,
        n_queries=50,
        rate=300.0,
        repeat_fraction=0.4,
        workload_seed=5,
        seed_train=10,
        seed_epochs=4,
        epochs=6,
        labels_per_day=12,
        al_batch=6,
        band=(0.2, 0.8),
        min_f1_delta=0.01,
        crowd_seed=3,
        shards=2,
        max_batch_size=8,
        max_wait=0.004,
        max_queue=512,
        embedding_cache=256,
        score_cache=1024,
    ),
}


@lru_cache(maxsize=2)
def _setup(profile: str) -> ServedStack:
    """Shared read-only assets: the served stack with its matcher fitted
    on the first ``seed_train`` training triples (the seed labels), plus
    its factory and eval set.

    Everything here is reused across scenarios and repeat runs — safe
    because the loop never mutates them: candidates are fresh objects,
    swaps only move service pointers, and the seed matcher is never
    refit.  Per-scenario state (service, queue, registry) is built fresh
    inside :func:`run_experiment`.
    """
    cfg = profile_config(_P, profile)
    return served_stack(profile, epochs=cfg["seed_epochs"], seed_train=cfg["seed_train"])


def _run_loop(scenario: str, service, stack: ServedStack, cfg) -> list[dict]:
    """One full loop run; returns its day rows tagged with ``scenario``."""
    bench = stack.bench
    id_column = bench.id_column

    def truth(entry) -> int:
        return int(bench.is_match(entry.candidate_id, str(entry.record[id_column])))

    loop = ContinuousCurationLoop(
        service,
        index=stack.index,
        matcher_factory=stack.factory,
        seed_labels=stack.labels,
        eval_pairs=stack.test_pairs,
        eval_labels=stack.test_labels,
        oracle=CrowdOracle(truth, seed=cfg["crowd_seed"]),
        query_records=stack.records_b,
        config=LoopConfig(
            days=cfg["days"],
            queries_per_day=cfg["n_queries"],
            rate=cfg["rate"],
            repeat_fraction=cfg["repeat_fraction"],
            workload_seed=cfg["workload_seed"],
            band=tuple(cfg["band"]),
            labels_per_day=cfg["labels_per_day"],
            al_batch_size=cfg["al_batch"],
            epochs=cfg["epochs"],
            min_f1_delta=cfg["min_f1_delta"],
        ),
        server=ServerConfig(
            max_batch_size=cfg["max_batch_size"],
            max_wait=cfg["max_wait"],
            max_queue=cfg["max_queue"],
        ),
    )
    rows = []
    for report in loop.run():
        row = {"scenario": scenario}
        row.update(report.to_dict())
        rows.append(row)
    return rows


def run_experiment(profile: str = "full", jobs: int = 1) -> list[dict]:
    cfg = profile_config(_P, profile)
    stack = _setup(profile)
    seed_matcher, index = stack.matcher, stack.index

    unsharded = MatchService(
        seed_matcher, index, jobs=jobs,
        embedding_cache_size=cfg["embedding_cache"],
        score_cache_size=cfg["score_cache"],
    )
    sharded = ShardedMatchService(
        seed_matcher, index, n_shards=cfg["shards"], replicas=2, jobs=jobs,
        embedding_cache_size=cfg["embedding_cache"],
        score_cache_size=cfg["score_cache"],
    )
    return (
        _run_loop("loop (unsharded)", unsharded, stack, cfg)
        + _run_loop(f"loop (sharded N={cfg['shards']})", sharded, stack, cfg)
    )


def test_e18_loop(benchmark):
    rows = benchmark.pedantic(run_experiment, kwargs={"profile": "smoke"},
                              rounds=1, iterations=1)
    print()
    print(format_table(rows, "E18: continuous curation loop"))
    cfg = _P["smoke"]
    by_scenario: dict[str, list[dict]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(row)
    assert len(by_scenario) == 2
    for scenario, days in by_scenario.items():
        assert [d["day"] for d in days] == list(range(1, cfg["days"] + 1))
        f1s = [d["active_f1"] for d in days]
        # Threshold-gated stepwise improvement: the promotion rule keeps
        # active F1 non-decreasing, and traffic must have taught the
        # matcher something by the final day.
        assert f1s == sorted(f1s)
        assert f1s[-1] > f1s[0]
        assert any(d["promoted"] for d in days)
        # Promotion and fingerprint move together.
        for d in days:
            assert (d["active_version"] != "v1") == any(
                e["promoted"] for e in days if e["day"] <= d["day"]
            )
        # The queue accounting is sane: labels are spent monotonically.
        labels = [d["labels_total"] for d in days]
        assert labels == sorted(labels)
    # Topology invariance of the learning dynamics: day-by-day equality
    # of everything but the scenario label between sharded and unsharded.
    unsharded, sharded = by_scenario.values()
    strip = lambda day_rows: [
        {k: v for k, v in row.items() if k != "scenario"} for row in day_rows
    ]
    assert strip(unsharded) == strip(sharded)


if __name__ == "__main__":
    print(format_table(run_experiment(), "E18: continuous curation loop"))
