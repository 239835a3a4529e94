"""E19 — the multi-tenant gateway over the whole curation stack.

PR-10 puts one deterministic front door (:mod:`repro.gateway`) over the
already-built components: match queries, FD-repair slices and schema-
discovery probes arrive as ``(tenant, route, priority, deadline)``
requests on the simulated clock, pass per-route token-bucket admission,
a two-class scheduler with deficit-round-robin tenant fairness, and a
backpressure valve that holds batch work back while the interactive
queue is above high water.

Three scenario groups, each replaying *one* generated request list so
the per-scenario ``answers_sha1`` can prove that policy changes *when*
work runs, never *what* it computes:

* **mixed tenants** — identical interactive-match + batch-clean/discover
  traffic under FIFO and under two-class priority.  Priority cuts the
  interactive p99 (no head-of-line blocking behind ~30-ms clean groups)
  at equal completed counts; the admission-shed set is identical because
  token buckets see only arrivals, never the scheduler.
* **fairness** — a greedy tenant offering ~4× the traffic of two modest
  tenants, all interactive.  Under FIFO the greedy tenant's share of the
  early completions tracks its arrival share (~2/3); DRR pins it near
  1/3, and a 2× DRR weight moves it to ~1/2 — the knob works in both
  directions.
* **retrain day** — diurnal interactive traffic plus a day-long stream
  of batch clean slices (re-curation modelled as data work, per the
  CleanRouter contract).  Without the valve, clean groups squeeze into
  every momentary idle gap mid-peak and drag the interactive median up;
  with high/low-water + cooldown, batch work shifts into the troughs and
  the interactive p50 stays near the no-retrain baseline.

The retrain-day rows replay *subsets of one request list* (the baseline
row simply omits the batch requests, keeping every match request id),
so one digest per scenario is meaningful across all its rows.

Every number is *simulated* time: rows are bit-identical across reruns,
``--jobs`` values and ``--chaos`` seeds (the gateway's fault sites are
recoverable by construction), which ``tests/test_bench_smoke.py``
asserts byte-for-byte.
"""

from __future__ import annotations

from functools import lru_cache

from benchmarks.common import format_table, profile_config, served_stack
from repro.cleaning.repair import FDRepairer
from repro.data.dependencies import FunctionalDependency
from repro.data.table import Table
from repro.discovery.matcher import SyntacticMatcher
from repro.gateway import (
    CleanRouter,
    DiscoverRouter,
    Gateway,
    GatewayConfig,
    MatchRouter,
    RequestStream,
    generate_requests,
)
from repro.serve import MatchService

_P = {
    "full": dict(
        epochs=12,
        embedding_cache=1024,
        score_cache=4096,
        max_batch_size=8,
        quantum=4.0,
        workload_seed=7,
        repeat_fraction=0.3,
        # mixed tenants (priority vs FIFO)
        mix_match_n=160, mix_match_rate=250.0,
        mix_clean_n=12, mix_clean_rate=40.0,
        mix_discover_n=6, mix_discover_rate=30.0,
        clean_admission=(25.0, 4),
        # fairness (greedy vs modest tenants)
        fair_greedy_n=120, fair_greedy_rate=2000.0,
        fair_modest_n=30, fair_modest_rate=500.0,
        greedy_weight=2.0,
        share_window=90,
        # retrain day (diurnal peaks + batch clean slices).  The full
        # service prices a match group ~4x the smoke one, so the peak
        # rate is profile-specific: ~0.7 utilization at peak, so the
        # no-retrain baseline has headroom and any p50 movement is the
        # retrain stream's fault, not plain overload.
        day_match_n=320, day_match_rate=50.0,
        day_phases=((0.25, 4.0), (0.25, 0.25)),
        day_clean_n=96, day_clean_rate=100.0,
        high_water=3, low_water=0, cooldown=0.03,
    ),
    "smoke": dict(
        epochs=4,
        embedding_cache=256,
        score_cache=1024,
        max_batch_size=8,
        quantum=4.0,
        workload_seed=7,
        repeat_fraction=0.3,
        mix_match_n=80, mix_match_rate=250.0,
        mix_clean_n=8, mix_clean_rate=40.0,
        mix_discover_n=4, mix_discover_rate=30.0,
        clean_admission=(25.0, 4),
        fair_greedy_n=60, fair_greedy_rate=2000.0,
        fair_modest_n=16, fair_modest_rate=500.0,
        greedy_weight=2.0,
        share_window=46,
        day_match_n=200, day_match_rate=150.0,
        day_phases=((0.25, 4.0), (0.25, 0.25)),
        day_clean_n=24, day_clean_rate=100.0,
        high_water=3, low_water=0, cooldown=0.03,
    ),
}

_FDS = [FunctionalDependency(("dept_id",), "dept_name")]


def _dirty_slice(slice_id: int, n_rows: int = 96) -> Table:
    """A deterministic FD-violating slice (no RNG: pure index arithmetic).

    ``dept_id -> dept_name`` holds for the majority of each group; every
    7th row carries a divergent name, so majority-vote repair has real
    work and a stable answer.
    """
    rows = []
    for i in range(n_rows):
        dept = (i + slice_id) % 6
        name = f"dept-x{(i + slice_id) % 5}" if i % 7 == 3 else f"dept-{dept}"
        rows.append([
            f"r{slice_id}-{i}", f"D{dept}", name, f"city-{(i + slice_id) % 4}",
        ])
    return Table(
        f"slice_{slice_id}",
        ["record_id", "dept_id", "dept_name", "city"],
        rows,
    )


def _reference_table() -> Table:
    """The clean reference relation discover payloads are matched against."""
    rows = [
        [f"r{i}", f"D{i % 6}", f"dept-{i % 6}", f"city-{i % 4}"]
        for i in range(48)
    ]
    return Table(
        "curated_departments",
        ["record_id", "dept_id", "dept_name", "city"],
        rows,
    )


def _probe_table(probe_id: int) -> Table:
    """A renamed-column variant of the reference, as a discovery probe."""
    rows = [
        [f"p{probe_id}-{i}", f"D{(i + probe_id) % 6}",
         f"dept-{(i + probe_id) % 6}", f"city-{(i + probe_id) % 4}"]
        for i in range(24)
    ]
    return Table(
        f"probe_{probe_id}",
        ["id", "department_id", "department_name", "town"],
        rows,
    )


@lru_cache(maxsize=2)
def _setup(profile: str):
    """Trained matcher + built index + payload pools, cached per profile.

    The served stack fitted on every training triple, as in E17; the
    clean/discover payload pools are deterministic synthetic tables, so
    the whole setup is a pure function of the profile.
    """
    stack = served_stack(profile, epochs=profile_config(_P, profile)["epochs"])
    match_payloads = tuple({"record": record} for record in stack.records_b)
    clean_payloads = tuple({"table": _dirty_slice(i)} for i in range(4))
    probe_payloads = tuple({"table": _probe_table(i)} for i in range(3))
    return stack.matcher, stack.index, match_payloads, clean_payloads, probe_payloads


def _gateway(matcher, index, cfg, config: GatewayConfig, jobs: int) -> Gateway:
    """A fresh gateway (fresh service → cold caches) for one scenario row."""
    service = MatchService(
        matcher, index, jobs=jobs,
        embedding_cache_size=cfg["embedding_cache"],
        score_cache_size=cfg["score_cache"],
    )
    routers = [
        MatchRouter(service),
        CleanRouter(FDRepairer(_FDS)),
        DiscoverRouter(SyntacticMatcher(), _reference_table(), jobs=jobs),
    ]
    return Gateway(routers, config=config)


def _row(scenario: str, report, **extra) -> dict:
    online = report.latency_percentiles((50, 95, 99), priority="interactive")
    row = {
        "scenario": scenario,
        "policy": report.policy,
        "requests": len(report.results),
        "completed": len(report.completed),
        "shed": len(report.shed),
        "online_p50_ms": round(online[50] * 1e3, 6),
        "online_p95_ms": round(online[95] * 1e3, 6),
        "online_p99_ms": round(online[99] * 1e3, 6),
        "batch_done": sum(1 for r in report.completed if r.priority == "batch"),
        "throughput_rps": round(report.throughput, 6),
        "groups": len(report.groups),
        "answers_sha1": report.answers_digest("match"),
    }
    row.update(extra)
    return row


def _mixed_rows(matcher, index, cfg, pools, jobs: int) -> "list[dict]":
    """Scenario (a): identical traffic under FIFO vs two-class priority."""
    match_payloads, clean_payloads, probe_payloads = pools
    requests = generate_requests([
        RequestStream(
            tenant="acme", route="match", priority="interactive",
            n_requests=cfg["mix_match_n"], rate=cfg["mix_match_rate"],
            repeat_fraction=cfg["repeat_fraction"], payloads=match_payloads,
        ),
        RequestStream(
            tenant="etl", route="clean", priority="batch",
            n_requests=cfg["mix_clean_n"], rate=cfg["mix_clean_rate"],
            payloads=clean_payloads,
        ),
        RequestStream(
            tenant="lab", route="discover", priority="batch",
            n_requests=cfg["mix_discover_n"], rate=cfg["mix_discover_rate"],
            start=0.05, payloads=probe_payloads,
        ),
    ], seed=cfg["workload_seed"])
    rows = []
    for policy in ("fifo", "priority"):
        config = GatewayConfig(
            policy=policy,
            max_batch_size=cfg["max_batch_size"],
            quantum=cfg["quantum"],
            admission={"clean": cfg["clean_admission"]},
        )
        report = _gateway(matcher, index, cfg, config, jobs).run(requests)
        rows.append(_row("mixed tenants", report))
    return rows


def _fairness_rows(matcher, index, cfg, pools, jobs: int) -> "list[dict]":
    """Scenario (b): one greedy tenant vs two modest ones, all interactive."""
    match_payloads, _, _ = pools
    streams = [
        RequestStream(
            tenant="greedy", route="match", priority="interactive",
            n_requests=cfg["fair_greedy_n"], rate=cfg["fair_greedy_rate"],
            repeat_fraction=cfg["repeat_fraction"], payloads=match_payloads,
        ),
    ] + [
        RequestStream(
            tenant=tenant, route="match", priority="interactive",
            n_requests=cfg["fair_modest_n"], rate=cfg["fair_modest_rate"],
            repeat_fraction=cfg["repeat_fraction"], payloads=match_payloads,
        )
        for tenant in ("modest-a", "modest-b")
    ]
    requests = generate_requests(streams, seed=cfg["workload_seed"])
    window = cfg["share_window"]
    arms = [
        ("fifo", GatewayConfig(
            policy="fifo", max_batch_size=cfg["max_batch_size"],
            quantum=cfg["quantum"],
        )),
        ("drr", GatewayConfig(
            policy="priority", max_batch_size=cfg["max_batch_size"],
            quantum=cfg["quantum"],
        )),
        ("drr 2x weight", GatewayConfig(
            policy="priority", max_batch_size=cfg["max_batch_size"],
            quantum=cfg["quantum"],
            tenant_weights={"greedy": cfg["greedy_weight"]},
        )),
    ]
    rows = []
    for arm, config in arms:
        report = _gateway(matcher, index, cfg, config, jobs).run(requests)
        share = report.completed_share(first=window)
        rows.append(_row(
            f"fairness ({arm})", report,
            greedy_share=round(share.get("greedy", 0.0), 6),
            share_window=window,
        ))
    return rows


def _retrain_rows(matcher, index, cfg, pools, jobs: int) -> "list[dict]":
    """Scenario (c): diurnal interactive day, with and without the valve.

    One request list; the no-retrain baseline replays only its match
    requests (ids preserved), so ``answers_sha1`` is comparable across
    all three rows.
    """
    match_payloads, clean_payloads, _ = pools
    requests = generate_requests([
        RequestStream(
            tenant="online", route="match", priority="interactive",
            n_requests=cfg["day_match_n"], rate=cfg["day_match_rate"],
            phases=cfg["day_phases"],
            repeat_fraction=cfg["repeat_fraction"], payloads=match_payloads,
        ),
        RequestStream(
            tenant="curator", route="clean", priority="batch",
            n_requests=cfg["day_clean_n"], rate=cfg["day_clean_rate"],
            payloads=clean_payloads,
        ),
    ], seed=cfg["workload_seed"])
    match_only = [r for r in requests if r.route == "match"]
    base = dict(
        policy="priority", max_batch_size=cfg["max_batch_size"],
        quantum=cfg["quantum"],
    )
    arms = [
        ("retrain day (no retrain)", match_only, GatewayConfig(**base)),
        ("retrain day (valve off)", requests, GatewayConfig(**base)),
        ("retrain day (valve on)", requests, GatewayConfig(
            **base, high_water=cfg["high_water"], low_water=cfg["low_water"],
            cooldown=cfg["cooldown"],
        )),
    ]
    rows = []
    for name, reqs, config in arms:
        report = _gateway(matcher, index, cfg, config, jobs).run(reqs)
        valve = report.valve or {}
        rows.append(_row(
            name, report,
            valve_pauses=valve.get("pauses", 0),
            valve_resumes=valve.get("resumes", 0),
        ))
    return rows


def run_experiment(profile: str = "full", jobs: int = 1) -> list[dict]:
    cfg = profile_config(_P, profile)
    matcher, index, match_payloads, clean_payloads, probe_payloads = _setup(profile)
    pools = (match_payloads, clean_payloads, probe_payloads)
    return (
        _mixed_rows(matcher, index, cfg, pools, jobs)
        + _fairness_rows(matcher, index, cfg, pools, jobs)
        + _retrain_rows(matcher, index, cfg, pools, jobs)
    )


def test_e19_gateway(benchmark):
    rows = benchmark.pedantic(run_experiment, kwargs={"profile": "smoke"},
                              rounds=1, iterations=1)
    print()
    print(format_table(rows, "E19: multi-tenant gateway"))
    by_name = {(r["scenario"], r["policy"]): r for r in rows}
    for row in rows:
        assert row["online_p50_ms"] <= row["online_p95_ms"] <= row["online_p99_ms"]

    # (a) priority cuts the interactive tail vs FIFO on identical traffic:
    # same completions, same sheds, same answers — only the timing moves.
    fifo = by_name[("mixed tenants", "fifo")]
    prio = by_name[("mixed tenants", "priority")]
    assert prio["online_p99_ms"] < fifo["online_p99_ms"]
    assert prio["completed"] == fifo["completed"]
    assert prio["shed"] == fifo["shed"] > 0
    assert prio["answers_sha1"] == fifo["answers_sha1"]

    # (b) DRR bounds the greedy tenant near its weight; FIFO lets its
    # arrival share through.  One digest: fairness never touches answers.
    fair = [r for r in rows if r["scenario"].startswith("fairness")]
    assert len({r["answers_sha1"] for r in fair}) == 1
    by_arm = {r["scenario"]: r for r in fair}
    fifo_share = by_arm["fairness (fifo)"]["greedy_share"]
    drr_share = by_arm["fairness (drr)"]["greedy_share"]
    weighted_share = by_arm["fairness (drr 2x weight)"]["greedy_share"]
    assert fifo_share > 0.5
    assert drr_share < fifo_share - 0.1
    assert abs(drr_share - 1 / 3) <= 0.12
    assert drr_share < weighted_share <= fifo_share
    assert abs(weighted_share - 0.5) <= 0.12

    # (c) the valve keeps the interactive median near the no-retrain
    # baseline while still completing every clean slice; without it the
    # retrain day drags the median up.  One digest across all three rows.
    day = [r for r in rows if r["scenario"].startswith("retrain day")]
    assert len({r["answers_sha1"] for r in day}) == 1
    by_day = {r["scenario"]: r for r in day}
    baseline = by_day["retrain day (no retrain)"]
    valve_off = by_day["retrain day (valve off)"]
    valve_on = by_day["retrain day (valve on)"]
    assert valve_on["batch_done"] == valve_off["batch_done"] > 0
    assert valve_on["valve_pauses"] > 0
    assert valve_off["online_p50_ms"] > 1.3 * baseline["online_p50_ms"]
    assert valve_on["online_p50_ms"] <= 1.15 * baseline["online_p50_ms"]
    assert valve_on["online_p50_ms"] < valve_off["online_p50_ms"]


if __name__ == "__main__":
    print(format_table(run_experiment(), "E19: multi-tenant gateway"))
