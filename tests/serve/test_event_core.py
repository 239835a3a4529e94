"""Differential tests: the shared event core against the loops it replaced.

``simulate`` and ``Gateway.run`` both run :func:`repro.serve.clock.
run_events` and supply only their policy.  Random scenarios run through
them and through the frozen copies of the two loops they replaced
(``tests/serve/reference_loops.py``), and everything a run produces must
be equal: results, batch and group lists, valve snapshot and events,
duration, the caller's clock, and the health and metrics snapshots.

Arrivals sit on a 0.5 ms grid, so equal timestamps are common; stub
services and routers make cost a pure function of the payload.  The
simulator sees flat and per-shard (straggler) reports, ``max_wait``
0–4 ms and ``max_queue`` 1–20; the gateway sees mixed routes, tenants,
priorities and ``cost_units`` under ``priority`` and ``fifo``, token
buckets, valve ``high_water`` 1–3 and ``cooldown`` 0–10 ms.  A seeded
sweep of each checks that the scenarios do reach valve pauses, resumes
and shedding.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import Gateway, GatewayConfig, GatewayRequest, RouteCost, Router, RouterOutcome
from repro.gateway.scheduler import CLASSES
from repro.serve import Query, ServerConfig, ShardBatchReport, ShardWork, SimClock, simulate
from repro.serve.service import BatchReport
from tests.serve.reference_loops import ReferenceGateway, reference_simulate

TICK = 0.0005


class StubService:
    """Answers and per-shard work are pure functions of the records."""

    def __init__(self, sharded: bool) -> None:
        self.sharded = sharded

    def match_batch(self, records):
        answers = [{"q": r["q"], "pairs": r["pairs"]} for r in records]
        pairs = sum(r["pairs"] for r in records)
        misses = sum(r["miss"] for r in records)
        calls = 1 if records else 0
        if not self.sharded:
            return BatchReport(answers, pairs, misses, calls)
        shards = tuple(
            ShardWork(
                shard=shard,
                scored_pairs=sum(r["pairs"] for r in records if r["shard"] == shard),
                embedding_misses=sum(r["miss"] for r in records if r["shard"] == shard),
                predict_calls=1,
            )
            for shard in sorted({r["shard"] for r in records})
        )
        return ShardBatchReport(answers, pairs, misses, calls, shards=shards)


class StubRouter(Router):
    def __init__(self, name: str) -> None:
        self.name = name

    def handle_group(self, requests: tuple) -> RouterOutcome:
        return RouterOutcome(
            answers=tuple({"id": r.request_id, "w": r.payload["w"]} for r in requests),
            work=float(sum(r.payload["w"] for r in requests)),
            embed_misses=sum(r.payload["w"] % 2 for r in requests) if self.name == "match" else 0,
        )


def _permutation(n: int, integer) -> "list[int]":
    ids = list(range(n))
    for i in range(n - 1, 0, -1):
        j = integer(0, i)
        ids[i], ids[j] = ids[j], ids[i]
    return ids


def build_sim_case(choose, integer):
    """Queries, a ``ServerConfig`` and flat-or-sharded pricing."""
    n = integer(0, 24)
    queries = [
        Query(
            query_id=query_id,
            arrival=integer(0, 10) * TICK,
            record={"q": query_id, "pairs": integer(0, 4), "miss": integer(0, 1),
                    "shard": integer(0, 3)},
        )
        for query_id in _permutation(n, integer)
    ]
    config = ServerConfig(
        max_batch_size=integer(1, 4),
        max_wait=integer(0, 8) * TICK,
        max_queue=integer(1, 20),
        cost_base=choose([0.0, 0.0005, 0.002]),
        cost_per_query=choose([0.0, 0.0004]),
        cost_per_miss=choose([0.0, 0.0003, 0.0012]),
        cost_per_embed=choose([0.0, 0.0002]),
    )
    return queries, config, choose([False, True])


def build_gateway_case(choose, integer):
    """Requests over four routes and a ``GatewayConfig``."""
    n = integer(0, 28)
    requests = []
    for request_id in _permutation(n, integer):
        arrival = integer(0, 12) * TICK
        requests.append(GatewayRequest(
            request_id=request_id,
            tenant=choose(["a", "b", "c"]),
            route=choose(["match", "match", "clean", "health", "metrics"]),
            priority=choose(list(CLASSES)),
            arrival=arrival,
            deadline=arrival + choose([math.inf, 0.002, 0.01]),
            payload={"w": integer(0, 4)},
            cost_units=choose([0.5, 1.0, 2.0, 3.0]),
        ))
    high_water = choose([None, 1, 2, 3])
    config = GatewayConfig(
        policy=choose(["priority", "priority", "fifo"]),
        max_batch_size=integer(1, 4),
        quantum=choose([1.0, 2.0, 4.0]),
        tenant_weights=choose([None, {"a": 2.0, "b": 0.5}]),
        admission=choose([
            None, {"match": (400.0, 2)}, {"match": (2000.0, 3), "clean": (100.0, 1)},
        ]),
        high_water=high_water,
        low_water=integer(0, high_water - 1) if high_water else 0,
        cooldown=integer(0, 10) * 0.001,
        route_costs=choose([
            None, {"match": RouteCost(base=0.001, per_request=0.0002, per_work=0.0003,
                                      per_embed=0.0001)},
        ]),
    )
    return requests, config


@st.composite
def sim_cases(draw):
    return build_sim_case(lambda seq: draw(st.sampled_from(seq)),
                          lambda lo, hi: draw(st.integers(lo, hi)))


@st.composite
def gateway_cases(draw):
    return build_gateway_case(lambda seq: draw(st.sampled_from(seq)),
                              lambda lo, hi: draw(st.integers(lo, hi)))


def play_sim(run, queries, config, sharded):
    clock = SimClock()
    report = run(StubService(sharded), queries, config, clock=clock)
    return report.results, report.batches, report.duration, clock.now


def play_gateway(gateway_class, requests, config):
    gateway = gateway_class([StubRouter("match"), StubRouter("clean")], config=config)
    clock = SimClock()
    try:
        report = gateway.run(requests, clock=clock)
    except RuntimeError as error:  # the stall error must match too
        return str(error)
    return (report.results, report.groups, report.valve, report.duration, clock.now,
            gateway.health_snapshot(), gateway.metrics_snapshot())


@settings(max_examples=300, deadline=None)
@given(sim_cases())
def test_simulate_equals_reference_loop(case):
    queries, config, sharded = case
    assert play_sim(simulate, queries, config, sharded) == play_sim(
        reference_simulate, queries, config, sharded
    )


@settings(max_examples=300, deadline=None)
@given(gateway_cases())
def test_gateway_run_equals_reference_loop(case):
    requests, config = case
    assert play_gateway(Gateway, requests, config) == play_gateway(
        ReferenceGateway, requests, config
    )


def test_seeded_sweeps_reach_valve_schedules_and_shedding():
    seen = dict.fromkeys(["pauses", "resumes", "gateway_shed", "sim_shed", "sharded"], 0)
    for seed in range(200):
        rng = random.Random(seed)
        requests, config = build_gateway_case(rng.choice, rng.randint)
        played = play_gateway(Gateway, requests, config)
        assert played == play_gateway(ReferenceGateway, requests, config)
        results, _, valve = played[:3]
        seen["pauses"] += bool(valve and valve["pauses"])
        seen["resumes"] += bool(valve and valve["resumes"])
        seen["gateway_shed"] += any(r.status != "ok" for r in results)

        queries, server, sharded = build_sim_case(rng.choice, rng.randint)
        played = play_sim(simulate, queries, server, sharded)
        assert played == play_sim(reference_simulate, queries, server, sharded)
        seen["sim_shed"] += any(r.status != "ok" for r in played[0])
        seen["sharded"] += sharded and bool(played[1])
    assert min(seen.values()) >= 20, seen
