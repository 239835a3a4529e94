"""The three workloads: fresh serving state, inputs, one timed unit each.

A unit is what the single client sends before it waits for the reply:
one ``match_batch`` call for ``interactive`` and ``bulk``, one request
window played through ``Gateway.run`` for ``gateway``.  :func:`drive`
runs units back to back in a closed loop and times only the calls into
the program; answer logging and span draining happen between calls.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

import numpy as np

import repro.gateway.api as gateway_api
import repro.kernels.features as kernel_features
import repro.kernels.score as kernel_score
import repro.serve.index as serve_index
import repro.serve.service as serve_service
import repro.serve.shard as serve_shard
from repro.obs.trace import drain_roots
from repro.serve import MatchService

from wallbench import inputs
from wallbench.oracle import AnswerLog
from wallbench.stack import Stack, gateway_stack, match_service
from wallbench.tracing import Tracer

TIERS = {"embedding": "embedding_cache", "score": "score_cache", "columns": "column_cache"}


@dataclass
class PassResult:
    """What one pass over the inputs served, and how long its calls took.

    ``samples`` holds one latency per request (the wall time of the call
    that answered it) as packed doubles: 8 bytes a request.  Every
    ``block_units`` units close a block; ``block_p99`` holds each block's
    p99 (a trailing partial block is dropped).
    """

    log: AnswerLog
    requests: int = 0
    failed: int = 0
    units: int = 0
    wall: float = 0.0
    samples: array = field(default_factory=lambda: array("d"))
    block_p99: "list[float]" = field(default_factory=list)
    block_start: int = 0
    program_spans: int = 0
    scored_pairs: int = 0
    embedding_misses: int = 0
    groups: int = 0
    shed: int = 0
    cache: "dict[str, int]" = field(default_factory=dict)

    def counts(self) -> dict:
        """Counts that depend only on the inputs, never on the speed."""
        return {
            "requests": self.requests,
            "units": self.units,
            "scored_pairs": self.scored_pairs,
            "embedding_misses": self.embedding_misses,
            "groups": self.groups,
            "shed": self.shed,
            **self.cache,
        }

    def latency_ms(self, percentile: float) -> float:
        return float(np.percentile(np.asarray(self.samples), percentile)) * 1e3

    def close_block(self) -> None:
        block = np.asarray(self.samples[self.block_start:])
        if len(block):
            self.block_p99.append(float(np.percentile(block, 99)))
        self.block_start = len(self.samples)


def _span_nodes(spans) -> int:
    return sum(1 + _span_nodes(span.children) for span in spans)


def _record_failure(result: PassResult, requests: int, elapsed: float) -> None:
    if result.failed == 0:
        traceback.print_exc(file=sys.stderr)
    result.failed += requests
    result.wall += elapsed


def cache_totals(services) -> "dict[str, int]":
    """Hits, misses and evictions per cache tier, summed over services."""
    totals = {}
    for tier, attr in TIERS.items():
        stats = [getattr(service, attr).stats for service in services]
        totals[f"{tier}.hits"] = sum(s.hits for s in stats)
        totals[f"{tier}.misses"] = sum(s.misses for s in stats)
        totals[f"{tier}.evictions"] = sum(s.evictions for s in stats)
    return totals


def drive(
    workload,
    state,
    *,
    seconds: float | None = None,
    units: int | None = None,
    min_units: int = 0,
    tracer: Tracer | None = None,
) -> PassResult:
    """Run units in a closed loop until ``seconds`` pass or ``units`` ran.

    A time-bounded pass still runs at least ``min_units`` units and until
    the answer prefix the digest covers is complete, so every run pins
    the same answers.  ``tracer`` gets each unit's id for its spans.

    As in ``timeit``, the cyclic garbage collector is off while units
    run: it runs once per block of ``workload.block_units`` units, outside
    the timed calls, so a collection never lands at a random point in
    some call's latency.
    """
    result = PassResult(log=AnswerLog(workload.prefix))
    drain_roots()
    before = cache_totals(workload.cache_services(state))
    start = time.perf_counter()
    gc.disable()
    try:
        for unit in workload.units():
            if tracer is not None:
                tracer.unit = result.units
            workload.run(state, unit, result)
            result.units += 1
            if result.units % workload.block_units == 0:
                result.close_block()
                gc.collect()
            result.program_spans += _span_nodes(drain_roots())
            if units is not None:
                if result.units >= units:
                    break
            elif (
                time.perf_counter() - start >= seconds
                and result.units >= min_units
                and len(result.log.prefix) >= workload.prefix
            ):
                break
    finally:
        gc.enable()
    after = cache_totals(workload.cache_services(state))
    result.cache = {key: after[key] - before[key] for key in after}
    return result


def instrument_modules(tracer: Tracer) -> None:
    """Trace the module attributes the layers call each other through."""
    for module in (serve_service, serve_shard):
        tracer.wrap(module, "score_pairs", "kernels.score_pairs")
        tracer.wrap(module, "retry_call", "faults.retry_call")
        tracer.wrap(module, "content_key", "utils.content_key")
    tracer.wrap(serve_service, "unique_column_stack", "kernels.unique_column_stack")
    tracer.wrap(kernel_score, "pair_feature_matrix", "kernels.pair_feature_matrix", note=_feature_bytes)
    tracer.wrap(kernel_features, "content_key", "utils.content_key")
    tracer.wrap(kernel_features, "pmap", "par.pmap")
    tracer.wrap(serve_index, "pmap", "par.pmap")
    tracer.wrap(gateway_api, "retry_call", "faults.retry_call")


def _feature_bytes(notes, args, result) -> None:
    # Bytes the feature kernel reads and writes, computed from shapes:
    # two float64 (pairs, columns, dim) sides in, one feature matrix out.
    u_cols, _ = args
    pairs, columns, dim = u_cols.shape
    notes["features.pairs"] += pairs
    notes["features.bytes"] += 8 * (2 * pairs * columns * dim + result.size)


def _candidates(notes, args, result) -> None:
    notes["candidates"] += len(result)


STAGES = ("resolve_embeddings", "candidate_map", "consult_scores", "resolve_columns", "score_uncached")


def instrument_service(tracer: Tracer, service: MatchService) -> None:
    """Trace one ``MatchService``'s stages and its index's probes."""
    for stage in STAGES:
        tracer.wrap(service, stage, f"serve.service.{stage}")
    tracer.wrap(service.index, "embed_queries", "serve.index.embed_queries")
    tracer.wrap(service.index, "candidates", "serve.index.candidates", note=_candidates)
    tracer.wrap(service.index, "column_rows", "serve.index.column_rows")


def instrument_embedders(tracer: Tracer, stack: Stack) -> None:
    """Trace every matcher's embedder (the index shares the first one)."""
    for matcher in stack.matchers:
        tracer.wrap(matcher.embedder, "embed", "embeddings.embed")
        tracer.wrap(matcher.embedder, "embed_columns", "embeddings.embed_columns")


class MatchWorkload:
    """``interactive`` and ``bulk``: direct calls on one ``MatchService``."""

    def __init__(self, name: str, stack: Stack, seed: int) -> None:
        self.name = name
        self.stack = stack
        self.seed = seed
        self.prefix = 400 if name == "interactive" else 256
        # About 1,000 latency samples, a second or less of calls, a block.
        self.block_units = 1000 if name == "interactive" else 64
        self.fingerprints = {id(m): m.parameter_fingerprint() for m in stack.matchers}

    def units(self):
        if self.name == "interactive":
            return inputs.interactive_calls(self.stack.records_b, self.seed)
        return inputs.bulk_calls(self.stack.records_b, self.seed)

    def fresh(self) -> MatchService:
        """A new service with the caches warmed by the run's own hot set."""
        service = match_service(self.stack)
        if self.name == "interactive":
            for record in inputs.hot_set(self.stack.records_b, self.seed):
                service.match_batch([record])
        else:
            warmup = inputs.bulk_calls(self.stack.records_b, self.seed, warmup=True)
            for _ in range(2):
                service.match_batch(next(warmup))
        drain_roots()
        return service

    def cache_services(self, service: MatchService) -> list:
        return [service]

    def instrument(self, tracer: Tracer, service: MatchService) -> None:
        tracer.wrap(service, "match_batch", "serve.service.match_batch")
        instrument_service(tracer, service)
        instrument_embedders(tracer, self.stack)
        instrument_modules(tracer)

    def store_bytes(self, service: MatchService) -> int:
        return service.index.column_store.nbytes

    def run(self, service: MatchService, records: "list[dict]", result: PassResult) -> None:
        start = time.perf_counter()
        try:
            report = service.match_batch(records)
        except Exception:
            _record_failure(result, len(records), time.perf_counter() - start)
            return
        elapsed = time.perf_counter() - start
        result.wall += elapsed
        result.requests += len(records)
        result.samples.extend([elapsed] * len(records))
        result.scored_pairs += report.scored_pairs
        result.embedding_misses += report.embedding_misses
        fingerprint = self.fingerprints[id(service.matcher)]
        for record, answer in zip(records, report.answers):
            result.log.add_match(record, answer, fingerprint)


class GatewayWorkload:
    """``gateway``: request windows through one gateway, swaps between."""

    name = "gateway"
    prefix = 240
    # One whole swap cycle of four windows (~1,000 requests) a block.
    block_units = 4

    def __init__(self, stack: Stack, seed: int) -> None:
        self.stack = stack
        self.seed = seed
        self.fingerprints = {id(m): m.parameter_fingerprint() for m in stack.matchers}

    def units(self):
        return inputs.gateway_windows(self.stack.records_b, self.seed)

    def fresh(self):
        """A new gateway over a new sharded service, warmed by one window."""
        state = gateway_stack(self.stack)
        _, warmup = next(inputs.gateway_windows(self.stack.records_b, self.seed, warmup=True))
        state.gateway.run(warmup)
        for router in state.routers:
            router.samples.clear()
        drain_roots()
        return state

    def cache_services(self, state) -> list:
        return [group.primary for group in state.service.groups]

    def instrument(self, tracer: Tracer, state) -> None:
        tracer.wrap(state.gateway, "run", "gateway.run")
        for router in state.routers:
            tracer.wrap(router.router, "handle_group", f"gateway.router.{router.name}")
        tracer.wrap(state.service, "match_batch", "serve.shard.match_batch")
        tracer.wrap(state.service, "swap_matcher", "serve.shard.swap")
        for group in state.service.groups:
            for replica in group.replicas:
                instrument_service(tracer, replica)
        instrument_embedders(tracer, self.stack)
        tracer.wrap(state.repairer, "repair", "cleaning.repair")
        tracer.wrap(state.column_matcher, "match_tables", "discovery.match_tables")
        instrument_modules(tracer)

    def store_bytes(self, state) -> int:
        return sum(group.primary.index.column_store.nbytes for group in state.service.groups)

    def run(self, state, unit, result: PassResult) -> None:
        window, requests = unit
        start = time.perf_counter()
        try:
            if result.units > 0:
                # Four-window cycle: the two matchers alternate, and each
                # swap clears every shard's score tier.
                state.service.swap_matcher(self.stack.matchers[window % 2])
            report = state.gateway.run(requests)
        except Exception:
            _record_failure(result, len(requests), time.perf_counter() - start)
            return
        result.wall += time.perf_counter() - start
        for router in state.routers:
            for elapsed, size in router.samples:
                result.samples.extend([elapsed] * size)
            router.samples.clear()
        result.requests += len(report.completed)
        result.shed += len(report.shed)
        result.groups += len(report.groups)
        for group in report.groups:
            if group["route"] == "match":
                result.scored_pairs += int(group["work"])
                result.embedding_misses += int(group["embed_misses"])
        fingerprint = self.fingerprints[id(state.service.matcher)]
        payloads = {request.request_id: request.payload for request in requests}
        for served in report.completed:
            payload = payloads[served.request_id]
            if served.route == "match":
                result.log.add_match(payload["record"], served.answer, fingerprint)
            else:
                result.log.add_table(served.route, payload["table"], served.answer)


def make_workload(name: str, stack: Stack, seed: int):
    if name == "gateway":
        return GatewayWorkload(stack, seed)
    return MatchWorkload(name, stack, seed)
