"""Building the serving stack the benchmark drives, with timed phases.

The configuration is E17/E19's: the citations benchmark with 200
entities, SkipGram word vectors with subword back-off, a SIF ``DeepER``,
a 32-bit/8-band ``BlockingIndex`` and default cache sizes.  The gateway
workload adds a second matcher (a different seed) to hot-swap between,
4 shards × 2 replicas, an FD repairer and a syntactic column matcher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cleaning.repair import FDRepairer
from repro.data import World, citations_benchmark
from repro.data.dependencies import FunctionalDependency
from repro.discovery.matcher import SyntacticMatcher
from repro.embeddings import tuple_documents
from repro.er import DeepER
from repro.gateway import (
    CleanRouter,
    DiscoverRouter,
    Gateway,
    GatewayConfig,
    MatchRouter,
    RouteCost,
)
from repro.serve import BlockingIndex, MatchService, ShardedMatchService
from repro.text import SkipGram, SubwordEmbeddings

from wallbench import inputs

FDS = [FunctionalDependency(("dept_id",), "dept_name")]

# Pinned in full, route costs included, so a change to the program's
# default cost constants cannot change which requests are grouped.
GATEWAY_CONFIG = GatewayConfig(
    policy="priority",
    max_batch_size=8,
    quantum=4.0,
    tenant_weights=None,
    # Burst covers a whole window's clean requests: admission runs on
    # every one of them but never sheds, so no request fails.
    admission={"clean": (20.0, 8)},
    high_water=3,
    low_water=0,
    cooldown=0.03,
    route_costs={
        "match": RouteCost(base=0.002, per_request=0.0004, per_work=0.00005, per_embed=0.0002),
        "clean": RouteCost(base=0.002, per_request=0.0005, per_work=0.00002),
        "discover": RouteCost(base=0.002, per_request=0.0005, per_work=0.0002),
        "health": RouteCost(base=0.0002, per_request=0.0001),
        "metrics": RouteCost(base=0.0002, per_request=0.0001),
    },
)
N_SHARDS = 4
REPLICAS = 2


@dataclass
class Words:
    """The citations benchmark and the word vectors trained on it."""

    bench: object
    model: SkipGram
    subword: SubwordEmbeddings
    seconds: float


@dataclass
class Stack:
    """Trained matchers, the built index and table B's records."""

    matchers: "list[DeepER]"
    index: BlockingIndex
    records_b: "list[dict]"
    phases: "dict[str, float]" = field(default_factory=dict)


def train_words() -> Words:
    """The benchmark tables and their SkipGram vectors (most of set-up)."""
    start = time.perf_counter()
    bench = citations_benchmark(n_entities=200, rng=0)
    documents = tuple_documents([bench.table_a, bench.table_b])
    word_documents = [[token for value in doc for token in str(value).split()] for doc in documents]
    model = SkipGram(dim=40, window=8, epochs=15, rng=0).fit(word_documents + World(5).corpus(800))
    return Words(bench, model, SubwordEmbeddings(model), time.perf_counter() - start)


def build_stack(words: Words, n_matchers: int) -> Stack:
    """Train the matchers and build the index; ``phases`` holds seconds."""
    bench, model, subword = words.bench, words.model, words.subword
    phases = {"embeddings_fit": words.seconds}
    start = time.perf_counter()
    labeled = bench.labeled_pairs(negative_ratio=5.0, rng=1)
    triples = [(bench.record_a(a), bench.record_b(b), y) for a, b, y in labeled]
    train = triples[: int(0.7 * len(triples))]
    matchers = [
        DeepER(model, bench.compare_columns, composition="sif", vector_fn=subword.vector, rng=seed)
        .fit(train, epochs=12)
        for seed in range(n_matchers)
    ]
    phases["matcher_fit"] = time.perf_counter() - start

    start = time.perf_counter()
    records_a = [bench.table_a.row_dict(i) for i in range(len(bench.table_a))]
    ids_a = [str(v) for v in bench.table_a.column(bench.id_column)]
    index = BlockingIndex(matchers[0].embedder, n_bits=32, n_bands=8, rng=0).build(records_a, ids_a, jobs=1)
    phases["index_build"] = time.perf_counter() - start
    records_b = [bench.table_b.row_dict(i) for i in range(len(bench.table_b))]
    return Stack(matchers=matchers, index=index, records_b=records_b, phases=phases)


def match_service(stack: Stack) -> MatchService:
    """The unsharded service of ``interactive`` and ``bulk``."""
    return MatchService(stack.matchers[0], stack.index, jobs=1)


class TimedRouter:
    """Router proxy recording the wall time of each ``handle_group`` call.

    The timing is the gateway workload's per-request latency: every
    request in a group is answered by that one call.
    """

    def __init__(self, router) -> None:
        self.router = router
        self.name = router.name
        self.samples: "list[tuple[float, int]]" = []

    @property
    def service(self):
        return getattr(self.router, "service", None)

    def handle_group(self, requests: tuple):
        start = time.perf_counter()
        outcome = self.router.handle_group(requests)
        self.samples.append((time.perf_counter() - start, len(requests)))
        return outcome


@dataclass
class GatewayStack:
    """One gateway over a fresh sharded service (cold caches)."""

    service: ShardedMatchService
    gateway: Gateway
    routers: "list[TimedRouter]"
    repairer: FDRepairer
    column_matcher: SyntacticMatcher


def gateway_stack(stack: Stack) -> GatewayStack:
    """Gateway → {match: 4×2 sharded service, clean, discover} routers."""
    service = ShardedMatchService(
        stack.matchers[0], stack.index, n_shards=N_SHARDS, replicas=REPLICAS, jobs=1
    )
    repairer = FDRepairer(FDS)
    column_matcher = SyntacticMatcher()
    routers = [
        TimedRouter(MatchRouter(service)),
        TimedRouter(CleanRouter(repairer)),
        TimedRouter(DiscoverRouter(column_matcher, inputs.discover_reference(), jobs=1)),
    ]
    return GatewayStack(
        service=service,
        gateway=Gateway(routers, config=GATEWAY_CONFIG),
        routers=routers,
        repairer=repairer,
        column_matcher=column_matcher,
    )
