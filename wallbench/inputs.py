"""Seeded inputs: every query record and gateway request comes from here.

The program only ever sees what these generators produce; the seed is the
benchmark's ``--seed`` argument, so one seed always replays the same
request sequence.  The generators are the benchmark's own (not the
program's workload generators), so rewriting those never moves this
benchmark's inputs.

Why each workload exists:

* ``interactive`` — the online caller: one record per ``match_batch``
  call, 90 % from a hot set that fits the default caches and every tenth
  call a never-seen record.  The hit path (content keys, LRU, LSH probe
  and the per-call fault/par plumbing) sets p50; the miss path sets p99.
* ``bulk`` — the batch caller resolving a new table: 16 never-seen
  records per call, so no cache ever hits and embedding, the LSH probe,
  the kernels and the classifier forward do nearly all the work.  A cache
  change should show no change here.
* ``gateway`` — the only workload that runs the gateway loop, the shard
  scatter-gather, cleaning, discovery and the hot-swap write path beside
  reads.  Match tenants repeat ~30 % of their queries over a working set
  larger than the score caches, and every window boundary swaps the
  matcher, which clears every score tier.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.perturb import typo
from repro.data.table import Table
from repro.gateway import GatewayRequest

# Salts keep the streams of different workloads disjoint for one seed.
_INTERACTIVE_SALT = 0x1A7E
_BULK_SALT = 0xB01C
_GATEWAY_SALT = 0x6A7E
_WARMUP_SALT = 0x3A3A

# 32 hot records × ~64 candidates ≈ 2k score entries: the hot set fits
# the default 4096-entry score cache with room for the misses between
# two visits of one hot record, so a hot record is never evicted.
HOT_SET = 32
# Every MISS_EVERY-th interactive call is a never-seen record: a fixed
# position rather than a coin flip, so every run of the same length
# holds the same number of misses.
MISS_EVERY = 10
BULK_RECORDS = 16

# Gateway traffic per window (simulated seconds; arrivals are Poisson).
# One match tenant sends 4x the others; clean and discover are batch.
MATCH_TENANTS = (("heavy", 160, 400.0), ("tenant-a", 40, 100.0), ("tenant-b", 40, 100.0))
# Eight clean requests queue behind the match backlog and leave in two
# groups of four (the DRR quantum): one population of equal groups, so
# the p99 that they set does not sit on a step between group sizes.
CLEAN_REQUESTS = (8, 20.0)
DISCOVER_REQUESTS = (3, 8.0)
REPEAT_SHARE = 0.3
REPEAT_MEMORY = 512
# Rows per clean slice: large enough that cleaning is a visible share of
# gateway wall time (E19's 96-row slices are ~1 % of it).
CLEAN_ROWS = 2000
CLEAN_POOL = 4
DISCOVER_POOL = 3


class FreshRecords:
    """Never-seen query records: typo-perturbed rows of table B.

    Each record gets a unique ``paper_id`` (not a compare column), so its
    content key never repeats, and a typo in its title, so embedding does
    real work on an unseen token.
    """

    def __init__(self, base: "list[dict]", seed: int, salt: int) -> None:
        self._base = base
        self._rng = np.random.default_rng([salt, seed])
        self._tag = f"{salt:x}.{seed}"
        self._serial = 0

    def next(self) -> dict:
        row = dict(self._base[int(self._rng.integers(len(self._base)))])
        row["title"] = typo(str(row["title"]), self._rng)
        row["paper_id"] = f"q{self._tag}.{self._serial}"
        self._serial += 1
        return row


def hot_set(records_b: "list[dict]", seed: int) -> "list[dict]":
    """The interactive workload's hot records (table-B rows, seeded)."""
    rng = np.random.default_rng([_INTERACTIVE_SALT, seed, 0])
    rows = sorted(rng.choice(len(records_b), size=HOT_SET, replace=False))
    return [records_b[int(i)] for i in rows]


def interactive_calls(records_b: "list[dict]", seed: int) -> "Iterator[list[dict]]":
    """One-record calls: hot-set hits, every tenth a never-seen record."""
    hot = hot_set(records_b, seed)
    rng = np.random.default_rng([_INTERACTIVE_SALT, seed, 1])
    fresh = FreshRecords(records_b, seed, _INTERACTIVE_SALT)
    call = 0
    while True:
        call += 1
        if call % MISS_EVERY:
            yield [hot[int(rng.integers(HOT_SET))]]
        else:
            yield [fresh.next()]


def bulk_calls(records_b: "list[dict]", seed: int, *, warmup: bool = False) -> "Iterator[list[dict]]":
    """Calls of 16 never-seen records each; no record ever repeats."""
    fresh = FreshRecords(records_b, seed, _WARMUP_SALT if warmup else _BULK_SALT)
    while True:
        yield [fresh.next() for _ in range(BULK_RECORDS)]


def clean_slices(seed: int) -> "list[Table]":
    """FD-violating slices: ``dept_id -> dept_name`` holds for most rows."""
    rng = np.random.default_rng([_GATEWAY_SALT, seed, 1])
    slices = []
    for slice_id in range(CLEAN_POOL):
        rows = []
        for i in range(CLEAN_ROWS):
            dept = int(rng.integers(12))
            divergent = rng.random() < 0.15
            name = f"dept-x{int(rng.integers(5))}" if divergent else f"dept-{dept}"
            rows.append([f"s{slice_id}-{i}", f"D{dept}", name, f"city-{int(rng.integers(6))}"])
        slices.append(Table(f"slice_{slice_id}", ["record_id", "dept_id", "dept_name", "city"], rows))
    return slices


def discover_reference() -> Table:
    """The curated relation discover probes are matched against."""
    rows = [[f"r{i}", f"D{i % 12}", f"dept-{i % 12}", f"city-{i % 6}"] for i in range(48)]
    return Table("curated_departments", ["record_id", "dept_id", "dept_name", "city"], rows)


def discover_probes(seed: int) -> "list[Table]":
    """Renamed-column variants of the reference relation."""
    rng = np.random.default_rng([_GATEWAY_SALT, seed, 2])
    probes = []
    for probe_id in range(DISCOVER_POOL):
        rows = []
        for i in range(24):
            dept = int(rng.integers(12))
            rows.append([f"p{probe_id}-{i}", f"D{dept}", f"dept-{dept}", f"city-{int(rng.integers(6))}"])
        probes.append(Table(f"probe_{probe_id}", ["id", "department_id", "department_name", "town"], rows))
    return probes


def gateway_windows(
    records_b: "list[dict]", seed: int, *, warmup: bool = False
) -> "Iterator[tuple[int, list[GatewayRequest]]]":
    """Request windows ``(index, requests)``; each window is one gateway run.

    Match tenants draw ``REPEAT_SHARE`` of their queries from the last
    ``REPEAT_MEMORY`` distinct queries sent and the rest fresh, so the
    working set keeps outgrowing the score caches.
    """
    salt = _WARMUP_SALT if warmup else _GATEWAY_SALT
    fresh = FreshRecords(records_b, seed, salt)
    slices = clean_slices(seed)
    probes = discover_probes(seed)
    recent: "list[dict]" = []
    window = 0
    while True:
        rng = np.random.default_rng([salt, seed, 100 + window])
        drafts = []
        streams = [(t, "match", "interactive", n, rate) for t, n, rate in MATCH_TENANTS]
        streams.append(("etl", "clean", "batch", *CLEAN_REQUESTS))
        streams.append(("lab", "discover", "batch", *DISCOVER_REQUESTS))
        for stream_index, (tenant, route, priority, n, rate) in enumerate(streams):
            arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
            for sequence, arrival in enumerate(arrivals):
                if route == "match":
                    if recent and rng.random() < REPEAT_SHARE:
                        record = recent[int(rng.integers(len(recent)))]
                    else:
                        record = fresh.next()
                        recent.append(record)
                        del recent[:-REPEAT_MEMORY]
                    payload = {"record": record}
                elif route == "clean":
                    payload = {"table": slices[int(rng.integers(len(slices)))]}
                else:
                    payload = {"table": probes[int(rng.integers(len(probes)))]}
                drafts.append((float(arrival), stream_index, sequence, tenant, route, priority, payload))
        drafts.sort(key=lambda d: d[:3])
        requests = [
            GatewayRequest(
                request_id=i, tenant=tenant, route=route, priority=priority,
                arrival=arrival, payload=payload,
            )
            for i, (arrival, _, _, tenant, route, priority, payload) in enumerate(drafts)
        ]
        yield window, requests
        window += 1
