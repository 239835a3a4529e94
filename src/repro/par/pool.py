"""Deterministic process-pool map: ``pmap`` / ``pmap_chunks``.

Execution model: the input is split into chunks with stable ids
(:mod:`repro.par.chunking`), chunks are executed — on a process pool when
``jobs > 1``, otherwise in-process — and the per-chunk results are
combined in chunk-id order.  Because the chunk layout depends only on
the input (never on ``jobs`` or completion order), parallel output is
bit-identical to serial output for any deterministic chunk function.

Serial fallback is graceful and silent at the call site (recorded in the
span meta and ``par.*`` metrics): it triggers when ``jobs <= 1``, when
there is at most one chunk, when already inside a ``repro.par`` worker
(no nested pools), when the function or payload cannot be pickled, or
when the pool fails to start or breaks.  A fallback never changes the
result — the same chunks run through the same code path in-process.

Each call records one ``par.map`` span with no children, serial or
parallel: worker processes do not report back into the parent's metrics
registry or span tree, and serial chunks open no span of their own.
``par.*`` telemetry is recorded by the parent only.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.faults.plan import InjectedFault, inject
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.par.chunking import Chunk, chunk_items, ordered_reduce

__all__ = ["pmap", "pmap_chunks"]

ChunkFn = Callable[[list], Any]

# Errors that mean "the pool is unusable", not "the chunk function is
# wrong": fall back to the serial path (which reproduces any genuine
# chunk-function error with its original traceback).
_POOL_ERRORS = (BrokenProcessPool, OSError, pickle.PicklingError)

# Injected pool faults (fault site "par.pool") are transient by
# definition, so the pool gets one retry before degrading to serial —
# real pool errors still fall back immediately, as before.
_POOL_ATTEMPTS = 2

# Set (per process) by the pool initializer so a chunk function that
# itself calls into repro.par degrades to serial instead of forking a
# nested pool from a worker.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _call_chunk(
    chunk_fn: ChunkFn, chunk_id: int, payload: list
) -> tuple[int, Any, float]:
    """Run one chunk (in a worker or in-process) and time it."""
    start = time.perf_counter()
    value = chunk_fn(payload)
    return chunk_id, value, time.perf_counter() - start


def _picklable(*objects: object) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        # pickle raises a zoo of types (PicklingError, TypeError,
        # AttributeError, NotImplementedError...) depending on the payload.
        return False
    return True


def _run_serial(
    chunk_fn: ChunkFn, chunks: list[tuple[Chunk, list]]
) -> list[tuple[int, Any, float]]:
    return [_call_chunk(chunk_fn, chunk.chunk_id, payload) for chunk, payload in chunks]


def _run_parallel(
    chunk_fn: ChunkFn, chunks: list[tuple[Chunk, list]], jobs: int
) -> list[tuple[int, Any, float]]:
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = None
    workers = min(jobs, len(chunks))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_mark_worker
    ) as executor:
        futures = [
            executor.submit(_call_chunk, chunk_fn, chunk.chunk_id, payload)
            for chunk, payload in chunks
        ]
        # Wait for everything (or the first failure) before collecting, so
        # a failing chunk surfaces its own exception rather than a pool
        # shutdown artifact from a sibling.
        wait(futures, return_when=FIRST_EXCEPTION)
        return [future.result() for future in futures]


def _validate_jobs(jobs: int) -> int:
    if not isinstance(jobs, (int, np.integer)) or isinstance(jobs, bool):
        raise TypeError(f"jobs must be an int >= 1, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def _execute(
    chunk_fn: ChunkFn,
    items: Sequence,
    *,
    jobs: int,
    chunk_size: int | None,
    label: str,
) -> list[Any]:
    """Chunk ``items``, run ``chunk_fn`` over every chunk, reduce in order."""
    jobs = _validate_jobs(jobs)
    chunks = chunk_items(items, chunk_size)
    n_items = len(items)

    fallback: str | None = None
    if jobs <= 1:
        fallback = "jobs"
    elif _IN_WORKER:
        fallback = "nested"
    elif len(chunks) <= 1:
        fallback = "single_chunk"
    elif not _picklable(chunk_fn, chunks[0][1]):
        fallback = "unpicklable"

    with span("par.map", label=label, jobs=jobs, chunks=len(chunks), items=n_items) as map_span:
        results: list[tuple[int, Any, float]] | None = None
        if fallback is None:
            attempts = 0
            for attempt in range(_POOL_ATTEMPTS):
                attempts = attempt + 1
                try:
                    inject("par.pool")
                    results = _run_parallel(chunk_fn, chunks, jobs)
                    map_span.meta["mode"] = "parallel"
                    break
                except InjectedFault:
                    fallback = "injected"
                except _POOL_ERRORS:
                    fallback = "pool_error"
                    break
            map_span.meta["pool_attempts"] = attempts
            if results is not None:
                fallback = None
        if results is None:
            map_span.meta["mode"] = f"serial:{fallback}"
            results = _run_serial(chunk_fn, chunks)
        if map_span.meta["mode"] == "parallel":
            map_span.meta["chunk_seconds"] = [
                round(seconds, 6) for _, _, seconds in sorted(results)
            ]

    if _OBS.enabled:
        _OBS.counter("par.calls").inc()
        _OBS.counter("par.items").inc(float(n_items))
        _OBS.counter("par.chunks").inc(float(len(chunks)))
        if fallback is not None:
            _OBS.counter(f"par.fallback.{fallback}").inc()
        for _, _, seconds in results:
            _OBS.histogram("par.chunk_seconds").observe(seconds)

    return ordered_reduce((chunk_id, value) for chunk_id, value, _ in results)


def _map_adapter(fn: Callable, payload: list) -> list:
    """Chunk function of :func:`pmap`; module-level so it pickles by
    reference."""
    return [fn(item) for item in payload]


def pmap(
    fn: Callable,
    items: Iterable,
    *,
    jobs: int,
    chunk_size: int | None = None,
    label: str | None = None,
) -> list:
    """Deterministic (possibly parallel) ``[fn(x) for x in items]``.

    Results come back in input order regardless of ``jobs`` or worker
    completion order.
    """
    parts = _execute(
        partial(_map_adapter, fn),
        list(items),
        jobs=jobs,
        chunk_size=chunk_size,
        label=label or getattr(fn, "__name__", "pmap"),
    )
    return [value for part in parts for value in part]


def pmap_chunks(
    fn: Callable,
    items: Iterable,
    *,
    jobs: int,
    chunk_size: int | None = None,
    label: str | None = None,
) -> list:
    """Map ``fn`` over whole chunks: ``fn`` receives one chunk's item
    list, and the per-chunk results come back as a list ordered by chunk
    id."""
    return _execute(
        fn,
        list(items),
        jobs=jobs,
        chunk_size=chunk_size,
        label=label or getattr(fn, "__name__", "pmap_chunks"),
    )
