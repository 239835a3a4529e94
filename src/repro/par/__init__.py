"""Deterministic parallel execution substrate (see DESIGN.md § "Parallel
execution").

``pmap`` / ``pmap_chunks`` fan work out over a process pool under a hard
determinism contract: the chunk layout depends only on the input (never
on ``jobs``), and results are reduced in stable chunk-id order — so
parallel output is bit-identical to serial output for every
deterministic function.  Callers must pass ``jobs`` explicitly; lint
rules RL701/RL702 enforce that nothing reads ambient state instead.

Call sites: E2's LSH grid (``benchmarks/bench_e2_blocking.py``, the one
site measured to gain at ``--jobs 2``), schema matching
(:mod:`repro.discovery.matcher`), the serving index build
(:mod:`repro.serve.index`), the serving column fallback
(:func:`repro.kernels.features.unique_column_stack`) and the lint
engine's per-file phase.  The serial≡parallel contract is enforced by
``tests/par/``.
"""

from repro.par.chunking import Chunk, chunk_items, chunk_spans, ordered_reduce
from repro.par.pool import pmap, pmap_chunks

__all__ = [
    "Chunk",
    "chunk_items",
    "chunk_spans",
    "ordered_reduce",
    "pmap",
    "pmap_chunks",
]
