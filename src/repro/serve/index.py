"""Online blocking index: LSH buckets over an embedded reference table.

Offline, :class:`repro.er.blocking.LSHBlocker` recomputes signatures for
both tables on every ``candidate_pairs`` call.  Serving inverts that: the
indexed table is embedded, transformed and bucketed **once** at build
time, and each query only computes its own signature and probes the band
buckets — the "does tuple *t* match anything in the indexed table?" path
of an online entity-resolution service.

Because the centering/whitening transform and the hyperplanes are frozen
at build time (:meth:`LSHBlocker.prepare_reference`), a query's candidate
set is a pure function of the query record — independent of micro-batch
composition, cache state and arrival order.  That invariant is what lets
the serving differential test demand bit-identical answers between the
online path and a direct offline ``predict`` over the same candidates.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.embeddings.compose import TupleEmbedder
from repro.er.blocking import LSHBlocker
from repro.obs.trace import span
# ``pmap`` stays a module attribute: wallbench's ``--trace`` wraps it by name.
from repro.par import pmap, pmap_chunks  # noqa: F401

__all__ = ["BlockingIndex"]


class BlockingIndex:
    """LSH candidate index over a reference table, built once, probed often.

    Parameters
    ----------
    embedder:
        Fixed (non-trainable) tuple embedder shared with the matcher;
        queries and reference records must embed identically.
    n_bits / n_bands / whiten / rng:
        Forwarded to the underlying :class:`LSHBlocker`; ``rng`` seeds the
        hyperplanes, so two indexes built with the same seed over the same
        records are identical.
    """

    def __init__(
        self,
        embedder: TupleEmbedder,
        *,
        n_bits: int = 16,
        n_bands: int = 4,
        whiten: bool = True,
        rng: np.random.Generator | int | None = 0,
    ) -> None:
        self.embedder = embedder
        self.blocker = LSHBlocker(n_bits=n_bits, n_bands=n_bands, whiten=whiten, rng=rng)
        self._ids: list[str] = []
        self._records: dict[str, dict[str, object]] = {}
        self._buckets: list[dict[bytes, list[int]]] | None = None
        self._bands = [slice(lo, hi) for lo, hi in self.blocker.band_slices()]
        self._column_store: np.ndarray | None = None
        self._row_of: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def build(
        self,
        records: list[dict[str, object]],
        ids: list[str],
        *,
        jobs: int = 1,
    ) -> "BlockingIndex":
        """Embed, transform and bucket the reference table.

        Besides the LSH buckets, build precomputes the reference side of
        the scoring kernels: a read-only float64 ``(records, columns,
        dim)`` stack of per-attribute embeddings, made by the same token
        pass as each record's tuple embedding, from which serving gathers
        candidate rows.  Ids are compared as strings; a repeat is refused.

        ``jobs`` fans the reference embedding out over
        :func:`repro.par.pmap_chunks`, one token pass per slice of records
        (bit-identical to serial for every value).  Rebuilding replaces the
        previous index wholesale.
        """
        if len(records) != len(ids):
            raise ValueError(
                f"records/ids length mismatch: {len(records)} != {len(ids)}"
            )
        if not records:
            raise ValueError("cannot build an index over zero records")
        keys = [str(i) for i in ids]
        row_of = _rows_by_id(keys)
        parts = pmap_chunks(
            self.embedder.embed_many_with_columns,
            records,
            jobs=jobs,
            label="serve.index.embed",
        )
        signatures = self.blocker.prepare_reference(
            np.concatenate([vectors for vectors, _ in parts])
        )
        buckets: list[dict[bytes, list[int]]] = []
        for band in self._bands:
            band_buckets: dict[bytes, list[int]] = defaultdict(list)
            for i, signature in enumerate(signatures):
                band_buckets[signature[band].tobytes()].append(i)
            buckets.append(dict(band_buckets))
        with span("serve.index.columns", records=len(records)) as sp:
            store = np.concatenate([stacks for _, stacks in parts])
            store.flags.writeable = False
            sp.meta["nbytes"] = store.nbytes
        self._ids = keys
        self._records = dict(zip(keys, records))
        self._buckets = buckets
        self._column_store = store
        self._row_of = row_of
        return self

    @property
    def built(self) -> bool:
        return self._buckets is not None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> "list[str]":
        """Reference ids in build order (copy; safe to partition)."""
        return list(self._ids)

    def shard_view(self, member_ids: "list[str]") -> "BlockingIndex":
        """A shard of this index restricted to ``member_ids``.

        The view **shares the frozen blocker** — centering/whitening and
        hyperplanes fitted over the *full* reference table — so
        ``view.band_keys(e) == self.band_keys(e)``: a query's band keys,
        computed once by any view, probe every shard, and the shard
        candidate sets exactly partition the global candidate set,
        ``view.candidates(k) == [c for c in self.candidates(k) if c in
        member_ids]`` for ``k = self.band_keys(e)``.  Had each shard fitted
        its own transform, the hash functions would diverge and
        scatter-gather answers would depend on the shard count.  Buckets,
        records and the read-only column store are sliced (rows gathered,
        empty buckets dropped; a repeated member is refused), so a view
        costs memory proportional to its members only.
        """
        if self._buckets is None or self._column_store is None:
            raise RuntimeError("index not built; call build() first")
        members = [str(i) for i in member_ids]
        unknown = [i for i in members if i not in self._row_of]
        if unknown:
            raise KeyError(f"ids not in index: {unknown[:3]}")
        row_of = _rows_by_id(members)
        view = BlockingIndex.__new__(BlockingIndex)
        view.embedder = self.embedder
        view.blocker = self.blocker  # shared frozen transform + hyperplanes
        view._bands = self._bands
        view._ids = members
        view._records = {i: self._records[i] for i in members}
        local_of = {self._row_of[i]: local for local, i in enumerate(members)}
        view._buckets = [
            {
                key: kept
                for key, rows in band_buckets.items()
                if (kept := [local_of[r] for r in rows if r in local_of])
            }
            for band_buckets in self._buckets
        ]
        view._column_store = self._column_store[[self._row_of[i] for i in members]]
        view._column_store.flags.writeable = False
        view._row_of = row_of
        return view

    # ------------------------------------------------------------------ #
    # probe
    # ------------------------------------------------------------------ #

    def embed_queries(self, records: list[dict[str, object]]) -> np.ndarray:
        """Tuple embeddings ``(n, dim)`` for query records (same embedder
        as the index)."""
        return self.embed_queries_with_columns(records)[0]

    def embed_queries_with_columns(
        self, records: list[dict[str, object]]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Tuple embeddings ``(n, dim)`` and per-attribute stacks
        ``(n, columns, dim)`` of query records.

        One token pass over the batch makes both (bit-identical to
        ``embedder.embed`` and ``embedder.embed_columns`` per record):
        serving embeds a never-seen query once and hands its column stack
        to the scoring stage.
        """
        return self.embedder.embed_many_with_columns(records)

    def band_keys(self, embedding: np.ndarray) -> "list[bytes]":
        """The bucket key of ``embedding`` in every band, bands in order.

        One query row is hashed alone: a batched product can differ from
        the one-row product in the last bits, and a sign near zero would
        then make a query's candidates depend on its batch-mates.  Every
        shard view shares the blocker, so any view's keys probe them all.
        """
        if self._buckets is None:
            raise RuntimeError("index not built; call build() first")
        signature = self.blocker.query_signatures(embedding.reshape(1, -1))[0]
        return [signature[band].tobytes() for band in self._bands]

    def candidates(self, band_keys: "list[bytes]") -> list[str]:
        """Reference ids sharing at least one of ``band_keys``' buckets.

        Takes :meth:`band_keys`' output.  Returned sorted, so downstream
        pair assembly (and therefore cache key order and scoring batch
        layout) is deterministic.
        """
        if self._buckets is None:
            raise RuntimeError("index not built; call build() first")
        found: set[int] = set()
        for key, band_buckets in zip(band_keys, self._buckets, strict=True):
            found.update(band_buckets.get(key, ()))
        return sorted(map(self._ids.__getitem__, found))

    def record(self, reference_id: str) -> dict[str, object]:
        """The indexed record for ``reference_id`` (KeyError when unknown)."""
        return self._records[reference_id]

    # ------------------------------------------------------------------ #
    # kernel gathers
    # ------------------------------------------------------------------ #

    @property
    def column_store(self) -> np.ndarray:
        """The read-only float64 reference ``(records, columns, dim)`` store."""
        if self._column_store is None:
            raise RuntimeError("index not built; call build() first")
        return self._column_store

    def column_rows(self, reference_ids: list[str]) -> np.ndarray:
        """A fresh ``(len(ids), columns, dim)`` gather from the store, each
        row bit-identical to ``embedder.embed_columns(record)``."""
        return self.column_store[[self._row_of[str(i)] for i in reference_ids]]


def _rows_by_id(ids: "list[str]") -> "dict[str, int]":
    """``{id: position}`` over ``ids``; ValueError names the first repeated id."""
    row_of = {i: row for row, i in enumerate(ids)}
    if len(row_of) < len(ids):
        repeat = next(i for row, i in enumerate(ids) if row_of[i] != row)
        raise ValueError(f"duplicate reference id {repeat!r}")
    return row_of
