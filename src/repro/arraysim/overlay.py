"""Struct-of-arrays overlay representation.

An :class:`ArrayOverlay` is the frozen overlay flattened into numpy
arrays: one sorted *universe* of node IDs (alive nodes plus every dead
node still lingering in somebody's view), CSR offset/target tables for
the r-link and d-link views, a boolean alive mask, and the ring-ID /
join-cycle annotations. Link targets are stored as **indices into the
universe**, not raw IDs, so the dissemination engine never touches a
Python dict on the hot path.

Link order is preserved exactly as the object snapshot stores it —
selection-policy semantics (and therefore compat-mode RNG replay)
depend on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.dissemination.snapshot import OverlaySnapshot

__all__ = ["ArrayOverlay"]


def _csr(
    table: Dict[int, Tuple[int, ...]],
    ids: np.ndarray,
    index_of: Dict[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, targets-as-universe-indices, has-key mask)."""
    counts = np.zeros(len(ids) + 1, dtype=np.int64)
    haskey = np.zeros(len(ids), dtype=bool)
    flat: list = []
    for row, node_id in enumerate(ids.tolist()):
        links = table.get(node_id)
        if links is None:
            continue
        haskey[row] = True
        counts[row + 1] = len(links)
        for link in links:
            flat.append(index_of[link])
    indptr = np.cumsum(counts)
    targets = np.asarray(flat, dtype=np.int64)
    return indptr, targets, haskey


class ArrayOverlay:
    """Immutable array view of an :class:`OverlaySnapshot`.

    Attributes:
        kind: Overlay family (same vocabulary as the object snapshot).
        ids: Sorted node-ID universe, ``int64``.
        alive: Boolean mask over the universe.
        alive_order: Universe indices in ``snapshot.alive_ids`` order
            (drives the ``missed_ids`` ordering contract).
        r_indptr / r_targets: CSR r-link table (universe indices).
        d_indptr / d_targets: CSR d-link table (universe indices).
        ring_ids / join_cycles: Per-universe-row annotations (0 where
            the object snapshot had no entry).
        frozen_at_cycle: Copied from the object snapshot.
    """

    def __init__(
        self,
        kind: str,
        ids: np.ndarray,
        alive: np.ndarray,
        alive_order: np.ndarray,
        r_indptr: np.ndarray,
        r_targets: np.ndarray,
        d_indptr: np.ndarray,
        d_targets: np.ndarray,
        ring_ids: np.ndarray = None,
        join_cycles: np.ndarray = None,
        frozen_at_cycle: int = 0,
        r_haskey: np.ndarray = None,
        d_haskey: np.ndarray = None,
    ) -> None:
        self.kind = kind
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        self.alive = np.ascontiguousarray(alive, dtype=bool)
        self.alive_order = np.ascontiguousarray(alive_order, dtype=np.int64)
        self.r_indptr = np.ascontiguousarray(r_indptr, dtype=np.int64)
        self.r_targets = np.ascontiguousarray(r_targets, dtype=np.int64)
        self.d_indptr = np.ascontiguousarray(d_indptr, dtype=np.int64)
        self.d_targets = np.ascontiguousarray(d_targets, dtype=np.int64)
        n = len(self.ids)
        if ring_ids is None:
            ring_ids = np.zeros(n, dtype=np.int64)
        if join_cycles is None:
            join_cycles = np.zeros(n, dtype=np.int64)
        self.ring_ids = np.ascontiguousarray(ring_ids, dtype=np.int64)
        self.join_cycles = np.ascontiguousarray(join_cycles, dtype=np.int64)
        self.frozen_at_cycle = int(frozen_at_cycle)
        self._pad_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        # Which universe rows were *keys* of the object link tables —
        # needed so codec round-trips preserve empty-view entries.
        if r_haskey is None:
            r_haskey = np.zeros(n, dtype=bool)
            r_haskey[self.r_indptr[1:] > self.r_indptr[:-1]] = True
        if d_haskey is None:
            d_haskey = np.zeros(n, dtype=bool)
            d_haskey[self.d_indptr[1:] > self.d_indptr[:-1]] = True
        self.r_haskey = np.ascontiguousarray(r_haskey, dtype=bool)
        self.d_haskey = np.ascontiguousarray(d_haskey, dtype=bool)
        self._index_of: Dict[int, int] = {}
        self._out_cache = None
        self._ddedup_cache = None
        self._all_alive = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: OverlaySnapshot) -> "ArrayOverlay":
        """Flatten an object snapshot into arrays.

        The universe is every ID that appears anywhere: alive nodes,
        view owners, and link targets (dead nodes keep appearing in
        their old neighbors' views after churn or a kill).
        """
        id_set = set(snapshot.rlinks)
        id_set.update(snapshot.dlinks)
        id_set.update(snapshot.alive_ids)
        for links in snapshot.rlinks.values():
            id_set.update(links)
        for links in snapshot.dlinks.values():
            id_set.update(links)
        ids = np.fromiter(sorted(id_set), dtype=np.int64, count=len(id_set))
        index_of = {node_id: i for i, node_id in enumerate(ids.tolist())}
        alive = np.zeros(len(ids), dtype=bool)
        alive_order = np.fromiter(
            (index_of[i] for i in snapshot.alive_ids),
            dtype=np.int64,
            count=len(snapshot.alive_ids),
        )
        alive[alive_order] = True
        r_indptr, r_targets, r_haskey = _csr(snapshot.rlinks, ids, index_of)
        d_indptr, d_targets, d_haskey = _csr(snapshot.dlinks, ids, index_of)
        ring_ids = np.fromiter(
            (snapshot.ring_ids.get(i, 0) for i in ids.tolist()),
            dtype=np.int64,
            count=len(ids),
        )
        join_cycles = np.fromiter(
            (snapshot.join_cycles.get(i, 0) for i in ids.tolist()),
            dtype=np.int64,
            count=len(ids),
        )
        overlay = cls(
            kind=snapshot.kind,
            ids=ids,
            alive=alive,
            alive_order=alive_order,
            r_indptr=r_indptr,
            r_targets=r_targets,
            d_indptr=d_indptr,
            d_targets=d_targets,
            ring_ids=ring_ids,
            join_cycles=join_cycles,
            frozen_at_cycle=snapshot.frozen_at_cycle,
            r_haskey=r_haskey,
            d_haskey=d_haskey,
        )
        overlay._index_of = index_of
        return overlay

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def population(self) -> int:
        """Number of alive nodes."""
        return len(self.alive_order)

    @property
    def universe_size(self) -> int:
        """Number of distinct IDs (alive + lingering dead)."""
        return len(self.ids)

    def index_of(self, node_id: int) -> int:
        """Universe index of ``node_id`` (-1 when unknown)."""
        if not self._index_of:
            self._index_of = {
                nid: i for i, nid in enumerate(self.ids.tolist())
            }
        return self._index_of.get(node_id, -1)

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the flooding union: d-links first, deduplicated.

        Built lazily (only flooding needs it) and memoised — the union
        order must match :meth:`OverlaySnapshot.out_links` exactly: a
        row's d-links then its r-links, each kept unless an earlier
        link of the row has the same target.
        """
        if self._out_cache is None:
            n = len(self.ids)
            d_lens = np.diff(self.d_indptr)
            r_lens = np.diff(self.r_indptr)
            width_d = int(d_lens.max()) if n else 0
            width_r = int(r_lens.max()) if n else 0
            cols = np.arange(width_d + width_r, dtype=np.int32)
            # ``[d | r]`` rows, each pad slot a distinct negative value
            # that matches neither a link nor another pad.
            mat = np.empty((n, cols.size), dtype=np.int32)
            mat[:] = -1 - cols
            mat[:, :width_d][cols[:width_d] < d_lens[:, None]] = self.d_targets
            mat[:, width_d:][cols[:width_r] < r_lens[:, None]] = self.r_targets
            keep = mat >= 0
            for col in range(1, cols.size):
                earlier = mat[:, :col] == mat[:, col, None]
                keep[:, col] &= ~earlier.any(axis=1)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
            self._out_cache = (indptr, mat[keep].astype(np.int64))
        return self._out_cache

    def padded(self, which: str) -> Tuple[np.ndarray, np.ndarray]:
        """Padded row-matrix view of a link table: ``(mat, lens)``.

        ``mat`` is ``(universe, max_degree)`` int32 with ``-1`` fill;
        row ``i``'s first ``lens[i]`` entries are its links in view
        order. The fast engine indexes whole frontiers out of this in
        one fancy-index op instead of CSR gathers. ``which`` is ``"r"``,
        ``"d"``, or ``"out"`` (the flooding union). Memoised.
        """
        cached = self._pad_cache.get(which)
        if cached is not None:
            return cached
        if which == "r":
            indptr, targets = self.r_indptr, self.r_targets
        elif which == "d":
            indptr, targets = self.d_indptr, self.d_targets
        elif which == "out":
            indptr, targets = self.out_csr()
        else:
            raise ValueError(f"unknown link table {which!r}")
        lens = np.diff(indptr).astype(np.int64)
        width = int(lens.max()) if lens.size else 0
        mat = np.full((len(self.ids), width), -1, dtype=np.int32)
        valid = np.arange(width, dtype=np.int64)[None, :] < lens[:, None]
        mat[valid] = targets
        self._pad_cache[which] = (mat, lens)
        return mat, lens

    @property
    def all_alive(self) -> bool:
        """True when no dead node lingers in the universe (memoised)."""
        if self._all_alive is None:
            self._all_alive = bool(self.alive.all())
        return self._all_alive

    def d_dedup(self) -> np.ndarray:
        """Per-universe-row d-link validity base: in-length and not a
        duplicate of an earlier column. Sender exclusion commutes with
        first-occurrence dedup, so the engine just ANDs a sender
        compare on top per hop. Memoised.
        """
        if self._ddedup_cache is None:
            dmat, dlens = self.padded("d")
            width = dmat.shape[1]
            valid = (
                np.arange(width, dtype=np.int64)[None, :] < dlens[:, None]
            )
            for col in range(1, width):
                dup = np.zeros(dmat.shape[0], dtype=bool)
                for prev in range(col):
                    dup |= valid[:, prev] & (dmat[:, prev] == dmat[:, col])
                valid[:, col] &= ~dup
            self._ddedup_cache = valid
        return self._ddedup_cache

    def to_snapshot(self) -> OverlaySnapshot:
        """Rebuild the equivalent object snapshot (codec round-trips)."""
        ids = self.ids.tolist()
        rlinks = self._table(ids, self.r_indptr, self.r_targets, self.r_haskey)
        dlinks = self._table(ids, self.d_indptr, self.d_targets, self.d_haskey)
        alive_ids = tuple(ids[i] for i in self.alive_order.tolist())
        ring_ids = {
            ids[i]: int(v)
            for i, v in enumerate(self.ring_ids.tolist())
            if v != 0
        }
        join_cycles = {
            ids[i]: int(v)
            for i, v in enumerate(self.join_cycles.tolist())
            if v != 0
        }
        return OverlaySnapshot(
            kind=self.kind,
            rlinks=rlinks,
            dlinks=dlinks,
            alive_ids=alive_ids,
            ring_ids=ring_ids,
            join_cycles=join_cycles,
            frozen_at_cycle=self.frozen_at_cycle,
        )

    @staticmethod
    def _table(
        ids: list,
        indptr: np.ndarray,
        targets: np.ndarray,
        haskey: np.ndarray,
    ) -> Dict[int, Tuple[int, ...]]:
        ptr = indptr.tolist()
        tgt = targets.tolist()
        keymask = haskey.tolist()
        table: Dict[int, Tuple[int, ...]] = {}
        for row, node_id in enumerate(ids):
            if not keymask[row]:
                continue
            links = tgt[ptr[row]:ptr[row + 1]]
            table[node_id] = tuple(ids[i] for i in links)
        return table

    def __repr__(self) -> str:
        return (
            f"ArrayOverlay(kind={self.kind!r}, alive={self.population}, "
            f"universe={self.universe_size})"
        )
