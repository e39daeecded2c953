"""Compact ``.npz`` snapshot codec for the snapshot store.

The PR 5 store persists overlays as canonical JSON, which balloons past
a megabyte per overlay in the 10⁴–10⁵-node range. This codec packs the
same information into a ``numpy.savez_compressed`` payload: the sorted
ID universe once, link tables as CSR index arrays, and a tiny JSON
header for the scalar metadata.

Decoding follows the store's never-crash contract: any malformed,
truncated, or corrupt payload raises :class:`SnapshotCodecError`, which
callers translate into a cache miss.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.arraysim.overlay import ArrayOverlay
from repro.dissemination.snapshot import OverlaySnapshot

__all__ = [
    "CODEC_FORMAT",
    "SnapshotCodecError",
    "decode_snapshot",
    "encode_snapshot",
]

#: Version tag embedded in every payload; bump on layout changes.
CODEC_FORMAT = 1

_ARRAY_KEYS = (
    "ids",
    "alive_order",
    "r_indptr",
    "r_targets",
    "r_haskey",
    "d_indptr",
    "d_targets",
    "d_haskey",
    "ring_ids",
    "join_cycles",
)


class SnapshotCodecError(ValueError):
    """A payload could not be decoded into an overlay snapshot."""


def encode_snapshot(snapshot) -> bytes:
    """Pack an overlay into compressed ``.npz`` bytes.

    Accepts an :class:`OverlaySnapshot` or an already-built
    :class:`ArrayOverlay`.
    """
    overlay = (
        snapshot
        if isinstance(snapshot, ArrayOverlay)
        else ArrayOverlay.from_snapshot(snapshot)
    )
    header = json.dumps(
        {
            "format": CODEC_FORMAT,
            "kind": overlay.kind,
            "frozen_at_cycle": overlay.frozen_at_cycle,
        },
        sort_keys=True,
    )
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
        ids=overlay.ids,
        alive_order=overlay.alive_order,
        r_indptr=overlay.r_indptr,
        r_targets=overlay.r_targets,
        r_haskey=overlay.r_haskey,
        d_indptr=overlay.d_indptr,
        d_targets=overlay.d_targets,
        d_haskey=overlay.d_haskey,
        ring_ids=overlay.ring_ids,
        join_cycles=overlay.join_cycles,
    )
    return buffer.getvalue()


def decode_overlay(payload: bytes) -> ArrayOverlay:
    """Decode ``.npz`` bytes into an :class:`ArrayOverlay`.

    Raises:
        SnapshotCodecError: On any malformed payload — truncation,
            corrupt compressed data, missing arrays, bad header JSON,
            arrays of the wrong dtype, rank or shape, or arrays that
            disagree with each other.
    """
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            arrays = {key: data[key] for key in _ARRAY_KEYS}
    # ``np.load`` reads untrusted bytes through zipfile, zlib and
    # numpy's header parser, whose failures are an open set of types
    # (``zlib.error``, ``NotImplementedError``, ``tokenize.TokenError``
    # among them): every one of them is a malformed payload.
    except Exception as exc:
        raise SnapshotCodecError(f"bad snapshot payload: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CODEC_FORMAT:
        raise SnapshotCodecError(
            f"unsupported codec format: {header!r}"
        )
    n = arrays["ids"].size
    try:
        _check_dtypes(arrays)
        overlay = ArrayOverlay(
            kind=str(header["kind"]),
            ids=arrays["ids"],
            alive=np.zeros(n, dtype=bool),
            alive_order=arrays["alive_order"],
            r_indptr=arrays["r_indptr"],
            r_targets=arrays["r_targets"],
            d_indptr=arrays["d_indptr"],
            d_targets=arrays["d_targets"],
            ring_ids=arrays["ring_ids"],
            join_cycles=arrays["join_cycles"],
            frozen_at_cycle=int(header["frozen_at_cycle"]),
            r_haskey=arrays["r_haskey"],
            d_haskey=arrays["d_haskey"],
        )
        overlay.alive[overlay.alive_order] = True
        _validate(overlay)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SnapshotCodecError(
            f"inconsistent snapshot arrays: {exc}"
        ) from exc
    return overlay


def decode_snapshot(payload: bytes) -> OverlaySnapshot:
    """Decode ``.npz`` bytes back into an object snapshot."""
    return decode_overlay(payload).to_snapshot()


def _check_dtypes(arrays) -> None:
    """Every array is 1-D; masks are bool and the rest integers, before
    the overlay's constructor would cast a float or bool array into
    plausible-looking integers."""
    for key, array in arrays.items():
        if array.ndim != 1:
            raise ValueError(f"{key} is not 1-D")
        if key.endswith("_haskey"):
            if array.dtype != np.bool_:
                raise ValueError(f"{key} is not a bool mask")
        elif not np.issubdtype(array.dtype, np.integer):
            raise ValueError(f"{key} is not an integer array")


def _validate(overlay: ArrayOverlay) -> None:
    """Structural sanity checks so corrupt arrays fail loudly here."""
    n = overlay.universe_size
    # ``index_of`` and ``from_snapshot`` assume a sorted, unique universe.
    if np.any(np.diff(overlay.ids) <= 0):
        raise ValueError("ids are not strictly increasing")
    if overlay.alive_order.size == 0:
        raise ValueError("snapshot has no alive nodes")
    for indptr, targets in (
        (overlay.r_indptr, overlay.r_targets),
        (overlay.d_indptr, overlay.d_targets),
    ):
        if indptr.size != n + 1 or indptr[0] != 0:
            raise ValueError("bad CSR indptr")
        if np.any(np.diff(indptr) < 0) or int(indptr[-1]) != targets.size:
            raise ValueError("bad CSR extents")
        if targets.size and (
            int(targets.min()) < 0 or int(targets.max()) >= n
        ):
            raise ValueError("CSR target out of range")
    if overlay.alive_order.size and (
        int(overlay.alive_order.min()) < 0
        or int(overlay.alive_order.max()) >= n
    ):
        raise ValueError("alive index out of range")
    # ``alive`` was set from ``alive_order``: fewer marks, a repeat.
    if np.count_nonzero(overlay.alive) != overlay.alive_order.size:
        raise ValueError("alive index repeated")
    for key in ("ring_ids", "join_cycles", "r_haskey", "d_haskey"):
        if getattr(overlay, key).size != n:
            raise ValueError(f"{key} size mismatch")
