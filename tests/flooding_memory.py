"""Traced peak memory of one array-core flooding batch, and its bound.

The array core delivers a flooding hop in blocks of
``engine._FLOOD_BLOCK_ROWS`` frontier rows, so a batch's memory is its
per-(message, node) state plus one block's temporaries, whatever the
frontier. :func:`peak_bound` states that budget; a hop built over the
whole frontier at once (frontier × out-degree candidates) exceeds it
from N ≈ 10⁴ up.

Shared by ``tests/test_arraysim.py`` (N = 20 000) and CI, which runs
the check at N = 100 000, where a batch of whole-frontier hops traced
223 MB, and also compares the batch with the object core::

    PYTHONPATH=src:. python -m tests.flooding_memory 100000

Nothing here reads a clock: the budget is bytes, not seconds.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from typing import List, Sequence, Tuple

import numpy as np

from repro.arraysim import ArrayOverlay, disseminate_many, engine
from repro.dissemination.executor import disseminate as object_disseminate
from repro.dissemination.policies import FloodingPolicy
from repro.dissemination.snapshot import OverlaySnapshot

MESSAGES = 5
FANOUT = 3
VIEW = 20

# Bytes per (message, node) of the batch: ``notified`` (bool, 1) and
# ``claim_pos`` (int32, 4); the per-hop logs of frontier messages
# (int32, 4) and send counts (int64, 8); the current and the next
# frontier (3 × int32 each, 24); and the copies the accounting makes of
# the logs after the last hop (int64 keys and float64 weights, 16). 57,
# rounded up.
STATE_BYTES = 64
# Bytes per (row, out-link slot) of one block: the gathered rows and
# their validity mask (5), then per candidate its target, message and
# sender (int32, 12), its int64 key (8) and fresh mask (1), the fresh
# keys' copies, positions and echoes (about 33), and the first
# receipts' index (8). 67, rounded up.
BLOCK_BYTES = 72


def synthetic_snapshot(n: int, seed: int = 42) -> OverlaySnapshot:
    """A converged-shape RINGCAST overlay: a random ring permutation for
    the d-links plus ``VIEW`` uniformly random r-links per node."""
    rng = random.Random(seed)
    ids = list(range(n))
    perm = ids[:]
    rng.shuffle(perm)
    pos = {node: i for i, node in enumerate(perm)}
    return OverlaySnapshot(
        kind="ringcast",
        rlinks={
            node: tuple(rng.choice(ids) for _ in range(VIEW)) for node in ids
        },
        dlinks={
            node: (perm[(pos[node] - 1) % n], perm[(pos[node] + 1) % n])
            for node in ids
        },
        alive_ids=tuple(ids),
    )


def origins_of(snapshot: OverlaySnapshot, seed: int = 43) -> List[int]:
    rng = random.Random(seed)
    return [rng.choice(snapshot.alive_ids) for _ in range(MESSAGES)]


def peak_bound(overlay: ArrayOverlay, messages: int) -> int:
    """Bytes one flooding batch may trace: its state plus one block."""
    width = overlay.padded("out")[0].shape[1]
    states = messages * overlay.universe_size
    block_rows = min(engine._FLOOD_BLOCK_ROWS, states)
    return STATE_BYTES * states + BLOCK_BYTES * block_rows * width


def traced_flooding(
    overlay: ArrayOverlay, origins: Sequence[int]
) -> Tuple[list, int]:
    """One fast-mode flooding batch and the peak bytes it traced.

    A batch first builds and memoises the overlay's padded flooding
    union; that is the overlay's, not the batch's, so it is built
    before tracing starts.
    """
    overlay.padded("out")
    tracemalloc.start()
    try:
        results = disseminate_many(
            overlay,
            FloodingPolicy(),
            FANOUT,
            origins,
            np.random.default_rng(0),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return results, peak


def main(argv: Sequence[str]) -> int:
    n = int(argv[0]) if argv else 100_000
    snapshot = synthetic_snapshot(n)
    overlay = ArrayOverlay.from_snapshot(snapshot)
    origins = origins_of(snapshot)
    results, peak = traced_flooding(overlay, origins)
    bound = peak_bound(overlay, len(origins))
    print(
        f"N={n}, {len(origins)} messages: traced peak "
        f"{peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    )
    failed = False
    if peak > bound:
        print("FAIL: the flooding batch traced more than its bound")
        failed = True
    for origin, result in zip(origins, results):
        reference = object_disseminate(
            snapshot, FloodingPolicy(), FANOUT, origin, random.Random(0)
        )
        if result != reference:
            print(f"FAIL: message from {origin} differs from the object core")
            failed = True
    if not failed:
        print("flooding batch equals the object core and stays in bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
