"""Sweep-engine scaling: workers=1 vs workers=N — plus the overlay
snapshot store's cold-vs-warm warm-up savings.

Does the process pool actually buy wall clock on multi-core hardware?
The same grid runs through the inline backend (serial reference) and
the process pool at ``sweep_workers()`` width. Timings land in
``results/BENCH_sweep.json`` so the speedup is recorded data, not an
anecdote; byte-identity across the runs is asserted while we're at it
(timing a sweep that silently diverged would measure nothing).

The snapshot-store section measures the same grid cold (empty store,
every overlay built and persisted) and warm (second run, every warm-up
skipped), asserting byte-identity against the store-less reference in
both directions, plus the opt-in ``overlay_reuse="grid"`` mode where
fanout siblings share one overlay per (protocol, replicate). CI fails
if the warm run is not faster than the cold one — the store's whole
reason to exist.

Grid size is deliberately modest (16 trials at N=60) so the bench runs
in tens of seconds; the *ratio* between serial and parallel time is
the signal, and on a single-core container it honestly reports ~1x for
the pool (the snapshot-store ratio is CPU-count-independent: it trades
gossip cycles for a disk read).
"""

import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import BENCH_SEED, once, record_json, sweep_workers
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import flat_spec

BASE = ExperimentConfig(
    num_nodes=60, warmup_cycles=30, seed=BENCH_SEED
)

GRID = flat_spec(
    scenarios=("static",),
    protocols=("randcast", "ringcast"),
    num_nodes=(60,),
    fanouts=(1, 2, 3, 4),
    replicates=2,
    num_messages=3,
)


def _timed(**kwargs):
    started = time.perf_counter()
    result = run_sweep(
        GRID, base_config=BASE, root_seed=BENCH_SEED, **kwargs
    )
    return result, time.perf_counter() - started


def test_sweep_backend_scaling(benchmark):
    workers = max(2, sweep_workers())

    serial, serial_seconds = _timed(backend="inline")
    parallel, parallel_seconds = once(
        benchmark,
        lambda: _timed(workers=workers, backend="process"),
    )

    # Timing a diverged sweep would measure nothing.
    assert parallel.to_json() == serial.to_json()

    # -- overlay snapshot store: cold build vs warm reuse --------------
    store = Path(tempfile.mkdtemp(prefix="bench_snapshots_"))
    try:
        cold, cold_seconds = _timed(snapshot_cache=store)
        warm, warm_seconds = _timed(snapshot_cache=store)
        assert cold.to_json() == serial.to_json()
        assert warm.to_json() == serial.to_json()
        overlays_stored = len(list(store.glob("overlay_*.json")))

        grid_store = Path(tempfile.mkdtemp(prefix="bench_grid_snaps_"))
        try:
            grid_mode, grid_seconds = _timed(
                overlay_reuse="grid", snapshot_cache=grid_store
            )
            grid_again, _ = _timed(overlay_reuse="grid")
            # Different (documented) experiment design, but
            # deterministic — with or without the store.
            assert grid_again.to_json() == grid_mode.to_json()
            # Measured, not assumed: one overlay per (protocol,
            # replicate) for the single-family grid.
            grid_overlays_built = len(
                list(grid_store.glob("overlay_*.json"))
            )
            assert grid_overlays_built == len(GRID.protocols) * (
                GRID.replicates
            ), grid_overlays_built
        finally:
            shutil.rmtree(grid_store, ignore_errors=True)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    # The store's raison d'etre: a warm multi-fanout grid must beat a
    # cold one. CI turns this ratio into a hard gate.
    assert warm_seconds < cold_seconds, (
        f"warm snapshot-store run ({warm_seconds:.2f}s) is not faster "
        f"than cold ({cold_seconds:.2f}s)"
    )

    record_json(
        "BENCH_sweep",
        {
            "grid": {
                "scenarios": [s.name for s in GRID.scenarios],
                "protocols": list(GRID.protocols),
                "num_nodes": list(GRID.num_nodes),
                "fanouts": list(GRID.fanouts),
                "replicates": GRID.replicates,
                "num_messages": GRID.num_messages,
                "trials": len(GRID.expand()),
            },
            "spec_fingerprint": GRID.fingerprint(),
            "cpu_count": os.cpu_count(),
            # Hostname-independent hardware context: committed numbers
            # from a 1-CPU container must not read as multi-core data.
            "hardware": {
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "system": platform.system(),
                "python": platform.python_version(),
                "caveat": (
                    "committed numbers come from a 1-CPU dev container, "
                    "so parallel speedups here are honest ~1x; the "
                    "BENCH_sweep artifact of the CI sweep-timing job is "
                    "the authoritative multi-core record"
                ),
            },
            "workers": workers,
            "inline_seconds": round(serial_seconds, 3),
            "process_seconds": round(parallel_seconds, 3),
            "process_speedup": round(
                serial_seconds / parallel_seconds, 3
            ),
            "byte_identical_across_backends": True,
            "snapshot_store": {
                "overlays_stored": overlays_stored,
                "cold_seconds": round(cold_seconds, 3),
                "warm_seconds": round(warm_seconds, 3),
                "warm_speedup": round(cold_seconds / warm_seconds, 3),
                "byte_identical_to_no_store": True,
                "grid_mode_seconds": round(grid_seconds, 3),
                "grid_mode_speedup_vs_inline": round(
                    serial_seconds / grid_seconds, 3
                ),
                "grid_mode_overlays_built": grid_overlays_built,
            },
        },
    )
