"""Array-core scaling: object vs vectorized dissemination, 10⁴–10⁵⁺ nodes.

The tentpole claim of the array-native core is quantitative: at
N=10,000 the vectorized executor must beat the object core on RINGCAST
by ``RINGCAST_SPEEDUP_FLOOR``, and it must complete static trials at
N=100,000 — a size the per-node object core cannot touch interactively.
This bench measures both and records them in
``results/BENCH_scale.json`` so CI can gate on regressions.

Methodology (single-core honest): overlays are *synthetic converged*
topologies — a random ring permutation for the d-links plus ``VIEW``
uniformly random r-links per node, the same shape a warmed
CYCLON+VICINITY network freezes into — because really gossiping 10⁵
nodes to convergence would dwarf the thing being measured. Each
(policy, N) cell runs one untimed warm-up batch (first-touch page
faults and memoised CSR padding are setup cost, not dissemination
cost), then ``REPS`` timed batches of ``MESSAGES`` messages; the
recorded figure is the median. The object-core reference runs the same
messages one at a time, exactly as ``sweep_snapshot`` would.

Flooding is reported but not gated: its per-hop work is
delivery-bound (every link every hop), so the array win is the
gather/dedup constant (~10–11× since a flooding hop runs in row
blocks, 8.8× before), not the selection vectorization of the
randomised policies — expected, and documented in
``docs/performance.md``.

The Sanghavi-style mean-field check closes the loop on correctness at
scale: RANDCAST's measured miss ratio at N=50,000 must track the
``π = 1 − exp(−F·π)`` fixed point (see :mod:`repro.metrics.theory`),
pinning that the vectorized sampler is statistically faithful, not
just fast.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, once, record_json
from repro.arraysim import ARRAY_CORE_MIN_NODES, ArrayOverlay, disseminate_many
from repro.dissemination.executor import disseminate as object_disseminate
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
)
from repro.dissemination.snapshot import OverlaySnapshot
from repro.metrics.theory import randcast_expected_miss_ratio

VIEW = 20
FANOUT = 3
MESSAGES = 30
REPS = 3
SPEEDUP_NODES = 10_000
# Array ÷ object ms/msg, so the floor moves whenever the object core
# does; it is meant to hold the array core near ≈ 3 ms/msg. It sits
# below the exact translation of that bar (≈ 12.8) because the ratio is
# noisy: eight runs on a shared 2-vCPU host read 11.0–21.6 (median
# 14.3), and a floor of 12.8 would have failed three of them.
RINGCAST_SPEEDUP_FLOOR = 11.0
# Pinned CI floor for the N=50k array core (measured ~4M nodes/s on a
# 1-CPU container; 4× headroom for slower public runners).
NODES_PER_SEC_FLOOR_50K = 1_000_000

_EXTRA_NODES = {"medium": (250_000,), "paper": (250_000, 500_000)}
SCALE_NODES = (10_000, 50_000, 100_000) + _EXTRA_NODES.get(
    os.environ.get("REPRO_SCALE", "small"), ()
)

POLICIES = {
    "ringcast": RingCastPolicy(),
    "randcast": RandCastPolicy(),
    "flooding": FloodingPolicy(),
}


def synthetic_overlay(
    n: int, kind: str = "ringcast", view: int = VIEW, seed: int = BENCH_SEED
) -> OverlaySnapshot:
    """A converged-shape overlay without the 10⁵-node gossip bill:
    random ring permutation d-links + ``view`` random r-links each."""
    rng = random.Random(seed)
    ids = list(range(n))
    perm = ids[:]
    rng.shuffle(perm)
    pos = {node: i for i, node in enumerate(perm)}
    dlinks = {
        node: (perm[(pos[node] - 1) % n], perm[(pos[node] + 1) % n])
        for node in ids
    }
    rlinks = {
        node: tuple(rng.choice(ids) for _ in range(view)) for node in ids
    }
    return OverlaySnapshot(
        kind=kind,
        rlinks=rlinks,
        dlinks=dlinks if kind != "randcast" else {},
        alive_ids=tuple(ids),
        ring_ids={},
        join_cycles={},
        frozen_at_cycle=0,
    )


def _origins(snapshot: OverlaySnapshot, count: int) -> list:
    rng = random.Random(BENCH_SEED + 1)
    return [rng.choice(snapshot.alive_ids) for _ in range(count)]


def _median_seconds(fn, reps: int = REPS) -> float:
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _time_array(overlay, policy, fanout, origins):
    generator = np.random.Generator(np.random.PCG64(BENCH_SEED))
    disseminate_many(overlay, policy, fanout, origins, generator)  # warm
    return _median_seconds(
        lambda: disseminate_many(
            overlay,
            policy,
            fanout,
            origins,
            np.random.Generator(np.random.PCG64(BENCH_SEED)),
        )
    )


def _time_object(snapshot, policy, fanout, origins):
    def run():
        for index, origin in enumerate(origins):
            object_disseminate(
                snapshot, policy, fanout, origin, random.Random(index)
            )

    run()  # warm
    return _median_seconds(run)


def test_array_core_scaling(benchmark):
    record = {
        "methodology": (
            "synthetic converged overlays (ring d-links + "
            f"{VIEW} random r-links); per cell: 1 untimed warm-up "
            f"batch, then median of {REPS} timed batches of "
            f"{MESSAGES} messages"
        ),
        "hardware": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "fanout": FANOUT,
        "view_size": VIEW,
        "messages_per_batch": MESSAGES,
        "reps": REPS,
        "array_core_min_nodes": ARRAY_CORE_MIN_NODES,
    }

    def run_bench():
        # -- per-policy speedup at N=10,000 ----------------------------
        speedups = {}
        for name, policy in POLICIES.items():
            kind = "randcast" if name == "randcast" else "ringcast"
            snapshot = synthetic_overlay(SPEEDUP_NODES, kind=kind)
            overlay = ArrayOverlay.from_snapshot(snapshot)
            origins = _origins(snapshot, MESSAGES)
            object_seconds = _time_object(
                snapshot, policy, FANOUT, origins
            )
            array_seconds = _time_array(overlay, policy, FANOUT, origins)
            speedups[name] = {
                "object_ms_per_message": round(
                    object_seconds / MESSAGES * 1e3, 3
                ),
                "array_ms_per_message": round(
                    array_seconds / MESSAGES * 1e3, 3
                ),
                "speedup": round(object_seconds / array_seconds, 2),
                "object_nodes_per_sec": round(
                    SPEEDUP_NODES * MESSAGES / object_seconds
                ),
                "array_nodes_per_sec": round(
                    SPEEDUP_NODES * MESSAGES / array_seconds
                ),
            }

        # -- array-core scale curve (ringcast) -------------------------
        scale = []
        for n in SCALE_NODES:
            snapshot = synthetic_overlay(n, kind="ringcast")
            built_at = time.perf_counter()
            overlay = ArrayOverlay.from_snapshot(snapshot)
            build_seconds = time.perf_counter() - built_at
            origins = _origins(snapshot, MESSAGES)
            seconds = _time_array(
                overlay, RingCastPolicy(), FANOUT, origins
            )
            results = disseminate_many(
                overlay,
                RingCastPolicy(),
                FANOUT,
                origins,
                np.random.Generator(np.random.PCG64(BENCH_SEED)),
            )
            delivery = statistics.mean(
                r.notified / r.population for r in results
            )
            scale.append(
                {
                    "num_nodes": n,
                    "build_seconds": round(build_seconds, 3),
                    "ms_per_message": round(seconds / MESSAGES * 1e3, 3),
                    "nodes_per_sec": round(n * MESSAGES / seconds),
                    "delivery_ratio": round(delivery, 6),
                    "complete": all(
                        not r.missed_ids for r in results
                    ),
                }
            )

        # -- mean-field faithfulness at scale (randcast) ---------------
        n_theory = 50_000
        theory_fanout = 4
        snapshot = synthetic_overlay(n_theory, kind="randcast")
        overlay = ArrayOverlay.from_snapshot(snapshot)
        results = disseminate_many(
            overlay,
            RandCastPolicy(),
            theory_fanout,
            _origins(snapshot, MESSAGES),
            np.random.Generator(np.random.PCG64(BENCH_SEED)),
        )
        measured_miss = statistics.mean(
            len(r.missed_ids) / r.population for r in results
        )
        predicted_miss = randcast_expected_miss_ratio(theory_fanout)
        theory = {
            "num_nodes": n_theory,
            "fanout": theory_fanout,
            "measured_miss_ratio": round(measured_miss, 6),
            "predicted_miss_ratio": round(predicted_miss, 6),
        }
        return speedups, scale, theory

    speedups, scale, theory = once(benchmark, run_bench)
    record["speedups_at_10k"] = speedups
    record["scale_curve"] = scale
    record["theory_check"] = theory

    # ISSUE acceptance gates — recorded, then enforced.
    ringcast_speedup = speedups["ringcast"]["speedup"]
    by_nodes = {cell["num_nodes"]: cell for cell in scale}
    record["gates"] = {
        "ringcast_speedup_floor": RINGCAST_SPEEDUP_FLOOR,
        "ringcast_speedup": ringcast_speedup,
        "nodes_per_sec_floor_50k": NODES_PER_SEC_FLOOR_50K,
        "nodes_per_sec_50k": by_nodes[50_000]["nodes_per_sec"],
        "completes_100k": by_nodes[100_000]["complete"],
    }
    record_json("BENCH_scale", record)

    assert ringcast_speedup >= RINGCAST_SPEEDUP_FLOOR, (
        f"ringcast array core is only {ringcast_speedup}x the object "
        f"core at N={SPEEDUP_NODES} (floor {RINGCAST_SPEEDUP_FLOOR}x)"
    )
    assert (
        by_nodes[50_000]["nodes_per_sec"] >= NODES_PER_SEC_FLOOR_50K
    ), by_nodes[50_000]
    assert by_nodes[100_000]["complete"], by_nodes[100_000]
    # RINGCAST's ring traversal guarantees completeness on a healthy
    # overlay at any size — the paper's §5 claim, now at 10⁵ nodes.
    assert by_nodes[100_000]["delivery_ratio"] == 1.0
    assert (
        abs(theory["measured_miss_ratio"] - theory["predicted_miss_ratio"])
        < 0.03
    ), theory
