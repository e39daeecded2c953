"""The ``dissem_scale`` workload: dissemination only — no warm-up, no
stores, no sockets.

Synthetic converged overlays (a random ring permutation for the
d-links plus 20 uniformly random r-links per node: the shape a warmed
CYCLON+VICINITY network freezes into) are disseminated over by the
array core at large N and by the reference object executor at small N,
same three policies, F=3, side by side — so "one engine, many drivers"
is measured on both engines.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.arraysim import (
    ArrayOverlay,
    decode_snapshot,
    disseminate_many,
    encode_snapshot,
)
from repro.core.targets import ringcast_targets
from repro.dissemination.event_executor import disseminate_event_driven
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
)
from repro.dissemination.snapshot import OverlaySnapshot
from repro.extensions.pull_recovery import pull_recovery
from repro.metrics.theory import randcast_expected_miss_ratio

from benchlib.checks import result_digest
from benchlib.context import Context
from benchlib.micro import ns_per_op
from benchlib.stats import median

VIEW = 20
FANOUT = 3
WARM_BATCHES = 2
POLICIES = (
    ("ringcast", RingCastPolicy()),
    ("randcast", RandCastPolicy()),
    ("flooding", FloodingPolicy()),
)
# Share of --seconds given to the array core; the rest goes to the
# object executor.
ARRAY_SHARE = 0.6
FIXED_POINT_TOLERANCE = 0.01


def sizes(quick: bool) -> Dict[str, int]:
    if quick:
        return {"array_nodes": 10_000, "object_nodes": 2_000, "messages": 5}
    # 5 messages a batch: at 10, a flooding hop's temporaries at
    # N=100k outgrow what the allocator keeps mapped, and batches
    # alternate between ~60 and ~160 ms per message on page faults.
    return {"array_nodes": 100_000, "object_nodes": 10_000, "messages": 5}


def synthetic_overlay(n: int, seed: int, view: int = VIEW) -> OverlaySnapshot:
    """A converged-shape RINGCAST overlay without the gossip bill."""
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
        kind="ringcast",
        rlinks=rlinks,
        dlinks=dlinks,
        alive_ids=tuple(ids),
        ring_ids={},
        join_cycles={},
        frozen_at_cycle=0,
    )


def pick_origins(snapshot: OverlaySnapshot, seed: int, count: int) -> List[int]:
    rng = random.Random(seed + 1)
    return [rng.choice(snapshot.alive_ids) for _ in range(count)]


def timed(batch: Callable[[], object]) -> Tuple[float, float, object]:
    """(wall, cpu, result) of one batch, collector quiesced as
    ``timeit`` does: a collection landing in one batch and not the
    next is the harness's noise, not the engine's cost."""
    gc.collect()
    gc.disable()
    try:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        result = batch()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        gc.enable()
    return wall, cpu, result


class Engines:
    """Both engines loaded with their overlays and message origins."""

    def __init__(self, ctx: Context) -> None:
        size = sizes(ctx.quick)
        self.seed = ctx.seed
        self.messages = size["messages"]
        self.array_snapshot = synthetic_overlay(size["array_nodes"], ctx.seed)
        self.array_overlay = ArrayOverlay.from_snapshot(self.array_snapshot)
        self.array_origins = pick_origins(
            self.array_snapshot, ctx.seed, self.messages
        )
        self.object_snapshot = synthetic_overlay(size["object_nodes"], ctx.seed)
        self.object_origins = pick_origins(
            self.object_snapshot, ctx.seed, self.messages
        )

    def array_batch(self, policy) -> list:
        return disseminate_many(
            self.array_overlay,
            policy,
            FANOUT,
            self.array_origins,
            np.random.Generator(np.random.PCG64(self.seed)),
        )

    def object_message(self, policy, index: int):
        return disseminate(
            self.object_snapshot,
            policy,
            FANOUT,
            self.object_origins[index],
            random.Random(self.seed * 1000 + index),
        )

    def object_batch(self, policy) -> list:
        return [
            self.object_message(policy, index)
            for index in range(self.messages)
        ]

    def compat_batch(self, policy, overlay: ArrayOverlay) -> list:
        """The array core's ``random.Random`` replay mode on the object
        overlay, message by message, with the object batch's streams."""
        return [
            disseminate_many(
                overlay,
                policy,
                FANOUT,
                (self.object_origins[index],),
                random.Random(self.seed * 1000 + index),
            )[0]
            for index in range(self.messages)
        ]


def build_engines(ctx: Context) -> Engines:
    engines = ctx.setup_repeat(lambda: Engines(ctx), 1 if ctx.quick else 2)
    warm_started = time.perf_counter()
    for _name, policy in POLICIES:
        for _ in range(WARM_BATCHES):
            engines.array_batch(policy)
        engines.object_batch(policy)
    ctx.setup_spent(time.perf_counter() - warm_started)
    return engines


class Rounds:
    """Timed batches per policy, gathered round-robin so a slow spell
    of the machine lands on every policy alike."""

    def __init__(self) -> None:
        self.walls: Dict[str, List[float]] = {}
        self.cpus: Dict[str, List[float]] = {}
        self.results: Dict[str, list] = {}

    def run(
        self,
        ctx: Context,
        label: str,
        batch: Callable[[object], list],
        budget: float,
        min_rounds: int,
    ) -> None:
        started = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - started < budget:
            for name, policy in POLICIES:
                ctx.speed.sample()
                wall, cpu, results = timed(lambda: batch(policy))
                self.walls.setdefault(name, []).append(wall)
                self.cpus.setdefault(name, []).append(cpu)
                ctx.ops.add(len(results))
                if name in self.results:
                    ctx.ops.check(
                        f"{label}_{name}_repeats_exactly",
                        result_digest(results) == result_digest(self.results[name]),
                    )
                self.results[name] = results
            rounds += 1

    def median_walls(self) -> Dict[str, float]:
        return {name: median(walls) for name, walls in self.walls.items()}

    def deliveries_per_s(self) -> float:
        notified = sum(
            r.notified for results in self.results.values() for r in results
        )
        return notified / sum(self.median_walls().values())


def check_results(ctx: Context, array: Rounds, objects: Rounds) -> None:
    """Pinned digests where they can be pinned, the paper's own
    invariants everywhere."""
    expected = ctx.expected
    digests = {
        f"{engine}_{name}": result_digest(results)
        for engine, rounds in (("object", objects), ("array", array))
        for name, results in rounds.results.items()
    }
    ctx.notes["digests"] = digests
    for key, digest in digests.items():
        # Fast-mode draws come from numpy's Generator, whose stream is
        # only promised stable within a numpy version; flooding never
        # draws.
        drawn_by_numpy = key in ("array_ringcast", "array_randcast")
        if not drawn_by_numpy or np.__version__ == expected.numpy_version:
            expected.check(ctx.ops, key, digest)
    ctx.ops.check(
        "array_ringcast_delivers_to_all",
        all(r.complete for r in array.results["ringcast"]),
    )
    miss = median([r.miss_ratio for r in array.results["randcast"]])
    error = abs(miss - randcast_expected_miss_ratio(FANOUT))
    ctx.notes["ref.randcast_fixed_point_abs_err"] = error
    ctx.ops.check(
        "array_randcast_tracks_fixed_point",
        error < FIXED_POINT_TOLERANCE,
        f"|{miss:.5f} - theory| = {error:.5f}",
    )


def run(ctx: Context) -> Dict[str, float]:
    engines = build_engines(ctx)
    if ctx.trace:
        return traced(ctx, engines)
    array = Rounds()
    array.run(ctx, "array", engines.array_batch, ctx.seconds * ARRAY_SHARE, 3)
    objects = Rounds()
    message_walls: List[float] = []

    def object_batch(policy) -> list:
        results = []
        for index in range(engines.messages):
            started = time.perf_counter()
            results.append(engines.object_message(policy, index))
            message_walls.append(time.perf_counter() - started)
        return results

    objects.run(
        ctx, "object", object_batch, ctx.seconds * (1.0 - ARRAY_SHARE), 3
    )
    check_results(ctx, array, objects)
    round_cpu = sum(median(cpus) for cpus in array.cpus.values())
    ctx.notes["array_batches"] = {k: len(v) for k, v in array.walls.items()}
    ctx.notes["object_message_samples"] = len(message_walls)
    ctx.notes["object_deliveries_per_s"] = objects.deliveries_per_s()
    return {
        "job_wall_s": sum(objects.median_walls().values()),
        "deliveries_per_s": array.deliveries_per_s(),
        "latency_p50_ms": 1000.0 * median(message_walls),
        "cpu_ms_per_op": 1000.0
        * round_cpu
        / (engines.messages * len(POLICIES)),
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def traced(ctx: Context, engines: Engines) -> Dict[str, float]:
    tracer = ctx.tracer
    messages = engines.messages
    rounds = 2 if ctx.quick else 3

    def spanned(layer: str, batch: Callable[[object], list]):
        def call(policy) -> list:
            with tracer.span(layer, policy=policy.name):
                return batch(policy)

        return call

    # The same batches without and with a span around each: the
    # difference is what tracing costs this workload.
    plain = Rounds()
    plain.run(ctx, "array_plain", engines.array_batch, 0.0, rounds)
    array = Rounds()
    array.run(
        ctx, "array", spanned("arraysim.engine.disseminate_many", engines.array_batch), 0.0, rounds
    )
    objects = Rounds()
    objects.run(
        ctx, "object", spanned("dissemination.executor.disseminate", engines.object_batch), 0.0, rounds
    )
    check_results(ctx, array, objects)

    small_overlay = ArrayOverlay.from_snapshot(engines.object_snapshot)
    compat = Rounds()
    compat.run(
        ctx,
        "compat",
        spanned(
            "arraysim.engine.compat",
            lambda policy: engines.compat_batch(policy, small_overlay),
        ),
        0.0,
        1,
    )
    for name, results in compat.results.items():
        ctx.ops.check(
            f"compat_{name}_equals_object",
            result_digest(results) == result_digest(objects.results[name]),
        )

    with tracer.span("arraysim.overlay.from_snapshot"):
        ArrayOverlay.from_snapshot(engines.array_snapshot)
    with tracer.span("arraysim.codec.encode"):
        blob = encode_snapshot(engines.array_snapshot)
    with tracer.span("arraysim.codec.decode"):
        decoded = decode_snapshot(blob)
    ctx.ops.check(
        "codec_round_trips",
        decoded.rlinks == engines.array_snapshot.rlinks
        and decoded.dlinks == engines.array_snapshot.dlinks,
    )

    ringcast = POLICIES[0][1]
    with tracer.span("dissemination.event_executor.disseminate_event_driven"):
        for index in range(messages):
            disseminate_event_driven(
                engines.object_snapshot,
                ringcast,
                FANOUT,
                engines.object_origins[index],
                random.Random(engines.seed * 1000 + index),
            )
    randcast_pushes = objects.results["randcast"]
    with tracer.span("extensions.pull_recovery.pull_recovery"):
        recovered = [
            pull_recovery(
                engines.object_snapshot, push, random.Random(engines.seed + index)
            )
            for index, push in enumerate(randcast_pushes)
        ]
    ctx.ops.check(
        "pull_recovery_completes", all(r.complete for r in recovered)
    )

    node = engines.object_origins[0]
    rlinks = engines.object_snapshot.rlinks[node]
    dlinks = engines.object_snapshot.dlinks[node]
    select_rng = random.Random(engines.seed)
    select_us = (
        ns_per_op(
            lambda: ringcast_targets(dlinks, rlinks, rlinks[0], FANOUT, select_rng)
        )
        / 1000.0
    )

    # Simulated statistics of the object ringcast batch: counts of the
    # model, not timings — they must repeat exactly run after run.
    sim = objects.results["ringcast"]
    delivered = sum(r.notified for r in sim)
    nodes = engines.object_snapshot.population
    total = tracer.total
    array_walls = array.median_walls()
    object_walls = objects.median_walls()
    plain_total = sum(plain.median_walls().values())
    layers = {
        "arraysim.overlay.from_snapshot_s": total("arraysim.overlay.from_snapshot"),
        "arraysim.engine.compat_ms_per_msg": 1000.0
        * total("arraysim.engine.compat")
        / (messages * len(POLICIES)),
        "arraysim.codec.encode_s": total("arraysim.codec.encode"),
        "arraysim.codec.decode_s": total("arraysim.codec.decode"),
        "arraysim.codec.bytes": float(len(blob)),
        "dissemination.event_executor.ms_per_msg": 1000.0
        * total("dissemination.event_executor.disseminate_event_driven")
        / messages,
        "extensions.pull_recovery.ms_per_msg": 1000.0
        * total("extensions.pull_recovery.pull_recovery")
        / messages,
        "core.targets.select_us": select_us,
        "sim.mean_hops": sum(r.hops for r in sim) / len(sim),
        "sim.max_hops": float(max(r.hops for r in sim)),
        "sim.msgs_per_delivery": sum(r.total_messages for r in sim) / delivered,
        "sim.miss_ratio": median([r.miss_ratio for r in objects.results["randcast"]]),
        "ref.hop_optimum": float(math.ceil(math.log(nodes, FANOUT + 1))),
        "ref.randcast_fixed_point_abs_err": ctx.notes[
            "ref.randcast_fixed_point_abs_err"
        ],
        "trace_overhead_frac": sum(array_walls.values()) / plain_total - 1.0,
    }
    for name, _policy in POLICIES:
        layers[f"arraysim.engine.{name}_ms_per_msg"] = (
            1000.0 * array_walls[name] / messages
        )
        layers[f"dissemination.executor.{name}_ms_per_msg"] = (
            1000.0 * object_walls[name] / messages
        )
    return layers
