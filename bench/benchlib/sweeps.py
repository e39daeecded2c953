"""The two sweep workloads: ``sweep_cold`` and ``sweep_warm``.

Both drive the spec-to-report path a ``repro sweep --spec ... --html``
user pays — ``SweepSpec.load`` -> ``api.run_sweep`` (inline backend,
one worker, trial cache + snapshot store + history store) ->
``render_sweep`` + ``render_html_report`` — over the same reference
spec. ``sweep_cold`` starts every pass with all three stores empty, so
CYCLON/VICINITY warm-up does nearly all the work and the stores only
write; ``sweep_warm`` keeps the snapshot store filled, so warm-up does
none and the stores' read side, the object executor, spec expansion
and aggregation do all of it.

The traced run re-executes every ``TrialSpec`` step by step with the
RNG universe ``run_trial`` would give it and requires the resulting
``TrialResult`` to equal the plain pass's.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.common.rng import RngRegistry, child_seed
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import policy_for_snapshot
from repro.experiments.builder import build_population, freeze_overlay
from repro.experiments.config import OverlaySpec, scale_config
from repro.experiments.history import history_mode, store_history_entry
from repro.experiments.htmlreport import ReportSource, render_html_report
from repro.experiments.report import render_sweep
from repro.experiments.scenario_matrix import trial_config
from repro.experiments.snapshot_store import (
    SnapshotProvider,
    load_snapshot_entry,
    store_snapshot_entry,
)
from repro.experiments.sweep_backends import FrameDecoder, encode_frame
from repro.experiments.sweep_results import (
    SweepResult,
    TrialResult,
    config_fingerprint,
    store_trial,
)
from repro.experiments.sweep_spec import SweepSpec
from repro.metrics.dissemination import summarize_runs

from benchlib.checks import sha256_text
from benchlib.context import Context
from benchlib.env import BENCH_DIR, SRC_DIR, scratch_dir
from benchlib.micro import ns_per_op
from benchlib.stats import assembled_pass, median

MIN_COLD_PASSES = 3
COLD_FILLS = 2  # set-up repeats of sweep_warm's cold fill
STORE_PASSES = 50  # trial-cache-warm / history-hit passes (traced)
WARM_REPLAYS = 7  # plain and replayed passes of the traced sweep_warm


def spec_path(quick: bool) -> Path:
    return BENCH_DIR / "specs" / ("quick.json" if quick else "reference.json")


@dataclass
class Stores:
    """The three on-disk stores of one sweep working directory."""

    trials: Path
    snapshots: Path
    history: Path

    @classmethod
    def under(cls, root: Path) -> "Stores":
        return cls(root / "trials", root / "snapshots", root / "history")

    def wipe(self, *names: str) -> None:
        for name in names:
            shutil.rmtree(getattr(self, name), ignore_errors=True)


@dataclass
class PassOutcome:
    wall: float
    cpu: float
    result: SweepResult
    trial_walls: List[float]  # executed trials only, in grid order
    trial_cpus: List[float]
    cached_trials: int


def sweep_pass(
    path: Path,
    seed: int,
    stores: Stores,
    tick=None,
    backend: str = "inline",
    workers: int = 1,
) -> PassOutcome:
    """One spec file -> ``SweepResult`` -> text + HTML report pass;
    ``tick`` is called after each trial (machine-speed sampling)."""
    trial_walls: List[float] = []
    trial_cpus: List[float] = []
    cached = 0
    cpu0 = cpu_mark = time.process_time()

    def progress(_key: str, seconds: float, was_cached: bool) -> None:
        nonlocal cached, cpu_mark
        now = time.process_time()
        if was_cached:
            cached += 1
        else:
            trial_walls.append(seconds)
            trial_cpus.append(now - cpu_mark)
        if tick is not None:
            tick()
        cpu_mark = time.process_time()

    wall0 = time.perf_counter()
    spec = SweepSpec.load(path)
    result = api.run_sweep(
        spec=spec,
        seed=seed,
        cache_dir=stores.trials,
        snapshot_cache=stores.snapshots,
        history=stores.history,
        progress=progress,
        backend=backend,
        workers=workers,
    )
    render_sweep(result)
    render_html_report([ReportSource(label=path.stem, result=result)])
    wall = time.perf_counter() - wall0
    return PassOutcome(
        wall=wall,
        cpu=time.process_time() - cpu0,
        result=result,
        trial_walls=trial_walls,
        trial_cpus=trial_cpus,
        cached_trials=cached,
    )


def simulated_deliveries(result: SweepResult) -> float:
    """Node deliveries the sweep simulated: per trial, messages x alive
    population x hit ratio."""
    total = 0.0
    for trial in result.trials:
        alive = trial.spec.num_nodes - trial.extras_dict.get("killed", 0.0)
        total += trial.runs * alive * (1.0 - trial.mean_miss_ratio)
    return total


class DigestGate:
    """Every pass of one run must produce the same ``to_json`` bytes,
    and the pinned ones where the seed is pinned."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.first: Optional[str] = None

    def check(self, label: str, result: SweepResult) -> None:
        digest = sha256_text(result.to_json())
        if self.first is None:
            self.first = digest
            self.ctx.expected.check(self.ctx.ops, "sweep_json", digest)
            self.ctx.notes["sweep_json_sha256"] = digest
        else:
            self.ctx.ops.check(
                f"sweep_json_equal:{label}",
                digest == self.first,
                f"{digest[:16]} != first pass {self.first[:16]}",
            )


def end_to_end(
    ctx: Context, passes: List[PassOutcome]
) -> Dict[str, float]:
    trials = len(passes[0].result.trials)
    ctx.ops.add(trials * len(passes))
    job_wall, trial_walls = assembled_pass(
        [p.wall for p in passes], [p.trial_walls for p in passes]
    )
    job_cpu, _ = assembled_pass(
        [p.cpu for p in passes], [p.trial_cpus for p in passes]
    )
    walls = sorted(p.wall for p in passes)
    ctx.notes["passes"] = len(passes)
    ctx.notes["pass_wall_min_median_max_s"] = [
        walls[0], median(walls), walls[-1]
    ]
    ctx.notes["trial_wall_samples"] = len(passes) * len(trial_walls)
    return {
        "job_wall_s": job_wall,
        "deliveries_per_s": simulated_deliveries(passes[0].result) / job_wall,
        "latency_p50_ms": 1000.0 * median(trial_walls),
        "cpu_ms_per_op": 1000.0 * job_cpu / trials,
    }


def run_cold(ctx: Context) -> Dict[str, float]:
    path = spec_path(ctx.quick)
    with scratch_dir("sweep-cold-") as root:
        ctx.setup_repeat(lambda: SweepSpec.load(path).expand(), 5)
        gate = DigestGate(ctx)
        if ctx.trace:
            return traced(ctx, path, root, gate, warm=False)
        passes: List[PassOutcome] = []
        started = time.perf_counter()
        while (
            len(passes) < MIN_COLD_PASSES
            or time.perf_counter() - started < ctx.seconds
        ):
            stores = Stores.under(root / f"pass{len(passes)}")
            # A cold trial runs for up to a second with no way in: take
            # a few machine-speed samples each time one ends.
            passes.append(
                sweep_pass(path, ctx.seed, stores, lambda: ctx.speed.sample(4))
            )
            gate.check(f"cold_pass{len(passes)}", passes[-1].result)
            ctx.ops.check(
                "cold_pass_executes_every_trial",
                passes[-1].cached_trials == 0,
                f"{passes[-1].cached_trials} trials came from a cache",
            )
            shutil.rmtree(stores.trials.parent)
        return end_to_end(ctx, passes)


def run_warm(ctx: Context) -> Dict[str, float]:
    path = spec_path(ctx.quick)
    with scratch_dir("sweep-warm-") as root:
        fill_outcomes: List[PassOutcome] = []

        def cold_fill() -> Stores:
            stores = Stores.under(root / f"fill{len(fill_outcomes)}")
            fill_outcomes.append(sweep_pass(path, ctx.seed, stores))
            return stores

        stores = ctx.setup_repeat(cold_fill, COLD_FILLS)
        gate = DigestGate(ctx)
        for index, outcome in enumerate(fill_outcomes):
            gate.check(f"cold_fill{index}", outcome.result)
        ctx.ops.add(sum(len(o.result.trials) for o in fill_outcomes))
        if ctx.trace:
            return traced(ctx, path, root, gate, warm=True, stores=stores)
        passes: List[PassOutcome] = []
        started = time.perf_counter()
        while time.perf_counter() - started < ctx.seconds:
            stores.wipe("trials", "history")
            ctx.speed.sample()
            passes.append(sweep_pass(path, ctx.seed, stores))
            gate.check(f"warm_pass{len(passes)}", passes[-1].result)
        return end_to_end(ctx, passes)


# ----------------------------------------------------------------------
# traced run: step-by-step replay of every trial
# ----------------------------------------------------------------------

_PROTOCOL_LAYER = {
    "cyclon": "membership.cyclon.execute_cycle",
    "vicinity": "membership.vicinity.execute_cycle",
}


def replay_warmup(tracer, population, cycles: int) -> None:
    """``CycleDriver.run``, cycle by cycle, timing each protocol's
    ``execute_cycle`` — same shuffles, same draws, same order."""
    driver = population.driver
    network = driver.network
    rng = driver.rng
    if driver.churn is not None:
        raise RuntimeError("the replay covers churn-free warm-up only")
    for cycle in range(cycles):
        busy: Dict[str, float] = {}
        with tracer.span("sim.cycle.run_cycle", cycle=cycle) as span:
            order = network.alive_ids()
            rng.shuffle(order)
            for node_id in order:
                if not network.is_alive(node_id):
                    continue
                node = network.node(node_id)
                for name, protocol in node.protocols.items():
                    started = time.perf_counter()
                    protocol.execute_cycle(node, network, rng)
                    layer = _PROTOCOL_LAYER[name]
                    busy[layer] = (
                        busy.get(layer, 0.0) + time.perf_counter() - started
                    )
            network.current_cycle += 1
        tracer.pack_children(span, busy)


def replay_trial(
    ctx: Context,
    spec,
    base,
    stores: Stores,
    warm: bool,
    counts: Dict[str, float],
) -> TrialResult:
    tracer = ctx.tracer
    seed = ctx.seed
    if spec.scenario not in ("static", "catastrophic"):
        raise RuntimeError(f"the replay does not cover {spec.scenario!r}")
    registry = RngRegistry(seed).spawn(spec.key)
    effective = trial_config(spec, base, seed)
    overlay_seed = child_seed(seed, spec.key)
    if warm:
        with tracer.span("experiments.snapshot_store.read", trial=spec.key):
            loaded = load_snapshot_entry(
                stores.snapshots, spec, effective, overlay_seed
            )
        counts["snapshot_hits" if loaded is not None else "snapshot_misses"] += 1
        if loaded is None:
            raise RuntimeError(f"snapshot store miss for {spec.key}")
        snapshot = loaded[0]
    else:
        with tracer.span("experiments.builder.build_population", trial=spec.key):
            population = build_population(
                effective, OverlaySpec(kind=spec.protocol), registry
            )
        with tracer.span("experiments.builder.warmup", trial=spec.key):
            replay_warmup(tracer, population, effective.warmup_cycles)
        counts["node_cycles"] += effective.num_nodes * effective.warmup_cycles
        counts["gossip_exchanges"] += population.network.gossip_messages
        counts["gossip_entries"] += population.network.gossip_entries_shipped
        with tracer.span("experiments.builder.freeze", trial=spec.key):
            snapshot = freeze_overlay(population)
        with tracer.span("experiments.snapshot_store.write", trial=spec.key):
            written = store_snapshot_entry(
                stores.snapshots, spec, effective, overlay_seed, snapshot, {}
            )
        counts["snapshot_bytes"] += written.stat().st_size
    extras: Dict[str, float] = {}
    if spec.scenario == "catastrophic":
        with tracer.span("dissemination.snapshot.kill_fraction", trial=spec.key):
            damaged = snapshot.kill_fraction(
                spec.kill_fraction, registry.stream("failures")
            )
        extras["killed"] = float(snapshot.population - damaged.population)
        snapshot = damaged
    with tracer.span("dissemination.executor.disseminate", trial=spec.key):
        policy = policy_for_snapshot(snapshot)
        origins_rng = registry.stream("origins")
        targets_rng = registry.stream("targets")
        runs = [
            disseminate(
                snapshot,
                policy,
                spec.fanout,
                snapshot.random_alive(origins_rng),
                targets_rng,
            )
            for _ in range(effective.num_messages)
        ]
    with tracer.span("metrics.dissemination.summarize", trial=spec.key):
        stats = summarize_runs(runs)
    result = TrialResult(
        spec=spec,
        runs=stats.runs,
        mean_miss_ratio=stats.mean_miss_ratio,
        complete_fraction=stats.complete_fraction,
        mean_hops=stats.mean_hops,
        max_hops=stats.max_hops,
        mean_msgs_virgin=stats.mean_msgs_virgin,
        mean_msgs_redundant=stats.mean_msgs_redundant,
        mean_msgs_to_dead=stats.mean_msgs_to_dead,
        mean_total_messages=stats.mean_total_messages,
        extras=tuple(sorted(extras.items())),
    )
    with tracer.span("experiments.sweep_results.trial_cache_write", trial=spec.key):
        store_trial(
            stores.trials, result, seed, config_fingerprint(effective)
        )
    return result


def base_config(spec: SweepSpec, seed: int):
    """The per-trial base config ``api.run_sweep`` derives from a spec."""
    return scale_config(spec.scale, seed=seed).with_overrides(
        **dict(spec.config_overrides)
    )


def replay_pass(
    ctx: Context, path: Path, stores: Stores, warm: bool
) -> Tuple[SweepResult, Dict[str, float], float]:
    """The traced pass: the plain pass's work, one layer call at a
    time. Returns (result, counts, wall)."""
    tracer = ctx.tracer
    counts: Dict[str, float] = {
        "node_cycles": 0,
        "gossip_exchanges": 0,
        "gossip_entries": 0,
        "snapshot_bytes": 0,
        "snapshot_hits": 0,
        "snapshot_misses": 0,
    }
    wall0 = time.perf_counter()
    with tracer.span("bench.traced_pass"):
        with tracer.span("experiments.sweep_spec.load"):
            spec = SweepSpec.load(path)
        with tracer.span("experiments.sweep_spec.expand"):
            trial_specs = spec.expand()
        base = base_config(spec, ctx.seed)
        trials = []
        for trial_spec in trial_specs:
            with tracer.span("bench.trial", trial=trial_spec.key):
                trials.append(
                    replay_trial(ctx, trial_spec, base, stores, warm, counts)
                )
        with tracer.span("experiments.sweep_results.summarize_cells"):
            result = SweepResult(root_seed=ctx.seed, trials=tuple(trials))
        with tracer.span("experiments.sweep_results.to_json"):
            result.to_json()
        with tracer.span("experiments.history.write"):
            store_history_entry(
                stores.history,
                spec,
                result,
                ctx.seed,
                config_fingerprint(base),
                history_mode(overlay_reuse="trial", core="auto"),
            )
        with tracer.span("experiments.report.render"):
            render_sweep(result)
        with tracer.span("experiments.htmlreport.render"):
            render_html_report([ReportSource(label=path.stem, result=result)])
    return result, counts, time.perf_counter() - wall0


def import_seconds(module: str, repeats: int = 3) -> float:
    """Median wall of ``import module`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import " + module + "; "
        "print(time.perf_counter() - t)"
    )
    walls = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC_DIR)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        walls.append(float(done.stdout.strip()))
    return median(walls)


def source_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(SRC_DIR.rglob("*.py"))
    )


def frame_codec_us(ctx: Context, path: Path, stores: Stores) -> float:
    """``encode_frame`` + ``FrameDecoder.feed`` round trip of a trial
    dispatch frame carrying its overlay, as the socket backend ships."""
    spec = SweepSpec.load(path)
    trial_spec = spec.expand()[0]
    effective = trial_config(trial_spec, base_config(spec, ctx.seed), ctx.seed)
    provider = SnapshotProvider(store_dir=stores.snapshots)
    entry = provider.entry_for(trial_spec, effective, ctx.seed)
    if entry is None:
        raise RuntimeError("no stored overlay to frame")
    message = {"type": "trial", "spec": trial_spec.to_dict(), "overlay": entry}

    def round_trip() -> None:
        decoded = FrameDecoder().feed(encode_frame(message, compress=True))
        if len(decoded) != 1:
            raise RuntimeError("frame did not round-trip")

    return ns_per_op(round_trip) / 1000.0


def traced(
    ctx: Context,
    path: Path,
    root: Path,
    gate: DigestGate,
    warm: bool,
    stores: Optional[Stores] = None,
) -> Dict[str, float]:
    """Per-layer numbers of a sweep workload.

    Plain passes run first — the reference the replayed trials must
    equal and the base of ``trace_overhead_frac`` — then the traced
    replay of the same pass.
    """
    tracer = ctx.tracer
    # The first pass of a process also pays for code paths taken for
    # the first time; the plain pass compared against is the second.
    # A warm pass is 50 ms — one hiccup of the machine is half of it —
    # so both sides of the warm comparison are medians of several.
    repeats = WARM_REPLAYS if warm else 1
    plain_walls = []
    for attempt in ["primer"] + ["plain"] * repeats:
        if warm:
            stores.wipe("trials", "history")
        else:
            stores = Stores.under(root / attempt)
        plain = sweep_pass(path, ctx.seed, stores)
        gate.check(f"{attempt}_pass", plain.result)
        ctx.ops.add(len(plain.result.trials))
        plain_walls.append(plain.wall)
    plain_wall = median(plain_walls[1:])

    replay_stores = stores if warm else Stores.under(root / "replay")
    traced_walls = []
    for _ in range(repeats):
        if warm:
            stores.wipe("trials", "history")
        replayed, counts, wall = replay_pass(ctx, path, replay_stores, warm)
        traced_walls.append(wall)
        gate.check("traced_replay", replayed)
        for mine, theirs in zip(replayed.trials, plain.result.trials):
            ctx.ops.check(
                f"replay_equals_run_trial:{mine.spec.key}", mine == theirs
            )
    traced_wall = median(traced_walls)
    self_times = {
        name: seconds / repeats
        for name, seconds in tracer.self_times().items()
    }

    def total(name: str) -> float:
        """Seconds per replayed pass spent in spans called ``name``."""
        return tracer.total(name) / repeats

    layers = {
        "experiments.sweep_spec.expand_s": total("experiments.sweep_spec.expand"),
        "experiments.builder.build_population_s": total(
            "experiments.builder.build_population"
        ),
        "experiments.builder.warmup_s": total("experiments.builder.warmup"),
        "membership.cyclon.cycle_s": total("membership.cyclon.execute_cycle"),
        "membership.vicinity.cycle_s": total(
            "membership.vicinity.execute_cycle"
        ),
        "sim.cycle.driver_self_s": self_times.get("sim.cycle.run_cycle", 0.0),
        "membership.warmup_us_per_node_cycle": (
            1e6 * total("experiments.builder.warmup") / counts["node_cycles"]
            if counts["node_cycles"]
            else 0.0
        ),
        "sim.network.gossip_exchanges": counts["gossip_exchanges"],
        "sim.network.gossip_entries": counts["gossip_entries"],
        "experiments.builder.freeze_s": total("experiments.builder.freeze"),
        "dissemination.snapshot.kill_fraction_s": total(
            "dissemination.snapshot.kill_fraction"
        ),
        "experiments.snapshot_store.write_s": total(
            "experiments.snapshot_store.write"
        ),
        "experiments.snapshot_store.bytes_written": counts["snapshot_bytes"],
        "experiments.snapshot_store.read_s": total(
            "experiments.snapshot_store.read"
        ),
        "experiments.snapshot_store.hits": counts["snapshot_hits"],
        "experiments.snapshot_store.misses": counts["snapshot_misses"],
        "experiments.sweep_results.trial_cache_write_s": total(
            "experiments.sweep_results.trial_cache_write"
        ),
        "experiments.history.write_s": total("experiments.history.write"),
        "experiments.report.render_s": total("experiments.report.render"),
        "experiments.htmlreport.render_s": total(
            "experiments.htmlreport.render"
        ),
        "dissemination.executor.disseminate_s": total(
            "dissemination.executor.disseminate"
        ),
        "metrics.dissemination.summarize_s": total(
            "metrics.dissemination.summarize"
        ),
        "experiments.sweep_results.summarize_cells_s": total(
            "experiments.sweep_results.summarize_cells"
        ),
        "experiments.sweep_results.to_json_s": total(
            "experiments.sweep_results.to_json"
        ),
        "harness.plain_pass_s": plain_wall,
        "harness.traced_pass_s": traced_wall,
        "trace_overhead_frac": traced_wall / plain_wall - 1.0,
    }
    decomposed = sum(
        seconds
        for name, seconds in self_times.items()
        if not name.startswith("bench.")
    )
    # What run_sweep costs beyond the layers the replay calls one by
    # one: backend dispatch, cache digests, provider bookkeeping.
    layers["experiments.sweep.orchestration_self_s"] = plain_wall - decomposed
    layers["experiments.sweep_backends.frame_codec_us"] = frame_codec_us(
        ctx, path, replay_stores
    )
    if warm:
        layers.update(store_read_layers(ctx, path, stores, gate))
    else:
        layers["api.import_repro_s"] = import_seconds("repro.api")
        layers["cli.import_s"] = import_seconds("repro.cli")
        layers["repo.src_loc"] = float(source_lines())
    return layers


def store_read_layers(
    ctx: Context, path: Path, stores: Stores, gate: DigestGate
) -> Dict[str, float]:
    """The read side of the trial cache and the history store, and the
    process backend on a warm snapshot store (``sweep_warm`` only)."""
    passes = 5 if ctx.quick else STORE_PASSES
    stores.wipe("history")  # trial cache is warm from the replay
    cache_walls = []
    hits = 0
    for index in range(passes):
        stores.wipe("history")
        outcome = sweep_pass(path, ctx.seed, stores)
        cache_walls.append(outcome.wall)
        hits = outcome.cached_trials
        if index == 0:
            gate.check("trial_cache_pass", outcome.result)
    history_walls = []
    for index in range(passes):
        outcome = sweep_pass(path, ctx.seed, stores)
        history_walls.append(outcome.wall)
        if index == 0:
            gate.check("history_hit_pass", outcome.result)
            ctx.ops.check(
                "history_hit_runs_no_trial",
                not outcome.trial_walls and outcome.cached_trials == 0,
            )
    stores.wipe("trials", "history")
    pooled = sweep_pass(path, ctx.seed, stores, backend="process", workers=2)
    gate.check("process_backend_pass", pooled.result)
    ctx.ops.add(len(pooled.result.trials))
    return {
        "experiments.sweep_results.trial_cache_read_s": median(cache_walls),
        "experiments.sweep_results.trial_cache_hits": float(hits),
        "experiments.history.read_s": median(history_walls),
        "experiments.sweep_backends.process_pass_s": pooled.wall,
    }
