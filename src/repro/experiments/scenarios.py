"""The three evaluation scenarios (paper §7.1–§7.3).

* **Static failure-free** — warm up, freeze, disseminate.
* **Catastrophic failure** — kill a random fraction of the frozen
  static overlay with *no* self-healing, disseminate over the damage.
* **Continuous churn** — gossip under per-cycle replacement until every
  original node has left at least once, freeze, disseminate; record the
  lifetime structure of the population and of the missed nodes.

:class:`ScenarioRuns` is the one runner of all three. Like the paper,
it warms up and freezes one overlay per (protocol, network) and reads
the static run and every kill fraction off it, so a network costs one
warm-up however many fractions are measured. Each run sweeps the
configured fanouts, posting ``config.num_messages`` messages from
random origins per fanout, over ``config.num_networks`` (or
``config.churn_networks``) networks, and merges everything into a
:class:`FanoutSweep`.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.dissemination.executor import DisseminationResult, disseminate
from repro.dissemination.policies import TargetPolicy, policy_for_snapshot
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.failures.churn import ArtificialChurn
from repro.metrics.dissemination import (
    EffectivenessStats,
    aggregate_progress,
    summarize_runs,
)

__all__ = [
    "ChurnOutcome",
    "FanoutSweep",
    "ScenarioRuns",
    "build_churned_overlay",
    "build_static_overlay",
    "sweep_snapshot",
]


@dataclass
class FanoutSweep:
    """All dissemination runs of one protocol across the fanout grid."""

    protocol: str
    runs: Dict[int, List[DisseminationResult]] = field(default_factory=dict)

    def add(self, fanout: int, results: List[DisseminationResult]) -> None:
        """Append results for one fanout (merging across networks)."""
        self.runs.setdefault(fanout, []).extend(results)

    def merge(self, other: "FanoutSweep") -> None:
        """Fold another sweep's runs into this one."""
        for fanout, results in other.runs.items():
            self.add(fanout, results)

    def fanouts(self) -> Tuple[int, ...]:
        """The swept fanout values, ascending."""
        return tuple(sorted(self.runs))

    def stats(self, fanout: int) -> EffectivenessStats:
        """Aggregated effectiveness at one fanout."""
        return summarize_runs(self.runs.get(fanout, []))

    def progress(self, fanout: int):
        """(mean, best, worst) per-hop percent-not-reached envelopes."""
        return aggregate_progress(self.runs.get(fanout, []))


def sweep_snapshot(
    snapshot: OverlaySnapshot,
    config: ExperimentConfig,
    registry: RngRegistry,
    policy: Optional[TargetPolicy] = None,
    collect_load: bool = False,
    fanouts: Optional[Tuple[int, ...]] = None,
) -> FanoutSweep:
    """Post ``num_messages`` messages per fanout over a frozen snapshot.

    The overlay picks the executor
    (:func:`repro.arraysim.uses_array_core`). The array core posts each
    fanout's whole message batch through one vectorized frontier;
    origins are drawn from the same ``origins`` stream in the same
    order as the object path, while target selection moves to a
    dedicated numpy stream — statistically equivalent, and still
    bit-identical for flooding (which never draws).
    """
    chosen_policy = policy if policy is not None else policy_for_snapshot(
        snapshot
    )
    from repro.arraysim import uses_array_core

    if uses_array_core(snapshot.population, chosen_policy):
        return _sweep_snapshot_array(
            snapshot, config, registry, chosen_policy, collect_load, fanouts
        )
    origins_rng = registry.stream("origins")
    targets_rng = registry.stream("targets")
    sweep = FanoutSweep(protocol=chosen_policy.name)
    for fanout in fanouts if fanouts is not None else config.fanouts:
        results = []
        for _ in range(config.num_messages):
            origin = snapshot.random_alive(origins_rng)
            results.append(
                disseminate(
                    snapshot,
                    chosen_policy,
                    fanout,
                    origin,
                    targets_rng,
                    collect_load=collect_load,
                )
            )
        sweep.add(fanout, results)
    return sweep


def _sweep_snapshot_array(
    snapshot: OverlaySnapshot,
    config: ExperimentConfig,
    registry: RngRegistry,
    policy: TargetPolicy,
    collect_load: bool,
    fanouts: Optional[Tuple[int, ...]],
) -> FanoutSweep:
    """The array-core fast path: one batched frontier per fanout."""
    from repro.arraysim import (
        ArrayOverlay,
        disseminate_many,
        numpy_targets_rng,
    )

    overlay = ArrayOverlay.from_snapshot(snapshot)
    origins_rng = registry.stream("origins")
    targets_rng = numpy_targets_rng(registry)
    sweep = FanoutSweep(protocol=policy.name)
    for fanout in fanouts if fanouts is not None else config.fanouts:
        origins = [
            snapshot.random_alive(origins_rng)
            for _ in range(config.num_messages)
        ]
        results = disseminate_many(
            overlay,
            policy,
            fanout,
            origins,
            targets_rng,
            collect_load=collect_load,
        )
        sweep.add(fanout, results)
    return sweep


def build_static_overlay(
    config: ExperimentConfig, spec: OverlaySpec, registry: RngRegistry
) -> OverlaySnapshot:
    """Warm up and freeze one failure-free overlay."""
    population = build_population(config, spec, registry)
    warm_up(population)
    return freeze_overlay(population)


def build_churned_overlay(
    config: ExperimentConfig,
    spec: OverlaySpec,
    registry: RngRegistry,
    churn_rate: float,
) -> Tuple[OverlaySnapshot, int]:
    """Gossip under churn until full turnover, then freeze.

    Returns the snapshot and the number of cycles run after the
    warm-up. Churn is attached *before* the warm-up: nodes already
    leave and join while the star bootstrap unfolds, so the
    ``config.warmup_cycles`` warm-up cycles run under churn too and the
    flat warm-up kernel declines them (every cycle takes the object
    path). The paper starts churn on a converged network instead; this
    builder keeps the earlier start because the Fig. 11–13 tables and
    the sweeps' ``churn``/``pull_churn`` golden cells are pinned on it,
    and moving it re-pins them all.
    """
    population = build_population(config, spec, registry)
    churn = ArtificialChurn(churn_rate, population.node_factory)
    population.driver.churn = churn
    warm_up(population, config.warmup_cycles)
    cycles = population.driver.run_until(
        churn.full_turnover_reached,
        max_cycles=config.churn_max_cycles,
    )
    return freeze_overlay(population), cycles


@dataclass
class ChurnOutcome:
    """Everything the churn scenario measures (Figs. 11, 12, 13).

    Attributes:
        sweep: Dissemination effectiveness per fanout (Fig. 11).
        population_lifetimes: ``{lifetime: count}`` of the alive
            population at freeze, summed over networks (Fig. 12).
        missed_lifetimes: Per fanout, ``{lifetime: count}`` of the
            nodes disseminations missed, summed over runs (Fig. 13).
        churn_cycles: Cycles each network ran after its warm-up.
    """

    sweep: FanoutSweep
    population_lifetimes: Counter = field(default_factory=Counter)
    missed_lifetimes: Dict[int, Counter] = field(default_factory=dict)
    churn_cycles: List[int] = field(default_factory=list)

    def record(
        self, snapshot: OverlaySnapshot, cycles: int, sweep: FanoutSweep
    ) -> None:
        """Count one network: its churn cycles, the lifetimes of its
        population at freeze and, per fanout, those of the nodes each
        run of its ``sweep`` missed."""
        self.churn_cycles.append(cycles)
        self.population_lifetimes.update(
            snapshot.lifetime_of(node_id) for node_id in snapshot.alive_ids
        )
        for fanout, results in sweep.runs.items():
            missed = self.missed_lifetimes.setdefault(fanout, Counter())
            for result in results:
                missed.update(
                    snapshot.lifetime_of(m) for m in result.missed_ids
                )


# The protocols the paper's figures compare, and Figs. 9/10's kill
# fractions.
PROTOCOLS = ("randcast", "ringcast")
PAPER_KILL_FRACTIONS = (0.01, 0.02, 0.05, 0.10)


def _merged(sweeps: List[FanoutSweep]) -> FanoutSweep:
    """The networks' sweeps as one, in network order."""
    merged = FanoutSweep(protocol=sweeps[0].protocol)
    for sweep in sweeps:
        merged.merge(sweep)
    return merged


class ScenarioRuns:
    """The §7 scenario runs at one config, each computed at most once.

    Figures are views over these runs: Figs. 6/7/8 read :meth:`static`
    and Figs. 9/10 :meth:`catastrophic`, both views of the frozen
    :meth:`overlays`; Figs. 11/12/13 read :meth:`churn`. A network
    draws from named RNG universes
    (``RngRegistry(config.seed).spawn(name)``): ``static/<kind>/net<i>``
    builds and sweeps its frozen overlay,
    ``catastrophic/<kind>/<fraction>/net<i>`` kills and sweeps, and
    ``churn/<kind>/<rate>/net<i>`` does all of churn. So a run's result
    does not depend on which other runs were computed, in what order,
    or in which process.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._overlays: Dict[str, List[OverlaySnapshot]] = {}
        self._runs: Dict[Tuple, Union[FanoutSweep, ChurnOutcome]] = {}

    def _universe(self, name: str) -> RngRegistry:
        return RngRegistry(self.config.seed).spawn(name)

    def overlays(self, kind: str) -> List[OverlaySnapshot]:
        """The warmed-up, frozen failure-free overlay of each network."""
        if kind not in self._overlays:
            self._overlays[kind] = [
                build_static_overlay(
                    self.config,
                    OverlaySpec(kind),
                    self._universe(f"static/{kind}/net{net}"),
                )
                for net in range(self.config.num_networks)
            ]
        return self._overlays[kind]

    def static(self, kind: str) -> FanoutSweep:
        """§7.1 over ``kind`` (Figs. 6, 7, 8): the overlays as frozen."""
        return self._frozen_run(("static", kind), kind, 0.0)

    def catastrophic(self, kind: str, fraction: float) -> FanoutSweep:
        """§7.2 over ``kind`` (Figs. 9, 10): ``fraction`` of each
        frozen overlay killed, with no repair."""
        return self._frozen_run(
            ("catastrophic", kind, fraction), kind, fraction
        )

    def _frozen_run(
        self, key: Tuple, kind: str, fraction: float
    ) -> FanoutSweep:
        if key not in self._runs:
            # The key names the universe: static/<kind>/net<i> or
            # catastrophic/<kind>/<fraction>/net<i>.
            universe = "/".join(str(part) for part in key)
            sweeps = []
            for net, overlay in enumerate(self.overlays(kind)):
                registry = self._universe(f"{universe}/net{net}")
                # A new snapshot; killing nothing returns the overlay.
                damaged = overlay.kill_fraction(
                    fraction, registry.stream("failures")
                )
                sweeps.append(sweep_snapshot(damaged, self.config, registry))
            self._runs[key] = _merged(sweeps)
        return self._runs[key]

    def churn(self, kind: str) -> ChurnOutcome:
        """§7.3 over ``kind`` (Figs. 11, 12, 13).

        Each network gossips under churn until every original node has
        been replaced at least once (capped at
        ``config.churn_max_cycles``), is frozen, and is swept.
        """
        key = ("churn", kind)
        if key not in self._runs:
            rate = self.config.churn_rate
            networks = []
            for net in range(self.config.churn_networks):
                registry = self._universe(f"churn/{kind}/{rate}/net{net}")
                snapshot, cycles = build_churned_overlay(
                    self.config, OverlaySpec(kind), registry, rate
                )
                sweep = sweep_snapshot(snapshot, self.config, registry)
                networks.append((snapshot, cycles, sweep))
            outcome = ChurnOutcome(_merged([sweep for *_, sweep in networks]))
            for network in networks:
                outcome.record(*network)
            self._runs[key] = outcome
        return self._runs[key]

    def _frozen_family(self, kind: str) -> None:
        """The static run and the paper's kill fractions over ``kind``."""
        self.static(kind)
        for fraction in PAPER_KILL_FRACTIONS:
            self.catastrophic(kind, fraction)

    def prefetch(self, workers: int) -> None:
        """Compute every run the paper's figures read, ``workers`` wide.

        With ``workers > 1`` one pool job per protocol builds its
        overlays and runs the static run and the paper's kill
        fractions, and one runs its churn. Each job hands back all it
        built, overlays included, so a later kill fraction only
        disseminates. What is still missing then (everything, at one
        worker) runs here.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        # Churn first, as it takes longest, so a pool stays busy to
        # the end.
        jobs = [
            (ScenarioRuns.churn, kind)
            for kind in PROTOCOLS
            if ("churn", kind) not in self._runs
        ] + [
            (ScenarioRuns._frozen_family, kind)
            for kind in PROTOCOLS
            if kind not in self._overlays
        ]
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs))
            ) as pool:
                futures = [
                    pool.submit(_run_job, self.config, job, kind)
                    for job, kind in jobs
                ]
                for future in futures:
                    done = future.result()
                    self._overlays.update(done._overlays)
                    self._runs.update(done._runs)
        for kind in PROTOCOLS:
            self.churn(kind)
            self._frozen_family(kind)


def _run_job(config: ExperimentConfig, job, kind: str) -> ScenarioRuns:
    """One pool job of :meth:`ScenarioRuns.prefetch`: ``job(runs,
    kind)`` on a fresh instance, returned with everything it built."""
    runs = ScenarioRuns(config)
    job(runs, kind)
    return runs
