"""The three evaluation scenarios (paper §7.1–§7.3).

* **Static failure-free** — warm up, freeze, disseminate.
* **Catastrophic failure** — warm up, freeze, kill a random fraction
  with *no* self-healing, disseminate over the damaged overlay.
* **Continuous churn** — gossip under per-cycle replacement until every
  original node has left at least once, freeze, disseminate; record the
  lifetime structure of the population and of the missed nodes.

Each scenario sweeps the configured fanouts, posting
``config.num_messages`` messages from random origins per fanout, over
``config.num_networks`` (or ``config.churn_networks``) independently
built networks, and merges everything into a :class:`FanoutSweep`.

:class:`ScenarioRuns` holds the runs behind the paper's figures (one
static and one churn run per protocol, one catastrophic run per
protocol and kill fraction), computing each at most once.
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
    "run_catastrophic_scenario",
    "run_churn_scenario",
    "run_static_scenario",
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

    Returns the snapshot and the number of cycles run under churn. An
    initial churn-free warm-up lets the star bootstrap unfold before
    nodes start dying (the paper's networks likewise begin from a
    converged state before churn statistics are taken).
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


def run_static_scenario(
    config: ExperimentConfig,
    spec: OverlaySpec,
    collect_load: bool = False,
) -> FanoutSweep:
    """§7.1: static failure-free networks."""
    merged: Optional[FanoutSweep] = None
    for net_index in range(config.num_networks):
        registry = RngRegistry(config.seed).spawn(
            f"static/{spec.kind}/net{net_index}"
        )
        snapshot = build_static_overlay(config, spec, registry)
        sweep = sweep_snapshot(
            snapshot, config, registry, collect_load=collect_load
        )
        if merged is None:
            merged = sweep
        else:
            merged.merge(sweep)
    assert merged is not None
    return merged


def run_catastrophic_scenario(
    config: ExperimentConfig,
    spec: OverlaySpec,
    kill_fraction: float,
) -> FanoutSweep:
    """§7.2: kill a random fraction after freezing, then disseminate."""
    merged: Optional[FanoutSweep] = None
    for net_index in range(config.num_networks):
        registry = RngRegistry(config.seed).spawn(
            f"catastrophic/{spec.kind}/{kill_fraction}/net{net_index}"
        )
        snapshot = build_static_overlay(config, spec, registry)
        damaged = snapshot.kill_fraction(
            kill_fraction, registry.stream("failures")
        )
        sweep = sweep_snapshot(damaged, config, registry)
        if merged is None:
            merged = sweep
        else:
            merged.merge(sweep)
    assert merged is not None
    return merged


@dataclass
class ChurnOutcome:
    """Everything the churn scenario measures (Figs. 11, 12, 13).

    Attributes:
        sweep: Dissemination effectiveness per fanout (Fig. 11).
        population_lifetimes: ``{lifetime: count}`` of the alive
            population at freeze, summed over networks (Fig. 12).
        missed_lifetimes: Per fanout, ``{lifetime: count}`` of the
            nodes disseminations missed, summed over runs (Fig. 13).
        churn_cycles: Warm-up cycles each network ran under churn.
    """

    sweep: FanoutSweep
    population_lifetimes: Counter = field(default_factory=Counter)
    missed_lifetimes: Dict[int, Counter] = field(default_factory=dict)
    churn_cycles: List[int] = field(default_factory=list)

    def record_missed(self, fanout: int, lifetimes: List[int]) -> None:
        """Accumulate missed-node lifetimes for one run."""
        self.missed_lifetimes.setdefault(fanout, Counter()).update(lifetimes)


def run_churn_scenario(
    config: ExperimentConfig,
    spec: OverlaySpec,
    churn_rate: Optional[float] = None,
) -> ChurnOutcome:
    """§7.3: continuous artificial churn until full population turnover.

    The network gossips under churn until every original node has been
    replaced at least once (capped at ``config.churn_max_cycles``),
    is then frozen, and the damaged-by-design overlay is swept.
    """
    rate = config.churn_rate if churn_rate is None else churn_rate
    outcome: Optional[ChurnOutcome] = None
    for net_index in range(config.churn_networks):
        registry = RngRegistry(config.seed).spawn(
            f"churn/{spec.kind}/{rate}/net{net_index}"
        )
        snapshot, cycles = build_churned_overlay(
            config, spec, registry, rate
        )
        sweep = sweep_snapshot(snapshot, config, registry)
        if outcome is None:
            outcome = ChurnOutcome(sweep=sweep)
        else:
            outcome.sweep.merge(sweep)
        outcome.churn_cycles.append(cycles)
        outcome.population_lifetimes.update(
            snapshot.lifetime_of(node_id) for node_id in snapshot.alive_ids
        )
        for fanout, results in sweep.runs.items():
            for result in results:
                outcome.record_missed(
                    fanout,
                    [snapshot.lifetime_of(m) for m in result.missed_ids],
                )
    assert outcome is not None
    return outcome


# The protocols the paper's figures compare, and Figs. 9/10's kill
# fractions.
PROTOCOLS = ("randcast", "ringcast")
PAPER_KILL_FRACTIONS = (0.01, 0.02, 0.05, 0.10)

# Every run the figures read, keyed ("static", kind),
# ("catastrophic", kind, fraction) or ("churn", kind); churn first, as
# it takes longest, so a pool stays busy to the end.
_FIGURE_RUNS = (
    *(("churn", kind) for kind in PROTOCOLS),
    *(("static", kind) for kind in PROTOCOLS),
    *(
        ("catastrophic", kind, fraction)
        for kind in PROTOCOLS
        for fraction in PAPER_KILL_FRACTIONS
    ),
)


def _compute(config: ExperimentConfig, key: Tuple):
    scenario, kind, *fraction = key
    if scenario == "static":
        return run_static_scenario(config, OverlaySpec(kind))
    if scenario == "catastrophic":
        return run_catastrophic_scenario(
            config, OverlaySpec(kind), *fraction
        )
    return run_churn_scenario(config, OverlaySpec(kind))


class ScenarioRuns:
    """The scenario runs at one config, each computed at most once.

    Figures are views over these runs: Figs. 6/7/8 read
    :meth:`static`, Figs. 9/10 :meth:`catastrophic`, Figs. 11/12/13
    :meth:`churn`. Every run draws from its own RNG universe
    (``RngRegistry(config.seed).spawn("<scenario>/<kind>/…/net<i>")``),
    so a run's result does not depend on which other runs were
    computed, in what order, or in which process.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._runs: Dict[Tuple, Union[FanoutSweep, ChurnOutcome]] = {}

    def static(self, kind: str) -> FanoutSweep:
        """§7.1 over ``kind`` (Figs. 6, 7, 8)."""
        return self._get(("static", kind))

    def catastrophic(self, kind: str, fraction: float) -> FanoutSweep:
        """§7.2 over ``kind`` with ``fraction`` killed (Figs. 9, 10)."""
        return self._get(("catastrophic", kind, fraction))

    def churn(self, kind: str) -> ChurnOutcome:
        """§7.3 over ``kind`` (Figs. 11, 12, 13)."""
        return self._get(("churn", kind))

    def _get(self, key: Tuple):
        if key not in self._runs:
            self._runs[key] = _compute(self.config, key)
        return self._runs[key]

    def prefetch(self, workers: int) -> None:
        """Compute every run the paper's figures read, ``workers`` wide.

        With ``workers > 1`` the runs not computed yet execute on a
        process pool; with one worker they run here, one by one.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        missing = [key for key in _FIGURE_RUNS if key not in self._runs]
        if workers == 1 or len(missing) <= 1:
            for key in missing:
                self._get(key)
            return
        with ProcessPoolExecutor(
            max_workers=min(workers, len(missing))
        ) as pool:
            futures = [
                pool.submit(_compute, self.config, key) for key in missing
            ]
            for key, future in zip(missing, futures):
                self._runs[key] = future.result()
