"""High-level facade: build an overlay, disseminate, run scenarios,
sweep parameter grids.

These functions cover the common cases; power users compose the
underlying layers directly (the :mod:`repro` package docstring lists
them).

>>> from repro import build_overlay, disseminate
>>> snapshot = build_overlay(num_nodes=150, protocol="ringcast", seed=7,
...                          warmup_cycles=60)
>>> disseminate(snapshot, fanout=3, seed=1).complete
True
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.dissemination.executor import DisseminationResult, disseminate as _run
from repro.dissemination.policies import TargetPolicy, policy_for_snapshot
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec, scale_config
from repro.experiments.scenario_matrix import (
    registered_params,
    scenario_names,
    scenario_schema,
)
from repro.experiments.scenarios import (
    ChurnOutcome,
    FanoutSweep,
    ScenarioRuns,
)
from repro.experiments.adaptive import (
    AdaptiveOutcome,
    AdaptiveSettings,
    CellAllocation,
    run_adaptive_sweep as _run_adaptive,
)
from repro.experiments.history import (
    SweepDiff,
    diff_sweeps,
    history_mode,
    load_history_entry,
    store_history_entry,
)
from repro.experiments.sweep import run_sweep as _run_sweep
from repro.experiments.sweep_results import SweepResult, config_fingerprint
from repro.experiments.sweep_spec import (
    ScenarioSelection,
    SweepSpec,
    flat_spec,
    scenario,
)

__all__ = [
    "build_overlay",
    "disseminate",
    "run_adaptive_sweep",
    "run_experiment",
    "run_sweep",
    "run_sweep_diff",
    "scenario",
]


def build_overlay(
    num_nodes: int = 500,
    protocol: str = "ringcast",
    seed: int = 42,
    view_size: int = 20,
    warmup_cycles: int = 100,
    shuffle_length: int = 5,
    vicinity_gossip_length: int = 10,
    num_rings: int = 1,
    harary_connectivity: int = 2,
    num_domains: int = 20,
) -> OverlaySnapshot:
    """Build, warm up, and freeze an overlay in one call.

    ``protocol`` is one of ``"randcast"``, ``"ringcast"``,
    ``"multiring"``, ``"hararycast"``, ``"domain_ring"``.
    """
    config = ExperimentConfig(
        num_nodes=num_nodes,
        view_size=view_size,
        shuffle_length=shuffle_length,
        vicinity_gossip_length=vicinity_gossip_length,
        warmup_cycles=warmup_cycles,
        seed=seed,
    )
    spec = OverlaySpec(
        kind=protocol,
        num_rings=num_rings,
        harary_connectivity=harary_connectivity,
        num_domains=num_domains,
    )
    population = build_population(config, spec, RngRegistry(seed))
    warm_up(population)
    return freeze_overlay(population)


def disseminate(
    snapshot: OverlaySnapshot,
    fanout: int = 3,
    origin: Optional[int] = None,
    seed: Union[int, random.Random] = 0,
    policy: Optional[TargetPolicy] = None,
    collect_load: bool = False,
) -> DisseminationResult:
    """Post one message over a frozen overlay and measure it."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    chosen_origin = (
        origin if origin is not None else snapshot.random_alive(rng)
    )
    chosen_policy = (
        policy if policy is not None else policy_for_snapshot(snapshot)
    )
    return _run(
        snapshot,
        chosen_policy,
        fanout,
        chosen_origin,
        rng,
        collect_load=collect_load,
    )


def _reject_unconsumed_params(scenario: str, names: Sequence[str]) -> None:
    """Raise when a scenario parameter is passed to a scenario that
    does not consume it (per the registered schemas) — silently
    ignoring ``kill_fraction`` on a static run would misdescribe the
    result."""
    if scenario not in scenario_names():
        return  # the caller reports the unknown scenario itself
    consumed = set(scenario_schema(scenario).names())
    known = registered_params()
    for name in names:
        if name in known and name not in consumed:
            consumers = sorted(
                other
                for other in scenario_names()
                if scenario_schema(other).param(name) is not None
            )
            raise ConfigurationError(
                f"scenario {scenario!r} does not consume parameter "
                f"{name!r} (consumed by: {consumers}); drop it instead "
                "of relying on it being ignored"
            )


def run_experiment(
    scenario: str = "static",
    protocol: str = "ringcast",
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    kill_fraction: Optional[float] = None,
    **overrides,
) -> Union[FanoutSweep, ChurnOutcome]:
    """Run one full evaluation scenario at a named scale.

    ``scenario`` is ``"static"``, ``"catastrophic"`` or ``"churn"``;
    extra keyword arguments override
    :class:`~repro.experiments.config.ExperimentConfig` fields. The
    result is that scenario's view of a fresh
    :class:`~repro.experiments.scenarios.ScenarioRuns`, the runner the
    figures read.

    Scenario parameters are validated against the registered schemas:
    passing a parameter the chosen scenario does not consume (e.g.
    ``kill_fraction`` to ``static``) raises instead of being silently
    ignored.
    """
    if kill_fraction is not None:
        _reject_unconsumed_params(scenario, ("kill_fraction",))
    _reject_unconsumed_params(scenario, tuple(overrides))
    config = scale_config(scale, seed=seed)
    if overrides:
        config = config.with_overrides(**overrides)
    runs = ScenarioRuns(config)
    if scenario == "static":
        return runs.static(protocol)
    if scenario == "catastrophic":
        fraction = 0.05 if kill_fraction is None else kill_fraction
        return runs.catastrophic(protocol, fraction)
    if scenario == "churn":
        return runs.churn(protocol)
    raise ConfigurationError(
        f"unknown scenario {scenario!r}; expected static, catastrophic, "
        "or churn"
    )


def _resolve_sweep_grid(
    scenarios,
    protocols,
    num_nodes,
    fanouts,
    replicates,
    num_messages,
    scale,
    seed,
    spec,
    config_overrides,
) -> Tuple[SweepSpec, ExperimentConfig]:
    """Shared grid + base-config resolution for the sweep facades.

    Implements the grid-description forms documented on
    :func:`run_sweep` (spec, scenario selections, plain names) and
    returns ``(spec, base_config)`` — the base config already carries
    the effective seed and every override applied.
    """
    grid = {
        name: value
        for name, value in (
            ("scenarios", scenarios),
            ("protocols", protocols),
            ("num_nodes", num_nodes),
            ("fanouts", fanouts),
            ("replicates", replicates),
            ("num_messages", num_messages),
        )
        if value is not None
    }
    if spec is not None:
        if grid:
            # Silently running the spec's grid while the caller
            # believes e.g. replicates=5 applied would misdescribe
            # their statistics; the CLI rejects the same combination.
            raise ConfigurationError(
                f"spec= already defines the grid; drop {sorted(grid)} "
                "(edit the spec instead)"
            )
        if not isinstance(spec, SweepSpec):
            spec = SweepSpec.load(spec)
        base = scale_config(
            scale if scale is not None else spec.scale,
            seed=seed if seed is not None else spec.seed,
        )
        merged = dict(spec.config_overrides)
        merged.update(config_overrides)
        if merged:
            base = base.with_overrides(**merged)
        return spec, base

    base = scale_config(scale, seed=seed)
    if config_overrides:
        base = base.with_overrides(**config_overrides)
    if any(
        isinstance(entry, ScenarioSelection)
        for entry in grid.get("scenarios", ())
    ):
        return SweepSpec(**grid), base
    # All-name scenarios: the historical flat-grid semantics, bit for
    # bit (same trial keys, same RNG universes, same JSON). Nothing of
    # seed/scale/overrides is baked into the spec — the history
    # address hashes its fingerprint.
    return flat_spec(**grid), base


def run_sweep(
    scenarios: Optional[Sequence[Union[str, ScenarioSelection]]] = None,
    protocols: Optional[Tuple[str, ...]] = None,
    num_nodes: Optional[Tuple[int, ...]] = None,
    fanouts: Optional[Tuple[int, ...]] = None,
    replicates: Optional[int] = None,
    num_messages: Optional[int] = None,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress=None,
    backend: Optional[str] = None,
    spec: Union[SweepSpec, str, Path, None] = None,
    snapshot_cache: Optional[Union[str, Path]] = None,
    overlay_reuse: str = "trial",
    snapshot_cache_max_bytes: Optional[int] = None,
    history: Optional[Union[str, Path]] = None,
    **config_overrides,
) -> SweepResult:
    """Run a declarative (protocol × N × fanout × scenario × seed) grid.

    Every trial is an independent cell executed across ``workers``
    processes; results are aggregated per cell (mean + 95% CI over
    ``replicates``) and are byte-for-byte identical at any worker
    count. ``cache_dir`` enables resume: completed trials are persisted
    and skipped on re-runs.

    **Three ways to describe the grid**:

    1. ``spec=`` — a :class:`~repro.experiments.sweep_spec.SweepSpec`
       (or a path to a spec JSON file). The spec may embed ``scale``,
       ``seed`` and config overrides; explicit arguments here override
       it.
    2. Scenario *selections* — pass
       :func:`~repro.experiments.sweep_spec.scenario` objects in
       ``scenarios``::

           run_sweep(scenarios=(scenario("churn",
                                          churn_rate=[0.01, 0.05]),
                                 "static"))

       Each scenario carries exactly its own (schema-validated)
       parameters; any sweepable parameter may be an axis.
    3. Plain scenario names — ``scenarios=("static", "catastrophic")``
       keeps the historical flat-grid semantics of
       :func:`~repro.experiments.sweep_spec.flat_spec` at its defaults
       (byte-identical to every earlier release). To set a scenario
       parameter, use form 1 or 2.

    ``backend`` picks the execution backend (``"inline"`` or
    ``"process"``); the default is inline at ``workers=1`` and a local
    process pool otherwise. Results are byte-identical whichever
    backend runs them. To spread a sweep over machines, split the grid,
    run each part with its own ``cache_dir`` and copy the caches
    together (``docs/distributed_sweeps.md``).

    ``snapshot_cache`` names a directory for the content-addressed
    overlay snapshot store (see
    :mod:`repro.experiments.snapshot_store` and
    ``docs/performance.md``): built overlays are persisted there and
    re-runs skip the warm-up gossip entirely, with every output byte
    unchanged. ``overlay_reuse="grid"`` additionally derives overlay
    construction from the fanout-independent overlay key, so
    dissemination-only siblings (fanouts, kill fractions, message
    counts) share one overlay per replicate — the paper's
    freeze-once-sweep-fanouts methodology; deterministic and
    backend-independent, but a different experiment design than the
    default per-trial universes (its numbers differ from legacy runs,
    so it is opt-in). ``snapshot_cache_max_bytes`` caps the store's
    on-disk size; least-recently-used entries are evicted after each
    write.

    Dissemination runs on the vectorized array core
    (:mod:`repro.arraysim`) from
    :data:`~repro.arraysim.ARRAY_CORE_MIN_NODES` alive nodes up and on
    the reference object executor below; the overlay decides, not an
    option. See ``docs/performance.md``.

    Scenario names come from
    :mod:`repro.experiments.scenario_matrix` (``static``,
    ``catastrophic``, ``churn``, ``multi_message``, ``pull_churn``,
    ``scheduling_optimal``, plus anything registered at runtime);
    extra keyword arguments override
    :class:`~repro.experiments.config.ExperimentConfig` fields of the
    per-trial base configuration (e.g. ``warmup_cycles=40``).

    ``history`` names a sweep history store directory (see
    :mod:`repro.experiments.history` and
    ``docs/experiment_service.md``): completed sweeps are persisted
    keyed by the spec fingerprint, effective config and execution
    mode, and re-running an identical sweep is a pure lookup — zero
    trial executions, byte-identical :class:`SweepResult`.
    """
    grid, base = _resolve_sweep_grid(
        scenarios,
        protocols,
        num_nodes,
        fanouts,
        replicates,
        num_messages,
        scale,
        seed,
        spec,
        config_overrides,
    )
    run_kwargs = dict(
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        backend=backend,
        snapshot_cache=snapshot_cache,
        overlay_reuse=overlay_reuse,
        snapshot_cache_max_bytes=snapshot_cache_max_bytes,
    )
    if history is None:
        return _run_sweep(grid, base_config=base, root_seed=base.seed, **run_kwargs)
    digest = config_fingerprint(base)
    mode = history_mode(overlay_reuse=overlay_reuse)
    hit = load_history_entry(history, grid, base.seed, digest, mode)
    if hit is not None:
        return hit.result
    result = _run_sweep(grid, base_config=base, root_seed=base.seed, **run_kwargs)
    store_history_entry(history, grid, result, base.seed, digest, mode)
    return result


def run_adaptive_sweep(
    scenarios: Optional[Sequence[Union[str, ScenarioSelection]]] = None,
    protocols: Optional[Tuple[str, ...]] = None,
    num_nodes: Optional[Tuple[int, ...]] = None,
    fanouts: Optional[Tuple[int, ...]] = None,
    replicates: Optional[int] = None,
    num_messages: Optional[int] = None,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress=None,
    backend: Optional[str] = None,
    spec: Union[SweepSpec, str, Path, None] = None,
    snapshot_cache: Optional[Union[str, Path]] = None,
    overlay_reuse: str = "trial",
    snapshot_cache_max_bytes: Optional[int] = None,
    history: Optional[Union[str, Path]] = None,
    ci_width: float = 1.0,
    max_replicates: int = 8,
    ci_metric: str = "miss_ratio",
    **config_overrides,
) -> AdaptiveOutcome:
    """Run a sweep with adaptive per-cell replicate allocation.

    Accepts the same grid descriptions, backends and caches as
    :func:`run_sweep`; the grid's ``replicates`` count is the *initial*
    batch per cell. After each round the 95% confidence interval of
    ``ci_metric`` (``"miss_ratio"`` — percentage points of missed
    delivery — or ``"hops"``) is computed per cell, and one further
    replicate is scheduled for every cell whose CI is still wider than
    ``ci_width``, up to ``max_replicates`` replicates per cell.

    Replicate seeds come from the same per-trial RNG-universe scheme
    as fixed grids, so any per-cell replicate prefix is byte-identical
    to a fixed-replicate run of the same depth — adaptivity changes
    *how many* trials run, never the trials themselves.

    ``history`` persists/reuses the outcome like :func:`run_sweep`,
    under a mode key that includes the adaptive settings (an adaptive
    run never answers a fixed-grid lookup or vice versa).
    """
    grid, base = _resolve_sweep_grid(
        scenarios,
        protocols,
        num_nodes,
        fanouts,
        replicates,
        num_messages,
        scale,
        seed,
        spec,
        config_overrides,
    )
    settings = AdaptiveSettings(
        ci_width=ci_width,
        max_replicates=max_replicates,
        metric=ci_metric,
    )
    run_kwargs = dict(
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        backend=backend,
        snapshot_cache=snapshot_cache,
        overlay_reuse=overlay_reuse,
        snapshot_cache_max_bytes=snapshot_cache_max_bytes,
    )
    digest = ""
    mode: dict = {}
    if history is not None:
        digest = config_fingerprint(base)
        mode = history_mode(
            overlay_reuse=overlay_reuse, adaptive=settings.to_dict()
        )
        hit = load_history_entry(history, grid, base.seed, digest, mode)
        if hit is not None:
            rebuilt = _outcome_from_history(hit, settings)
            if rebuilt is not None:
                return rebuilt
    outcome = _run_adaptive(
        grid,
        settings,
        base_config=base,
        root_seed=base.seed,
        **run_kwargs,
    )
    if history is not None:
        store_history_entry(
            history,
            grid,
            outcome.result,
            base.seed,
            digest,
            mode,
            adaptive=outcome.to_history_dict(),
        )
    return outcome


def _outcome_from_history(hit, settings: AdaptiveSettings) -> Optional[AdaptiveOutcome]:
    """Rebuild an :class:`AdaptiveOutcome` from a history entry's
    ``adaptive`` block; any malformation is a cache miss, not a crash
    (same hardening contract as the store itself)."""
    try:
        payload = hit.adaptive
        allocation = tuple(
            CellAllocation(
                label=str(cell["label"]),
                replicates=int(cell["replicates"]),
                ci95=None if cell["ci95"] is None else float(cell["ci95"]),
                converged=bool(cell["converged"]),
            )
            for cell in payload["allocation"]
        )
        return AdaptiveOutcome(
            result=hit.result,
            settings=settings,
            rounds=int(payload["rounds"]),
            allocation=allocation,
        )
    except (KeyError, TypeError, ValueError):
        return None


def run_sweep_diff(
    spec_a: Union[SweepSpec, str, Path],
    spec_b: Union[SweepSpec, str, Path],
    history: Optional[Union[str, Path]] = None,
    **run_kwargs,
) -> SweepDiff:
    """Compare two sweep specs cell by cell.

    Each spec is resolved through :func:`run_sweep` (so with
    ``history`` set, previously-run specs are pure lookups and only
    missing ones execute). Matched cells are flagged ``distinct`` when
    their miss-ratio gap exceeds the sum of both 95% CIs; cells present
    in only one spec are listed separately. ``run_kwargs`` are
    forwarded to both runs (workers, backend, caches, ...).
    """
    spec_a = spec_a if isinstance(spec_a, SweepSpec) else SweepSpec.load(spec_a)
    spec_b = spec_b if isinstance(spec_b, SweepSpec) else SweepSpec.load(spec_b)
    result_a = run_sweep(spec=spec_a, history=history, **run_kwargs)
    result_b = run_sweep(spec=spec_b, history=history, **run_kwargs)
    return diff_sweeps(
        result_a,
        result_b,
        label_a=spec_a.fingerprint(),
        label_b=spec_b.fingerprint(),
    )
