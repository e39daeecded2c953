"""The sweep engine's scenario registry.

Each entry maps a scenario name to a *trial executor*: a function that
runs one fully-specified :class:`~repro.experiments.sweep_results.TrialSpec`
inside its own RNG universe and returns a
:class:`~repro.experiments.sweep_results.TrialResult`. Unlike
:mod:`repro.experiments.scenarios` (which sweeps all fanouts over
several networks in one call, for the figure pipeline), a trial here is
the smallest independently-schedulable unit — one network, one fanout —
so the sweep engine can spread a grid across worker processes while
replicates provide the averaging.

Registered scenarios:

* ``static`` — the paper's §7.1 failure-free network.
* ``catastrophic`` — §7.2, ``kill_fraction`` of the nodes die after
  freeze with no self-healing.
* ``churn`` — §7.3, continuous artificial churn until full population
  turnover, then freeze and disseminate.
* ``multi_message`` — several messages disseminated concurrently over
  one static overlay from distinct origins, measuring the aggregate
  per-node load (the workload of Sanghavi et al., *Gossiping with
  Multiple Messages*).
* ``pull_churn`` — dissemination over a churned overlay followed by the
  §8 pull-recovery anti-entropy post-pass (push reliability vs pull
  latency under membership damage).

New scenarios plug in with :func:`register_scenario`, declaring a
*typed parameter schema* (:class:`ParamSpec` entries: name, kind,
default, bounds, sweepable-axis flag) alongside the executor. The
schema makes a scenario self-describing: grid/spec validation
(:mod:`repro.experiments.sweep_spec`), the auto-generated ``repro
sweep`` CLI flags, and :func:`repro.api.run_experiment`'s
unknown-parameter rejection all read it — a new scenario needs zero
edits to those layers. The CLI and grid validation read
:func:`scenario_names`; :func:`scenario_schema` returns one scenario's
schema and :func:`registered_params` the union across scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.dissemination.executor import DisseminationResult, disseminate
from repro.dissemination.policies import policy_for_snapshot
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.experiments.scenarios import (
    build_churned_overlay,
    build_static_overlay,
    sweep_snapshot,
)
from repro.experiments.sweep_results import (
    UNIVERSAL_PARAM_DEFAULTS,
    TrialResult,
    TrialSpec,
)
from repro.extensions.pull_recovery import pull_recovery
from repro.metrics.dissemination import summarize_runs

__all__ = [
    "ParamSpec",
    "ScenarioSchema",
    "execute_trial",
    "register_scenario",
    "registered_params",
    "resolve_scenario",
    "run_trial",
    "scenario_names",
    "scenario_schema",
    "scenarios_consuming",
    "trial_config",
    "validate_scenario_params",
]

TrialExecutor = Callable[
    [TrialSpec, ExperimentConfig, RngRegistry], TrialResult
]

ParamValue = Union[int, float]

_RESERVED_PARAM_NAMES = frozenset(
    (
        "scenario",
        "protocol",
        "num_nodes",
        "fanout",
        "replicate",
        "num_messages",
        "params",
    )
)


@dataclass(frozen=True)
class ParamSpec:
    """One typed scenario parameter.

    Attributes:
        name: Python-identifier parameter name; becomes a ``TrialSpec``
            param, a spec-file key, and an auto-generated CLI flag
            (``--kill-fraction`` for ``kill_fraction``).
        kind: ``"int"`` or ``"float"``.
        default: Value used when a sweep does not set the parameter.
        sweepable: Whether the parameter may carry several values and
            multiply into the grid as an axis.
        minimum / maximum: Optional inclusive bounds
            (``exclusive_minimum``/``exclusive_maximum`` tighten them
            to strict inequalities).
        affects_overlay: Whether the parameter shapes overlay
            *construction* (warm-up), as opposed to dissemination over
            the finished overlay. ``churn_rate`` does; ``kill_fraction``
            (applied after freeze) and the pure dissemination knobs do
            not. The snapshot store keys overlays on exactly the
            affecting parameters, so declaring this correctly is what
            lets fanout/kill-fraction siblings share a cached overlay.
            Defaults to ``True`` — a needlessly split cache is harmless,
            a wrongly shared overlay never is.
        help: One-line description, surfaced in CLI ``--help``.
    """

    name: str
    kind: str = "float"
    default: ParamValue = 0.0
    sweepable: bool = True
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive_minimum: bool = False
    exclusive_maximum: bool = False
    affects_overlay: bool = True
    help: str = ""

    def __post_init__(self) -> None:
        if (
            not self.name.isidentifier()
            or self.name in _RESERVED_PARAM_NAMES
        ):
            raise ConfigurationError(
                f"invalid parameter name {self.name!r}"
            )
        if self.kind not in ("int", "float"):
            raise ConfigurationError(
                f"parameter {self.name!r}: kind must be 'int' or "
                f"'float', got {self.kind!r}"
            )
        object.__setattr__(self, "default", self.coerce(self.default))

    def coerce(self, value: object) -> ParamValue:
        """Type-check + bound-check ``value``; return it normalised."""
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            raise ConfigurationError(
                f"parameter {self.name!r} expects a number, got "
                f"{value!r}"
            )
        # NaN fails every bound comparison below, and int() of a
        # non-finite float raises a bare ValueError or OverflowError.
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(
                f"parameter {self.name!r} expects a finite number, got "
                f"{value!r}"
            )
        if self.kind == "int":
            if float(value) != int(value):
                raise ConfigurationError(
                    f"parameter {self.name!r} expects an integer, got "
                    f"{value!r}"
                )
            result: ParamValue = int(value)
        else:
            result = float(value)
        if self.minimum is not None:
            if result < self.minimum or (
                self.exclusive_minimum and result == self.minimum
            ):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be "
                    f"{'>' if self.exclusive_minimum else '>='} "
                    f"{self.minimum}, got {value!r}"
                )
        if self.maximum is not None:
            if result > self.maximum or (
                self.exclusive_maximum and result == self.maximum
            ):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be "
                    f"{'<' if self.exclusive_maximum else '<='} "
                    f"{self.maximum}, got {value!r}"
                )
        return result


@dataclass(frozen=True)
class ScenarioSchema:
    """The declared parameters (and doc line) of one scenario.

    ``overlay_family`` names the overlay-construction procedure this
    scenario uses; scenarios declaring the same family build
    byte-identical overlays from the same inputs (``static``,
    ``catastrophic`` and ``multi_message`` all freeze the same
    failure-free warm-up, so they share the ``"static"`` family), which
    lets the snapshot store share one cached overlay across them.
    ``None`` means the scenario's overlays are its own (no
    cross-scenario sharing).
    """

    params: Tuple[ParamSpec, ...] = ()
    description: str = ""
    overlay_family: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate parameter name in schema: {names}"
            )

    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> Optional[ParamSpec]:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None


@dataclass(frozen=True)
class _Registration:
    executor: TrialExecutor
    schema: ScenarioSchema = field(default_factory=ScenarioSchema)


_SCENARIOS: Dict[str, _Registration] = {}

# Universal legacy parameters accepted (as scalars) by every scenario
# for wire/cache compatibility, typed here so generic validation can
# coerce them even for scenarios that don't consume them.
_UNIVERSAL_PARAM_SPECS: Dict[str, ParamSpec] = {
    "kill_fraction": ParamSpec(
        "kill_fraction",
        kind="float",
        default=UNIVERSAL_PARAM_DEFAULTS["kill_fraction"],
        minimum=0.0,
        maximum=1.0,
        exclusive_maximum=True,
        affects_overlay=False,  # applied after freeze
        help="fraction of nodes killed after freeze",
    ),
    "churn_rate": ParamSpec(
        "churn_rate",
        kind="float",
        default=UNIVERSAL_PARAM_DEFAULTS["churn_rate"],
        minimum=0.0,
        maximum=1.0,
        exclusive_maximum=True,
        help="per-cycle node replacement rate",
    ),
    "concurrent_messages": ParamSpec(
        "concurrent_messages",
        kind="int",
        default=UNIVERSAL_PARAM_DEFAULTS["concurrent_messages"],
        minimum=1,
        affects_overlay=False,  # dissemination batching only
        help="batch size for concurrent dissemination",
    ),
    "pulls_per_round": ParamSpec(
        "pulls_per_round",
        kind="int",
        default=UNIVERSAL_PARAM_DEFAULTS["pulls_per_round"],
        minimum=1,
        affects_overlay=False,  # post-dissemination recovery only
        help="polls per pull-recovery round",
    ),
}


def register_scenario(
    name: str,
    executor: TrialExecutor,
    schema: Union[ScenarioSchema, Sequence[ParamSpec], None] = None,
) -> None:
    """Register (or replace) a scenario under ``name``.

    ``schema`` declares the scenario's parameters (a
    :class:`ScenarioSchema` or a plain sequence of :class:`ParamSpec`);
    omitting it registers a parameter-less scenario. Parameter names
    must agree across scenarios: two scenarios declaring the same name
    must declare the same :class:`ParamSpec` (the auto-generated CLI
    exposes one flag per name).
    """
    if schema is None:
        schema = ScenarioSchema()
    elif not isinstance(schema, ScenarioSchema):
        schema = ScenarioSchema(params=tuple(schema))
    for param in schema.params:
        for other_name, other in _SCENARIOS.items():
            if other_name == name:
                continue
            conflict = other.schema.param(param.name)
            if conflict is not None and conflict != param:
                raise ConfigurationError(
                    f"scenario {name!r} declares parameter "
                    f"{param.name!r} differently from scenario "
                    f"{other_name!r}"
                )
        universal = _UNIVERSAL_PARAM_SPECS.get(param.name)
        if universal is not None and param.kind != universal.kind:
            raise ConfigurationError(
                f"parameter {param.name!r} is universal with kind "
                f"{universal.kind!r}; cannot redeclare as {param.kind!r}"
            )
    _SCENARIOS[name] = _Registration(executor=executor, schema=schema)


def scenario_names() -> Tuple[str, ...]:
    """Every registered scenario, sorted."""
    return tuple(sorted(_SCENARIOS))


def resolve_scenario(name: str) -> TrialExecutor:
    """The executor registered for ``name`` (raises if unknown)."""
    return _registration(name).executor


def scenario_schema(name: str) -> ScenarioSchema:
    """The parameter schema registered for ``name`` (raises if unknown)."""
    return _registration(name).schema


def _registration(name: str) -> _Registration:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of "
            f"{scenario_names()}"
        ) from None


def registered_params() -> Dict[str, ParamSpec]:
    """The union of declared parameters across scenarios, by name."""
    union: Dict[str, ParamSpec] = {}
    for name in scenario_names():
        for param in _SCENARIOS[name].schema.params:
            union.setdefault(param.name, param)
    return union


def scenarios_consuming(param_name: str) -> Tuple[str, ...]:
    """Which registered scenarios declare (consume) ``param_name``."""
    return tuple(
        name
        for name in scenario_names()
        if _SCENARIOS[name].schema.param(param_name) is not None
    )


def validate_scenario_params(
    name: str, params: Mapping[str, object]
) -> Dict[str, ParamValue]:
    """Validate/coerce ``params`` for scenario ``name``.

    Parameters the scenario declares are coerced against their
    :class:`ParamSpec`; the universal legacy parameters are accepted
    (and coerced) for every scenario; anything else is rejected with
    the list of what the scenario does accept.
    """
    schema = scenario_schema(name)
    coerced: Dict[str, ParamValue] = {}
    for param_name, value in params.items():
        spec = schema.param(param_name)
        if spec is None:
            spec = _UNIVERSAL_PARAM_SPECS.get(param_name)
        if spec is None:
            accepted = sorted(
                set(schema.names()) | set(_UNIVERSAL_PARAM_SPECS)
            )
            raise ConfigurationError(
                f"scenario {name!r} does not accept parameter "
                f"{param_name!r}; accepted parameters: {accepted}"
            )
        coerced[param_name] = spec.coerce(value)
    return coerced


def trial_config(
    spec: TrialSpec, config: ExperimentConfig, root_seed: int
) -> ExperimentConfig:
    """The effective per-trial configuration: ``config`` with the
    spec's grid axes substituted in.

    Everything a trial computes is a function of this config plus the
    trial's RNG universe — the sweep cache fingerprints it for exactly
    that reason.
    """
    return config.with_overrides(
        num_nodes=spec.num_nodes,
        fanouts=(spec.fanout,),
        num_messages=spec.num_messages,
        num_networks=1,
        churn_networks=1,
        seed=root_seed,
    )


@dataclass
class _OverlayContext:
    """The snapshot provider (and root seed) active for the trial the
    current thread is executing, if any."""

    provider: object  # SnapshotProvider; untyped to avoid an import cycle
    root_seed: int


# Set around each executor call by execute_trial. Trial executors run
# one-per-process (inline loop or pool worker), so a plain module
# global with save/restore semantics is sufficient.
_OVERLAY_CONTEXT: Optional[_OverlayContext] = None

def execute_trial(
    executor: TrialExecutor,
    spec: TrialSpec,
    config: ExperimentConfig,
    root_seed: int,
    overlay_provider=None,
) -> TrialResult:
    """Run ``executor`` on one trial in a fresh RNG universe.

    The registry is spawned from ``(root_seed, spec.key)``, so a trial's
    outcome is a pure function of the root seed and its spec — identical
    no matter which worker runs it or in what order. The executor is
    passed in (rather than looked up here) so scenarios registered at
    runtime in the parent process still work when worker processes are
    started via spawn/forkserver, where the worker's registry only
    contains the built-ins; a module-level executor function pickles
    across fine.

    ``overlay_provider`` (a
    :class:`~repro.experiments.snapshot_store.SnapshotProvider`) is made
    visible to the overlay builders for the duration of the call, so
    any executor that warms up through :func:`_built_snapshot` /
    :func:`_churned_snapshot` — including runtime-registered plugins —
    transparently reuses cached overlays. In the provider's default
    ``trial`` mode this changes no output byte: a hit returns exactly
    the overlay the trial would have built, and overlay construction
    and dissemination consume disjoint named streams.
    """
    registry = RngRegistry(root_seed).spawn(spec.key)
    effective = trial_config(spec, config, root_seed)
    global _OVERLAY_CONTEXT
    previous = _OVERLAY_CONTEXT
    if overlay_provider is not None:
        _OVERLAY_CONTEXT = _OverlayContext(overlay_provider, root_seed)
    try:
        return executor(spec, effective, registry)
    finally:
        _OVERLAY_CONTEXT = previous


def run_trial(
    spec: TrialSpec,
    config: ExperimentConfig,
    root_seed: int,
    overlay_provider=None,
) -> TrialResult:
    """Look up the spec's scenario in this process and execute it."""
    return execute_trial(
        resolve_scenario(spec.scenario),
        spec,
        config,
        root_seed,
        overlay_provider=overlay_provider,
    )


def _build_static_overlay(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
):
    """The failure-free warm-up (the ``static`` overlay family)."""
    overlay = OverlaySpec(kind=spec.protocol)
    return build_static_overlay(config, overlay, registry), {}


def _built_snapshot(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> OverlaySnapshot:
    context = _OVERLAY_CONTEXT
    if context is not None:
        snapshot, _extras = context.provider.acquire(
            spec,
            config,
            context.root_seed,
            registry,
            builder=_build_static_overlay,
        )
        return snapshot
    return _build_static_overlay(spec, config, registry)[0]


def _disseminate_batch(
    snapshot: OverlaySnapshot,
    spec: TrialSpec,
    config: ExperimentConfig,
    registry: RngRegistry,
    collect_load: bool = False,
) -> List[DisseminationResult]:
    """Post ``config.num_messages`` messages at the trial's one fanout.

    Delegates to the figure pipeline's :func:`sweep_snapshot` restricted
    to the single fanout, so the sweep path and the serial scenario path
    share one dissemination loop (same stream names, same draw order).
    """
    sweep = sweep_snapshot(
        snapshot,
        config,
        registry,
        collect_load=collect_load,
        fanouts=(spec.fanout,),
    )
    return sweep.runs[spec.fanout]


def _result_from_runs(
    spec: TrialSpec,
    runs: List[DisseminationResult],
    extras: Dict[str, float],
) -> TrialResult:
    stats = summarize_runs(runs)
    return TrialResult(
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


def _run_static(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> TrialResult:
    snapshot = _built_snapshot(spec, config, registry)
    runs = _disseminate_batch(snapshot, spec, config, registry)
    return _result_from_runs(spec, runs, {})


def _run_catastrophic(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> TrialResult:
    snapshot = _built_snapshot(spec, config, registry)
    damaged = snapshot.kill_fraction(
        spec.kill_fraction, registry.stream("failures")
    )
    runs = _disseminate_batch(damaged, spec, config, registry)
    return _result_from_runs(
        spec,
        runs,
        {"killed": float(snapshot.population - damaged.population)},
    )


def _build_churned_overlay(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
):
    """Warm-up under churn until full turnover (the ``churned`` family).

    The turnover cycle count is part of the build outcome (churn trials
    report it), so it rides in the entry's extras and survives caching.
    """
    overlay = OverlaySpec(kind=spec.protocol)
    snapshot, cycles = build_churned_overlay(
        config, overlay, registry, spec.churn_rate
    )
    return snapshot, {"churn_cycles": float(cycles)}


def _churned_snapshot(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> Tuple[OverlaySnapshot, int]:
    """Warm up under churn until full turnover; return (snapshot, cycles)."""
    if spec.churn_rate <= 0.0:
        # No silent fallback to config.churn_rate: a cell labelled 0%
        # churn must never report churned numbers. A churn-free trial
        # is the static scenario.
        raise ConfigurationError(
            f"{spec.scenario!r} trials need churn_rate > 0 "
            "(use the 'static' scenario for a churn-free baseline)"
        )
    context = _OVERLAY_CONTEXT
    if context is not None:
        snapshot, extras = context.provider.acquire(
            spec,
            config,
            context.root_seed,
            registry,
            builder=_build_churned_overlay,
        )
    else:
        snapshot, extras = _build_churned_overlay(spec, config, registry)
    return snapshot, int(extras["churn_cycles"])


def _run_churn(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> TrialResult:
    snapshot, cycles = _churned_snapshot(spec, config, registry)
    runs = _disseminate_batch(snapshot, spec, config, registry)
    return _result_from_runs(spec, runs, {"churn_cycles": float(cycles)})


def _run_multi_message(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> TrialResult:
    """Concurrent multi-message dissemination over one static overlay.

    Each of the trial's ``num_messages`` repetitions posts a batch of
    ``concurrent_messages`` messages from distinct random origins
    spreading simultaneously; the hop-synchronous model makes their
    deliveries independent, so the interesting aggregate is the load a
    batch imposes together on individual nodes (forwarding hotspots),
    averaged over the repetitions.
    """
    snapshot = _built_snapshot(spec, config, registry)
    origins_rng = registry.stream("origins")
    targets_rng = registry.stream("targets")
    policy = policy_for_snapshot(snapshot)
    batch = min(spec.concurrent_messages, snapshot.population)
    runs: List[DisseminationResult] = []
    max_loads: List[float] = []
    mean_loads: List[float] = []
    for _ in range(config.num_messages):
        origins = origins_rng.sample(snapshot.alive_ids, batch)
        batch_runs = [
            disseminate(
                snapshot,
                policy,
                spec.fanout,
                origin,
                targets_rng,
                collect_load=True,
            )
            for origin in origins
        ]
        load: Dict[int, int] = {}
        for result in batch_runs:
            for node_id, sent in result.sent_per_node.items():
                load[node_id] = load.get(node_id, 0) + sent
            for node_id, received in result.received_per_node.items():
                load[node_id] = load.get(node_id, 0) + received
        max_loads.append(float(max(load.values(), default=0)))
        mean_loads.append(
            float(sum(load.values())) / snapshot.population
        )
        runs.extend(batch_runs)
    extras = {
        "concurrent_messages": float(batch),
        "max_node_load": sum(max_loads) / len(max_loads),
        "mean_node_load": sum(mean_loads) / len(mean_loads),
    }
    return _result_from_runs(spec, runs, extras)


def _run_pull_churn(
    spec: TrialSpec, config: ExperimentConfig, registry: RngRegistry
) -> TrialResult:
    """Push over a churned overlay, then §8 pull recovery per message."""
    snapshot, cycles = _churned_snapshot(spec, config, registry)
    runs = _disseminate_batch(snapshot, spec, config, registry)
    pulls_rng = registry.stream("pulls")
    recoveries = [
        pull_recovery(
            snapshot,
            push,
            pulls_rng,
            pulls_per_round=spec.pulls_per_round,
        )
        for push in runs
    ]
    extras = {
        "churn_cycles": float(cycles),
        "pull_final_hit_ratio": sum(
            r.final_hit_ratio for r in recoveries
        ) / len(recoveries),
        "pull_rounds": sum(r.rounds_used for r in recoveries)
        / len(recoveries),
        "pull_requests": sum(r.pull_requests for r in recoveries)
        / len(recoveries),
        "pull_recovered": float(sum(r.recovered for r in recoveries)),
        "pull_unrecoverable": float(
            sum(r.unrecoverable for r in recoveries)
        ),
    }
    return _result_from_runs(spec, runs, extras)


# Shared ParamSpecs: scenarios declaring the same parameter must agree
# on its type/bounds, so the CLI can expose exactly one flag per name.
_KILL_FRACTION = ParamSpec(
    "kill_fraction",
    kind="float",
    default=0.05,
    sweepable=True,
    minimum=0.0,
    maximum=1.0,
    exclusive_maximum=True,
    affects_overlay=False,  # kills happen after the overlay is frozen
    help="fraction of nodes killed after freeze, before dissemination",
)
_CHURN_RATE = ParamSpec(
    "churn_rate",
    kind="float",
    default=0.01,
    sweepable=True,
    minimum=0.0,
    exclusive_minimum=True,
    maximum=1.0,
    exclusive_maximum=True,
    help="per-cycle node replacement rate during warm-up churn",
)
_CONCURRENT_MESSAGES = ParamSpec(
    "concurrent_messages",
    kind="int",
    default=4,
    sweepable=True,
    minimum=1,
    affects_overlay=False,  # batching over an already-frozen overlay
    help="messages disseminated concurrently per batch",
)
_PULLS_PER_ROUND = ParamSpec(
    "pulls_per_round",
    kind="int",
    default=1,
    sweepable=True,
    minimum=1,
    affects_overlay=False,  # recovery runs after dissemination
    help="polls per round of the §8 pull-recovery post-pass",
)

register_scenario(
    "static",
    _run_static,
    ScenarioSchema(
        description="failure-free network (§7.1)",
        overlay_family="static",
    ),
)
register_scenario(
    "catastrophic",
    _run_catastrophic,
    ScenarioSchema(
        params=(_KILL_FRACTION,),
        description="mass node failure after freeze (§7.2)",
        overlay_family="static",  # kills are injected post-freeze
    ),
)
register_scenario(
    "churn",
    _run_churn,
    ScenarioSchema(
        params=(_CHURN_RATE,),
        description="continuous churn until full turnover (§7.3)",
        overlay_family="churned",
    ),
)
register_scenario(
    "multi_message",
    _run_multi_message,
    ScenarioSchema(
        params=(_CONCURRENT_MESSAGES,),
        description="concurrent multi-message load (Sanghavi et al.)",
        overlay_family="static",  # same failure-free warm-up
    ),
)
register_scenario(
    "pull_churn",
    _run_pull_churn,
    ScenarioSchema(
        params=(_CHURN_RATE, _PULLS_PER_ROUND),
        description="push under churn + §8 pull recovery",
        overlay_family="churned",  # pulls run after the same churned build
    ),
)
