"""Adaptive seed-replicate allocation for sweeps.

Fixed replicate counts are guesses: quiet cells (static RINGCAST at
fanout 4 — zero misses every seed) waste replicates, noisy cells
(catastrophic RANDCAST at fanout 1) stay under-sampled. This engine
runs the grid's initial replicate batch, computes per-cell 95%
confidence intervals on the primary metric, and keeps allocating one
more seed replicate per round to exactly the cells whose interval is
still wider than the target — until every cell converges or hits the
replicate cap.

Determinism is inherited, not re-engineered: extra replicates are plain
:class:`~repro.experiments.sweep_results.TrialSpec`\\ s whose
``replicate`` index extends the cell's sequence, and the replicate is
the *last* segment of ``spec.key`` — so each trial draws the same RNG
universe it would occupy inside a fixed-replicate grid. Any adaptive
cell's replicate sequence is therefore byte-identical to a prefix of
the corresponding fixed-replicate cell (pinned by golden test), and the
whole engine composes with every backend, the trial/resume cache, and
the snapshot store, because rounds execute through the ordinary
:func:`~repro.experiments.sweep.run_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.experiments.sweep import TrialListGrid, run_sweep
from repro.experiments.sweep_results import (
    SweepResult,
    TrialResult,
    TrialSpec,
    _ci95,
)
from repro.experiments.sweep_spec import SweepSpec

__all__ = [
    "ADAPTIVE_METRICS",
    "AdaptiveOutcome",
    "AdaptiveSettings",
    "CellAllocation",
    "render_adaptive_summary",
    "run_adaptive_sweep",
]

# Primary metrics the CI is computed on. ``miss_ratio`` is the paper's
# delivery ratio seen from the other side (same interval widths).
ADAPTIVE_METRICS = ("miss_ratio", "hops")


@dataclass(frozen=True)
class AdaptiveSettings:
    """Target precision and budget for adaptive allocation."""

    ci_width: float
    max_replicates: int
    metric: str = "miss_ratio"

    def __post_init__(self) -> None:
        if not (self.ci_width > 0.0) or not math.isfinite(self.ci_width):
            raise ConfigurationError(
                f"ci_width must be a positive number, got {self.ci_width!r}"
            )
        if self.max_replicates < 2:
            raise ConfigurationError(
                "max_replicates must be >= 2 (a CI needs two samples), "
                f"got {self.max_replicates}"
            )
        if self.metric not in ADAPTIVE_METRICS:
            raise ConfigurationError(
                f"unknown adaptive metric {self.metric!r}; expected one "
                f"of {ADAPTIVE_METRICS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ci_width": self.ci_width,
            "max_replicates": self.max_replicates,
            "metric": self.metric,
        }


@dataclass(frozen=True)
class CellAllocation:
    """Final replicate count and precision reached for one cell."""

    label: str
    replicates: int
    ci95: Optional[float]
    converged: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "replicates": self.replicates,
            "ci95": self.ci95,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class AdaptiveOutcome:
    """Everything an adaptive run produced, result plus accounting."""

    result: SweepResult
    settings: AdaptiveSettings
    rounds: int
    allocation: Tuple[CellAllocation, ...]

    @property
    def total_trials(self) -> int:
        return len(self.result.trials)

    @property
    def fixed_trials(self) -> int:
        """Trial count a fixed-replicate run at the cap would execute."""
        return len(self.allocation) * self.settings.max_replicates

    @property
    def converged(self) -> bool:
        return all(cell.converged for cell in self.allocation)

    def to_history_dict(self) -> Dict[str, Any]:
        """The accounting block persisted next to the history entry."""
        return {
            "settings": self.settings.to_dict(),
            "rounds": self.rounds,
            "total_trials": self.total_trials,
            "fixed_trials": self.fixed_trials,
            "converged": self.converged,
            "allocation": [cell.to_dict() for cell in self.allocation],
        }


def _metric_value(trial: TrialResult, metric: str) -> float:
    if metric == "hops":
        return trial.mean_hops
    # Percentage points, matching the ±miss column of the sweep report
    # (a ratio-unit width would make the default target trivially met).
    return 100.0 * trial.mean_miss_ratio


def _cell_width(members: List[TrialResult], metric: str) -> float:
    """Half-width of the 95% CI; infinite until two samples exist."""
    if len(members) < 2:
        return math.inf
    return _ci95([_metric_value(t, metric) for t in members])


def _with_replicate(spec: TrialSpec, replicate: int) -> TrialSpec:
    return TrialSpec(
        scenario=spec.scenario,
        protocol=spec.protocol,
        num_nodes=spec.num_nodes,
        fanout=spec.fanout,
        replicate=replicate,
        num_messages=spec.num_messages,
        params=spec.params,
    )


def run_adaptive_sweep(
    grid: SweepSpec,
    settings: AdaptiveSettings,
    base_config: Any = None,
    root_seed: int = 42,
    **run_kwargs: Any,
) -> AdaptiveOutcome:
    """Run ``grid`` with adaptive per-cell replicate allocation.

    ``grid`` is a :class:`~repro.experiments.sweep_spec.SweepSpec`; its
    ``replicates`` field is the initial batch per cell (at least 2 so
    the first CI is defined). All remaining keyword arguments are
    passed straight to :func:`~repro.experiments.sweep.run_sweep` —
    backends, caches, snapshot stores, and progress narration compose
    unchanged.
    """
    if not isinstance(grid, SweepSpec):
        raise ConfigurationError(
            f"adaptive sweeps need a SweepSpec, got {type(grid).__name__}"
        )
    initial = grid.replicates
    if initial < 2:
        raise ConfigurationError(
            "adaptive sweeps need an initial batch of >= 2 replicates "
            f"per cell (a CI needs two samples), got {initial}"
        )
    if settings.max_replicates < initial:
        raise ConfigurationError(
            f"max_replicates ({settings.max_replicates}) must be >= the "
            f"initial replicate batch ({initial})"
        )

    # Round 0: the ordinary fixed run of the initial batch.
    result = run_sweep(grid, base_config, root_seed, **run_kwargs)

    # Cell bookkeeping in grid-expansion order. The replicate-0 trial
    # of each cell is its template for allocating further replicates.
    cell_order: List[Tuple[Any, ...]] = []
    templates: Dict[Tuple[Any, ...], TrialSpec] = {}
    members: Dict[Tuple[Any, ...], List[TrialResult]] = {}
    for trial in result.trials:
        cell = trial.spec.cell
        if cell not in templates:
            cell_order.append(cell)
            templates[cell] = trial.spec
            members[cell] = []
        members[cell].append(trial)

    rounds = 1
    while True:
        needy = [
            cell
            for cell in cell_order
            if len(members[cell]) < settings.max_replicates
            and _cell_width(members[cell], settings.metric)
            > settings.ci_width
        ]
        if not needy:
            break
        extra = tuple(
            _with_replicate(templates[cell], len(members[cell]))
            for cell in needy
        )
        round_result = run_sweep(
            TrialListGrid(extra), base_config, root_seed, **run_kwargs
        )
        for trial in round_result.trials:
            members[trial.spec.cell].append(trial)
        rounds += 1

    # Canonical assembly: cell-major in expansion order, replicate-minor
    # — exactly the order a fixed-replicate grid would produce, with
    # each cell truncated to its allocated count.
    ordered: List[TrialResult] = []
    allocation: List[CellAllocation] = []
    for cell in cell_order:
        cell_members = sorted(members[cell], key=lambda t: t.spec.replicate)
        ordered.extend(cell_members)
        width = _cell_width(cell_members, settings.metric)
        allocation.append(
            CellAllocation(
                label=templates[cell].key.rsplit("/rep", 1)[0],
                replicates=len(cell_members),
                ci95=None if math.isinf(width) else width,
                converged=width <= settings.ci_width,
            )
        )
    return AdaptiveOutcome(
        result=SweepResult(root_seed=root_seed, trials=tuple(ordered)),
        settings=settings,
        rounds=rounds,
        allocation=tuple(allocation),
    )


def render_adaptive_summary(outcome: AdaptiveOutcome) -> str:
    """One-paragraph accounting of what adaptive allocation saved."""
    settings = outcome.settings
    lines = [
        f"adaptive allocation: metric={settings.metric} "
        f"target-CI={settings.ci_width:g} cap={settings.max_replicates} "
        f"rounds={outcome.rounds}",
        f"  trials executed: {outcome.total_trials} "
        f"(fixed run at the cap: {outcome.fixed_trials})",
    ]
    stragglers = [cell for cell in outcome.allocation if not cell.converged]
    if stragglers:
        worst = ", ".join(
            f"{cell.label} (±{cell.ci95:.4f}, n={cell.replicates})"
            if cell.ci95 is not None
            else f"{cell.label} (n={cell.replicates})"
            for cell in stragglers[:4]
        )
        lines.append(
            f"  {len(stragglers)} cell(s) hit the replicate cap before "
            f"reaching the target: {worst}"
        )
    else:
        lines.append("  every cell reached the target CI width")
    return "\n".join(lines)
