"""The evaluation harness (paper §7).

Every experiment follows the paper's pipeline::

    build population  →  gossip warm-up  →  freeze overlay
         →  (inject failures?)  →  disseminate  →  measure

:mod:`repro.experiments.config` defines scale presets (``small``,
``medium``, ``paper``) selectable via the ``REPRO_SCALE`` environment
variable; :mod:`repro.experiments.builder` constructs protocol stacks;
:class:`~repro.experiments.scenarios.ScenarioRuns` runs the three
evaluation scenarios (static failure-free, catastrophic failure,
continuous churn), freezing one overlay per (protocol, network) for the
first two;
:mod:`repro.experiments.figures` derives each evaluation figure from
those runs as structured data, and :func:`regenerate_all` all of them
as tables; :mod:`repro.experiments.report` renders paper-style tables;
and :mod:`repro.experiments.sweep` expands declarative
(scenario × protocol × N × fanout × seed) grids into independent
trials executed through a pluggable backend — serial, local process
pool, or a TCP work queue spanning hosts
(:mod:`repro.experiments.sweep_backends`) — with deterministic
aggregation and resume-from-cache
(:mod:`repro.experiments.sweep_results`,
:mod:`repro.experiments.scenario_matrix`).
"""

from repro.experiments.config import (
    ExperimentConfig,
    OverlaySpec,
    scale_config,
)
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    make_node_factory,
    warm_up,
)
from repro.experiments.convergence import (
    ConvergenceCurve,
    RingConvergenceProbe,
    measure_ring_convergence,
)
from repro.experiments.figures import regenerate_all
from repro.experiments.scenarios import (
    ChurnOutcome,
    FanoutSweep,
    ScenarioRuns,
)
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import (
    ScenarioSelection,
    SweepSpec,
    flat_spec,
    scenario,
)

# Built-in plugin scenarios: registered purely through the public
# register_scenario + schema API (the import is the registration).
import repro.experiments.scheduling_optimal  # noqa: F401  isort: skip
from repro.experiments.sweep_backends import (
    InlineBackend,
    ProcessPoolBackend,
    SocketWorkerBackend,
    SweepBackend,
    resolve_backend,
)
from repro.experiments.sweep_results import (
    CellSummary,
    SweepResult,
    TrialResult,
    TrialSpec,
)

__all__ = [
    "CellSummary",
    "ChurnOutcome",
    "ConvergenceCurve",
    "ExperimentConfig",
    "FanoutSweep",
    "InlineBackend",
    "OverlaySpec",
    "ProcessPoolBackend",
    "RingConvergenceProbe",
    "ScenarioRuns",
    "ScenarioSelection",
    "SocketWorkerBackend",
    "SweepBackend",
    "SweepResult",
    "SweepSpec",
    "TrialResult",
    "TrialSpec",
    "build_population",
    "flat_spec",
    "freeze_overlay",
    "make_node_factory",
    "measure_ring_convergence",
    "regenerate_all",
    "resolve_backend",
    "run_sweep",
    "scale_config",
    "scenario",
    "warm_up",
]
