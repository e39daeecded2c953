"""Parallel experiment-sweep orchestration.

The paper's evaluation is a grid of (protocol, N, fanout, scenario,
seed) trials; the figure pipeline runs them serially. This module
expands a declarative
:class:`~repro.experiments.sweep_spec.SweepSpec` into independent
:class:`~repro.experiments.sweep_results.TrialSpec` cells and executes
them through a pluggable
:class:`~repro.experiments.sweep_backends.SweepBackend` — serially
in-process (``inline``), across a local process pool (``process``), or
over a TCP work queue spanning several hosts (``socket``; workers run
``repro sweep-worker --connect host:port``).

Determinism is the design constraint: each trial derives its entire RNG
universe from ``(root_seed, spec.key)`` via
:meth:`~repro.common.rng.RngRegistry.spawn`, results are collected in
grid-expansion order regardless of completion order, and aggregation is
bit-stable — so a sweep produces byte-identical JSON no matter which
backend ran it, at any worker count
(``tests/test_golden_determinism.py`` and
``tests/test_sweep_backends.py`` pin this).

Completed trials can be persisted to a cache directory; re-running the
same sweep (or a superset grid) skips them, which turns an interrupted
overnight sweep into a cheap resume. The per-trial cache is also the
unit of distribution: socket workers stream finished trials back into
it one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import (
    resolve_scenario,
    trial_config,
)
from repro.experiments.scenarios import DISSEMINATION_CORES
from repro.experiments.snapshot_store import (
    OVERLAY_REUSE_MODES,
    SnapshotProvider,
)
from repro.experiments.sweep_backends import (
    SweepBackend,
    resolve_backend,
)
from repro.experiments.sweep_results import (
    SweepResult,
    TrialResult,
    TrialSpec,
    config_fingerprint,
    load_cached_trial,
    store_trial,
)
from repro.experiments.sweep_spec import SweepSpec

__all__ = ["TrialListGrid", "run_sweep"]

# progress(trial_key, seconds, cached) — the CLI narrates long sweeps.
SweepProgress = Callable[[str, float, bool], None]


@dataclass(frozen=True)
class TrialListGrid:
    """An explicit list of trials standing in for a declarative grid.

    :func:`run_sweep` only ever calls ``grid.expand()``, so any object
    returning a trial tuple can drive the full backend/cache machinery.
    The adaptive-replication engine uses this to execute exactly the
    extra replicates a round allocated — each trial still derives its
    RNG universe from ``(root_seed, spec.key)``, so results are
    byte-identical to the same trials inside a fixed-replicate grid.

    >>> trial = TrialSpec("static", "ringcast", num_nodes=40, fanout=3,
    ...                   replicate=0)
    >>> TrialListGrid((trial,)).expand() == (trial,)
    True
    >>> TrialListGrid((trial, trial))
    Traceback (most recent call last):
    ...
    repro.common.errors.ConfigurationError: duplicate trial in TrialListGrid
    """

    trials: Tuple[TrialSpec, ...]

    def __post_init__(self) -> None:
        if not self.trials:
            raise ConfigurationError("TrialListGrid needs at least one trial")
        if len(set(self.trials)) != len(self.trials):
            raise ConfigurationError("duplicate trial in TrialListGrid")

    def expand(self) -> Tuple[TrialSpec, ...]:
        return self.trials


def run_sweep(
    grid: SweepSpec,
    base_config: Optional[ExperimentConfig] = None,
    root_seed: int = 42,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[SweepProgress] = None,
    backend: Union[str, SweepBackend, None] = None,
    listen: Optional[Tuple[str, int]] = None,
    snapshot_cache: Optional[Union[str, Path]] = None,
    overlay_reuse: str = "trial",
    core: str = "auto",
    snapshot_cache_max_bytes: Optional[int] = None,
    trial_deadline: Optional[float] = None,
    auth_token: Optional[str] = None,
) -> SweepResult:
    """Expand ``grid``, execute every trial, aggregate into a result.

    Args:
        grid: The declarative parameter grid — a
            :class:`~repro.experiments.sweep_spec.SweepSpec` — or a
            :class:`TrialListGrid` of explicit trials.
        base_config: Template for per-trial configs (warm-up cycles,
            view sizes, churn caps...); grid axes override its
            population/fanout/message fields. Defaults to
            :class:`ExperimentConfig`'s paper-mirroring defaults.
        root_seed: Root of every trial's RNG universe.
        workers: Execution width — pool processes for the ``process``
            backend, spawned local worker processes for ``socket``
            (``0`` there means external workers only). Any value
            produces identical results — parallelism is pure speed.
        cache_dir: When given, finished trials are persisted there and
            already-cached trials are skipped on re-runs (resume).
        progress: Optional ``(trial_key, seconds, cached)`` callback.
        backend: ``"inline"``, ``"process"``, ``"socket"``, a
            :class:`~repro.experiments.sweep_backends.SweepBackend`
            instance, or ``None`` for the historical default (inline
            at ``workers=1``, process pool otherwise).
        listen: ``(host, port)`` the socket backend binds; ignored by
            the in-process backends.
        snapshot_cache: Directory of the content-addressed overlay
            snapshot store (see
            :mod:`repro.experiments.snapshot_store`). Built overlays
            are persisted and re-runs skip their warm-up entirely.
            ``None`` disables the on-disk store.
        overlay_reuse: ``"trial"`` (default) keeps the legacy
            per-trial overlay universes — every output byte identical
            with the store on or off. ``"grid"`` derives overlay
            construction from the fanout-independent overlay key so
            dissemination-only siblings (fanouts, kill fractions,
            message counts) share one overlay per replicate — the
            paper's own freeze-once-sweep-fanouts methodology, still
            fully deterministic and backend-independent, but a
            different experiment design than ``"trial"``.
        core: Dissemination core selection — ``"auto"`` (default)
            runs the vectorized array core only at populations of
            :data:`~repro.arraysim.ARRAY_CORE_MIN_NODES` and above,
            ``"object"`` forces the reference executor everywhere
            (byte-identical to historical sweeps at any size), and
            ``"array"`` forces the array core (rejecting policies it
            cannot express). See ``docs/performance.md``.
        snapshot_cache_max_bytes: Size cap for the on-disk snapshot
            store; least-recently-used entries are evicted after each
            write to keep the directory under the cap. ``None`` means
            unbounded.
        trial_deadline: Socket backend only — seconds a dispatched
            trial may sit unanswered on a live connection before the
            worker is dropped and the trial re-dispatched. ``None``
            keeps the backend default.
        auth_token: Socket backend only — shared secret authenticating
            workers and every post-hello wire frame (HMAC-SHA256).
            Workers must present the same token or they are cleanly
            rejected at hello time.
    """
    if overlay_reuse not in OVERLAY_REUSE_MODES:
        raise ConfigurationError(
            f"unknown overlay_reuse {overlay_reuse!r}; expected one of "
            f"{OVERLAY_REUSE_MODES}"
        )
    if core not in DISSEMINATION_CORES:
        raise ConfigurationError(
            f"unknown dissemination core {core!r}; expected one of "
            f"{DISSEMINATION_CORES}"
        )
    provider = (
        SnapshotProvider(
            store_dir=snapshot_cache,
            mode=overlay_reuse,
            max_store_bytes=snapshot_cache_max_bytes,
        )
        if snapshot_cache is not None or overlay_reuse != "trial"
        else None
    )
    backend_obj = resolve_backend(
        backend, workers=workers, listen=listen,
        trial_deadline=trial_deadline, auth_token=auth_token,
    )
    config = base_config if base_config is not None else ExperimentConfig()
    specs = grid.expand()

    # Cache identity covers the *effective* per-trial config, not just
    # the spec: a smoke run with --warmup 10 must never be served back
    # as a full-warm-up sweep. Non-default overlay-reuse modes are part
    # of that identity too — grid-mode results come from different
    # overlays, and resuming a trial-mode cache into a grid-mode sweep
    # (or vice versa) would silently mix the two designs in one JSON.
    # The default mode keeps the bare fingerprint so pre-existing
    # caches stay valid. The same goes for the dissemination core: a
    # trial that runs (or could run) on the array core produces
    # different bytes than the historical object path, so its digest
    # is tagged — while object-core trials (the default below the
    # auto threshold) keep the bare fingerprint and stay resumable
    # from pre-core caches.
    mode_tag = "" if overlay_reuse == "trial" else f"overlay={overlay_reuse}:"

    def _core_tag(spec: TrialSpec) -> str:
        if core == "array":
            return "core=array:"
        if core == "auto":
            from repro.arraysim import ARRAY_CORE_MIN_NODES

            if spec.num_nodes >= ARRAY_CORE_MIN_NODES:
                return "core=array:"
        return ""

    digests = (
        {
            spec: mode_tag
            + _core_tag(spec)
            + config_fingerprint(trial_config(spec, config, root_seed))
            for spec in specs
        }
        if cache_dir is not None
        else {}
    )

    results: Dict[int, TrialResult] = {}
    pending: List[Tuple[int, TrialSpec]] = []
    for index, spec in enumerate(specs):
        cached = (
            load_cached_trial(cache_dir, spec, root_seed, digests[spec])
            if cache_dir is not None
            else None
        )
        if cached is not None:
            results[index] = cached
            if progress is not None:
                progress(spec.key, 0.0, True)
        else:
            pending.append((index, spec))

    def finish(
        index: int, spec: TrialSpec, result: TrialResult, seconds: float
    ) -> None:
        # Persist immediately: an interrupted sweep must keep every
        # trial finished so far, or --cache resume would be a lie.
        results[index] = result
        if cache_dir is not None:
            store_trial(cache_dir, result, root_seed, digests[spec])
        if progress is not None:
            progress(spec.key, seconds, False)

    executors = {
        scenario: resolve_scenario(scenario)
        for scenario in {spec.scenario for spec in specs}
    }
    if pending:
        backend_obj.run_trials(
            tuple(pending),
            config,
            root_seed,
            executors,
            finish,
            provider=provider,
            core=core,
        )

    ordered = tuple(results[index] for index in range(len(specs)))
    return SweepResult(root_seed=root_seed, trials=ordered)
