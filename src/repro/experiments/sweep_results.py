"""Typed containers for parallel experiment sweeps.

A sweep is a grid of independent *trials*; this module defines the
value objects the sweep engine (:mod:`repro.experiments.sweep`) passes
across process boundaries and persists to disk:

* :class:`TrialSpec` — one fully-specified cell of the parameter grid
  (protocol × N × fanout × scenario × replicate). Its :attr:`~TrialSpec.key`
  is the canonical derivation string for the trial's RNG universe and
  its cache identity, so results depend only on ``(root_seed, spec)``
  and never on worker count or execution order. Scenario-specific
  knobs live in a generic canonical ``params`` mapping: scenarios
  declare their parameters (a typed schema) when they register in
  :mod:`repro.experiments.scenario_matrix`, and a spec carries whatever
  its scenario consumes — no fixed per-scenario fields. Four
  *universal* legacy parameters (``kill_fraction``, ``churn_rate``,
  ``concurrent_messages``, ``pulls_per_round``) are always present
  with their historical defaults so keys, wire frames and cache
  entries for the original five scenarios stay byte-identical to the
  pre-``params`` format.
* :class:`TrialResult` — the measured outcome of one trial, mirroring
  :class:`~repro.metrics.dissemination.EffectivenessStats` plus
  scenario-specific extras (churn cycles, pull rounds, load hotspots).
* :class:`CellSummary` — replicate-aggregated statistics (mean and a
  normal-approximation 95% CI) for one grid cell.
* :class:`SweepResult` — everything together, with canonical JSON
  round-tripping: the same sweep serialises to byte-identical JSON no
  matter how many workers produced it.

A small per-trial JSON cache (:func:`load_cached_trial` /
:func:`store_trial`) lets interrupted sweeps resume without redoing
completed trials.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.castore import canonical_json, read_entry, write_entry
from repro.common.errors import ConfigurationError
from repro.metrics.aggregate import mean

__all__ = [
    "CellSummary",
    "SweepResult",
    "TrialResult",
    "TrialSpec",
    "UNIVERSAL_PARAM_DEFAULTS",
    "canonical_json",
    "config_fingerprint",
    "load_cached_trial",
    "store_trial",
    "trial_cache_path",
]

# Bump when the trial result format changes so stale caches are ignored.
CACHE_FORMAT = 1

# Two-sided 95% critical values: Student-t by degrees of freedom for
# the small replicate counts sweeps actually run, falling back to the
# normal z past df=30. With 2-3 replicates the t correction is the
# difference between an honest interval and wild overconfidence.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z95 = 1.959963984540054


# The four historical scenario knobs, always present on every spec
# with these defaults. They predate the generic ``params`` mapping;
# keeping them universal (rather than per-scenario) is what keeps
# keys, wire frames and cache files byte-identical across the API
# redesign. New scenario parameters never join this table — they ride
# in ``params`` and appear in keys/JSON only when declared.
UNIVERSAL_PARAM_DEFAULTS: Dict[str, Union[int, float]] = {
    "kill_fraction": 0.0,
    "churn_rate": 0.0,
    "concurrent_messages": 1,
    "pulls_per_round": 1,
}

_CORE_SPEC_FIELDS = (
    "scenario",
    "protocol",
    "num_nodes",
    "fanout",
    "replicate",
    "num_messages",
)

ParamValue = Union[int, float]
ParamItems = Tuple[Tuple[str, ParamValue], ...]


def _spec_from_dict(payload: Mapping[str, object]) -> "TrialSpec":
    """Module-level ``from_dict`` so pickled specs rebuild cleanly."""
    return TrialSpec.from_dict(payload)


class TrialSpec:
    """One point of the sweep grid, fully determined and hashable.

    Attributes:
        scenario: Scenario name registered in
            :mod:`repro.experiments.scenario_matrix`.
        protocol: Overlay kind (``randcast``, ``ringcast``, ...).
        num_nodes: Population size for this trial.
        fanout: The single fanout F this trial disseminates at.
        replicate: Seed-replicate index; replicates of a cell differ
            only in this field and are averaged by the aggregation.
        num_messages: Messages posted (and measured) per trial.
        params: Canonical (sorted) tuple of ``(name, value)`` scenario
            parameters. Always includes the four universal legacy
            parameters (with their defaults when unset); scenario
            parameters may be passed either via ``params`` or as extra
            keyword arguments (``TrialSpec(..., kill_fraction=0.05)``).
    """

    __slots__ = (
        "scenario",
        "protocol",
        "num_nodes",
        "fanout",
        "replicate",
        "num_messages",
        "params",
        "_param_map",
    )

    def __init__(
        self,
        scenario: str,
        protocol: str,
        num_nodes: int,
        fanout: int,
        replicate: int = 0,
        num_messages: int = 5,
        params: Union[Mapping[str, ParamValue], ParamItems] = (),
        **extra_params: ParamValue,
    ) -> None:
        merged: Dict[str, ParamValue] = dict(UNIVERSAL_PARAM_DEFAULTS)
        items = (
            params.items() if isinstance(params, Mapping) else params
        )
        for name, value in items:
            merged[name] = value
        merged.update(extra_params)
        for name, value in merged.items():
            if name in _CORE_SPEC_FIELDS or not str(name).isidentifier():
                raise ConfigurationError(
                    f"invalid scenario parameter name {name!r}"
                )
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ConfigurationError(
                    f"scenario parameter {name!r} must be a number, got "
                    f"{value!r}"
                )
        # Coerce so an int-valued 0 and a float 0.0 — equal as specs —
        # also share their key (RNG universe + cache identity):
        # kill/churn keep their historical float form; every other
        # parameter canonicalises integral floats to int (4.0 and 4
        # repr differently but compare equal, and the key embeds the
        # repr).
        merged["kill_fraction"] = float(merged["kill_fraction"])
        merged["churn_rate"] = float(merged["churn_rate"])
        for name, value in merged.items():
            if (
                name not in ("kill_fraction", "churn_rate")
                and isinstance(value, float)
                and value.is_integer()
            ):
                merged[name] = int(value)
        set_ = object.__setattr__
        set_(self, "scenario", scenario)
        set_(self, "protocol", protocol)
        set_(self, "num_nodes", num_nodes)
        set_(self, "fanout", fanout)
        set_(self, "replicate", replicate)
        set_(self, "num_messages", num_messages)
        set_(self, "params", tuple(sorted(merged.items())))
        set_(self, "_param_map", merged)
        if self.num_nodes < 3:
            raise ConfigurationError("num_nodes must be >= 3")
        if self.fanout < 1:
            raise ConfigurationError("fanout must be >= 1")
        if self.replicate < 0:
            raise ConfigurationError("replicate must be >= 0")
        if self.num_messages < 1:
            raise ConfigurationError("num_messages must be >= 1")
        if not 0.0 <= self.kill_fraction < 1.0:
            raise ConfigurationError("kill_fraction must be in [0, 1)")
        if not 0.0 <= self.churn_rate < 1.0:
            raise ConfigurationError("churn_rate must be in [0, 1)")
        if self.concurrent_messages < 1:
            raise ConfigurationError("concurrent_messages must be >= 1")
        if self.pulls_per_round < 1:
            raise ConfigurationError("pulls_per_round must be >= 1")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TrialSpec is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("TrialSpec is immutable")

    def _identity(self) -> Tuple:
        return (
            self.scenario,
            self.protocol,
            self.num_nodes,
            self.fanout,
            self.replicate,
            self.num_messages,
            self.params,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        extra = ", ".join(
            f"{name}={value!r}" for name, value in self.params
        )
        return (
            f"TrialSpec(scenario={self.scenario!r}, "
            f"protocol={self.protocol!r}, num_nodes={self.num_nodes}, "
            f"fanout={self.fanout}, replicate={self.replicate}, "
            f"num_messages={self.num_messages}, {extra})"
        )

    def __reduce__(self):
        return (_spec_from_dict, (self.to_dict(),))

    # -- parameter access ----------------------------------------------

    def param(
        self, name: str, default: Optional[ParamValue] = None
    ) -> Optional[ParamValue]:
        """The value of one scenario parameter (or ``default``)."""
        return self._param_map.get(name, default)

    @property
    def params_dict(self) -> Dict[str, ParamValue]:
        return dict(self.params)

    @property
    def extra_params(self) -> ParamItems:
        """The non-universal (scenario-declared) parameters, sorted."""
        return tuple(
            (name, value)
            for name, value in self.params
            if name not in UNIVERSAL_PARAM_DEFAULTS
        )

    @property
    def kill_fraction(self) -> float:
        return self._param_map["kill_fraction"]

    @property
    def churn_rate(self) -> float:
        return self._param_map["churn_rate"]

    @property
    def concurrent_messages(self) -> int:
        return self._param_map["concurrent_messages"]

    @property
    def pulls_per_round(self) -> int:
        return self._param_map["pulls_per_round"]

    @property
    def key(self) -> str:
        """Canonical derivation string: RNG universe + cache identity.

        The four universal parameters keep their historical slots so
        pre-redesign keys (and therefore RNG universes and cache
        entries) survive unchanged; scenario-declared parameters are
        appended as sorted ``/name=value`` segments.
        """
        extra = "".join(
            f"/{name}={value!r}" for name, value in self.extra_params
        )
        return (
            f"sweep/{self.scenario}/{self.protocol}"
            f"/n{self.num_nodes}/f{self.fanout}/m{self.num_messages}"
            f"/kill{self.kill_fraction!r}/churn{self.churn_rate!r}"
            f"/cm{self.concurrent_messages}/p{self.pulls_per_round}"
            f"{extra}/rep{self.replicate}"
        )

    @property
    def cell(self) -> Tuple:
        """The grouping key replicates of this spec share."""
        return (
            self.scenario,
            self.protocol,
            self.num_nodes,
            self.fanout,
            self.num_messages,
            self.kill_fraction,
            self.churn_rate,
            self.concurrent_messages,
            self.pulls_per_round,
            self.extra_params,
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "fanout": self.fanout,
            "replicate": self.replicate,
            "num_messages": self.num_messages,
        }
        payload.update(self._param_map)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TrialSpec":
        core = {
            name: payload[name]
            for name in _CORE_SPEC_FIELDS
            if name in payload
        }
        params = {
            name: value
            for name, value in payload.items()
            if name not in _CORE_SPEC_FIELDS
        }
        return cls(params=params, **core)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TrialResult:
    """Measured outcome of one trial.

    The effectiveness fields mirror
    :class:`~repro.metrics.dissemination.EffectivenessStats` so sweep
    cells can be bridged back into the paper's figure containers;
    ``extras`` carries scenario-specific scalars (e.g. ``churn_cycles``,
    ``pull_rounds``, ``max_node_load``).
    """

    spec: TrialSpec
    runs: int
    mean_miss_ratio: float
    complete_fraction: float
    mean_hops: float
    max_hops: int
    mean_msgs_virgin: float
    mean_msgs_redundant: float
    mean_msgs_to_dead: float
    mean_total_messages: float
    extras: Tuple[Tuple[str, float], ...] = ()

    @property
    def extras_dict(self) -> Dict[str, float]:
        return dict(self.extras)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "runs": self.runs,
            "mean_miss_ratio": self.mean_miss_ratio,
            "complete_fraction": self.complete_fraction,
            "mean_hops": self.mean_hops,
            "max_hops": self.max_hops,
            "mean_msgs_virgin": self.mean_msgs_virgin,
            "mean_msgs_redundant": self.mean_msgs_redundant,
            "mean_msgs_to_dead": self.mean_msgs_to_dead,
            "mean_total_messages": self.mean_total_messages,
            "extras": {name: value for name, value in self.extras},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TrialResult":
        extras = payload.get("extras", {})
        return cls(
            spec=TrialSpec.from_dict(payload["spec"]),  # type: ignore[arg-type]
            runs=int(payload["runs"]),  # type: ignore[arg-type]
            mean_miss_ratio=float(payload["mean_miss_ratio"]),  # type: ignore[arg-type]
            complete_fraction=float(payload["complete_fraction"]),  # type: ignore[arg-type]
            mean_hops=float(payload["mean_hops"]),  # type: ignore[arg-type]
            max_hops=int(payload["max_hops"]),  # type: ignore[arg-type]
            mean_msgs_virgin=float(payload["mean_msgs_virgin"]),  # type: ignore[arg-type]
            mean_msgs_redundant=float(payload["mean_msgs_redundant"]),  # type: ignore[arg-type]
            mean_msgs_to_dead=float(payload["mean_msgs_to_dead"]),  # type: ignore[arg-type]
            mean_total_messages=float(payload["mean_total_messages"]),  # type: ignore[arg-type]
            extras=tuple(sorted((k, float(v)) for k, v in extras.items())),  # type: ignore[union-attr]
        )


def _ci95(samples: Sequence[float]) -> float:
    """Half-width of a 95% CI on the mean (0.0 for n < 2).

    Uses the *sample* standard deviation (ddof=1) and the Student-t
    critical value for the actual replicate count.
    """
    n = len(samples)
    if n < 2:
        return 0.0
    mu = mean(samples)
    sample_var = sum((x - mu) ** 2 for x in samples) / (n - 1)
    critical = _T95.get(n - 1, _Z95)
    return critical * math.sqrt(sample_var / n)


@dataclass(frozen=True)
class CellSummary:
    """Replicate-aggregated statistics for one (scenario, protocol,
    N, fanout) cell of the grid."""

    scenario: str
    protocol: str
    num_nodes: int
    fanout: int
    replicates: int
    kill_fraction: float
    churn_rate: float
    mean_miss_ratio: float
    ci95_miss_ratio: float
    complete_fraction: float
    ci95_complete_fraction: float
    mean_hops: float
    max_hops: int
    mean_msgs_virgin: float
    mean_msgs_redundant: float
    mean_msgs_to_dead: float
    mean_total_messages: float
    ci95_total_messages: float
    extras: Tuple[Tuple[str, float], ...] = ()
    # Scenario-declared (non-universal) parameters of this cell,
    # e.g. (("num_parts", 4),). Empty for the classic scenarios, and
    # omitted from the JSON then — pre-redesign output is unchanged.
    params: Tuple[Tuple[str, Union[int, float]], ...] = ()

    @property
    def miss_percent(self) -> float:
        return 100.0 * self.mean_miss_ratio

    @property
    def complete_percent(self) -> float:
        return 100.0 * self.complete_fraction

    @property
    def extras_dict(self) -> Dict[str, float]:
        return dict(self.extras)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "fanout": self.fanout,
            "replicates": self.replicates,
            "kill_fraction": self.kill_fraction,
            "churn_rate": self.churn_rate,
            "mean_miss_ratio": self.mean_miss_ratio,
            "ci95_miss_ratio": self.ci95_miss_ratio,
            "complete_fraction": self.complete_fraction,
            "ci95_complete_fraction": self.ci95_complete_fraction,
            "mean_hops": self.mean_hops,
            "max_hops": self.max_hops,
            "mean_msgs_virgin": self.mean_msgs_virgin,
            "mean_msgs_redundant": self.mean_msgs_redundant,
            "mean_msgs_to_dead": self.mean_msgs_to_dead,
            "mean_total_messages": self.mean_total_messages,
            "ci95_total_messages": self.ci95_total_messages,
            "extras": {name: value for name, value in self.extras},
        }
        if self.params:
            payload["params"] = {
                name: value for name, value in self.params
            }
        return payload


def summarize_cells(
    trials: Sequence[TrialResult],
) -> Tuple[CellSummary, ...]:
    """Group trials by cell and aggregate replicates (mean + 95% CI).

    Trials are grouped on every spec field except ``replicate``;
    averages run in replicate order so the aggregation is bit-stable.
    Extras present in every replicate of a cell are averaged too.
    """
    groups: Dict[Tuple, List[TrialResult]] = {}
    for trial in trials:
        groups.setdefault(trial.spec.cell, []).append(trial)
    cells: List[CellSummary] = []
    for cell_key in sorted(groups):
        members = sorted(groups[cell_key], key=lambda t: t.spec.replicate)
        spec = members[0].spec
        miss = [t.mean_miss_ratio for t in members]
        complete = [t.complete_fraction for t in members]
        totals = [t.mean_total_messages for t in members]
        shared_extras = set(members[0].extras_dict)
        for trial in members[1:]:
            shared_extras &= set(trial.extras_dict)
        extras = tuple(
            (name, mean([t.extras_dict[name] for t in members]))
            for name in sorted(shared_extras)
        )
        cells.append(
            CellSummary(
                scenario=spec.scenario,
                protocol=spec.protocol,
                num_nodes=spec.num_nodes,
                fanout=spec.fanout,
                replicates=len(members),
                kill_fraction=spec.kill_fraction,
                churn_rate=spec.churn_rate,
                mean_miss_ratio=mean(miss),
                ci95_miss_ratio=_ci95(miss),
                complete_fraction=mean(complete),
                ci95_complete_fraction=_ci95(complete),
                mean_hops=mean([t.mean_hops for t in members]),
                max_hops=max(t.max_hops for t in members),
                mean_msgs_virgin=mean(
                    [t.mean_msgs_virgin for t in members]
                ),
                mean_msgs_redundant=mean(
                    [t.mean_msgs_redundant for t in members]
                ),
                mean_msgs_to_dead=mean(
                    [t.mean_msgs_to_dead for t in members]
                ),
                mean_total_messages=mean(totals),
                ci95_total_messages=_ci95(totals),
                extras=extras,
                params=spec.extra_params,
            )
        )
    return tuple(cells)


@dataclass(frozen=True)
class SweepResult:
    """A complete sweep: every trial plus per-cell aggregates."""

    root_seed: int
    trials: Tuple[TrialResult, ...]
    cells: Tuple[CellSummary, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.cells:
            object.__setattr__(
                self, "cells", summarize_cells(self.trials)
            )

    def cell(
        self,
        scenario: str,
        protocol: str,
        num_nodes: int,
        fanout: int,
        kill_fraction: Optional[float] = None,
        churn_rate: Optional[float] = None,
    ) -> CellSummary:
        """Look up one aggregated cell.

        Raises ``KeyError`` when absent — and also when the sweep ran
        several kill fractions or churn rates and the optional filters
        don't pin the lookup down to exactly one cell (silently
        returning an arbitrary fraction would misattribute results).
        """
        matches = [
            candidate
            for candidate in self.cells
            if candidate.scenario == scenario
            and candidate.protocol == protocol
            and candidate.num_nodes == num_nodes
            and candidate.fanout == fanout
            and (
                kill_fraction is None
                or candidate.kill_fraction == kill_fraction
            )
            and (
                churn_rate is None or candidate.churn_rate == churn_rate
            )
        ]
        if not matches:
            raise KeyError(
                f"no cell ({scenario}, {protocol}, N={num_nodes}, "
                f"F={fanout})"
            )
        if len(matches) > 1:
            variants = sorted(
                (c.kill_fraction, c.churn_rate) for c in matches
            )
            raise KeyError(
                f"ambiguous cell ({scenario}, {protocol}, "
                f"N={num_nodes}, F={fanout}): matches "
                f"(kill_fraction, churn_rate) variants {variants}; pass "
                "kill_fraction=/churn_rate= to disambiguate"
            )
        return matches[0]

    def scenarios(self) -> Tuple[str, ...]:
        return tuple(sorted({c.scenario for c in self.cells}))

    def protocols(self) -> Tuple[str, ...]:
        return tuple(sorted({c.protocol for c in self.cells}))

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": CACHE_FORMAT,
            "root_seed": self.root_seed,
            "trials": [trial.to_dict() for trial in self.trials],
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical sweep outcomes."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepResult":
        """The result :meth:`to_dict` describes; its ``cells`` are
        recomputed from the trials, never read."""
        fmt = payload.get("format")
        if fmt != CACHE_FORMAT:
            raise ValueError(
                f"sweep result format {fmt!r} is not supported (this "
                f"build reads format {CACHE_FORMAT}); re-run the sweep"
            )
        trials = tuple(
            TrialResult.from_dict(entry) for entry in payload["trials"]
        )
        return cls(root_seed=int(payload["root_seed"]), trials=trials)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical JSON to ``path`` (parents created)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepResult":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# per-trial resume cache
# ----------------------------------------------------------------------


def config_fingerprint(config) -> str:
    """A stable digest of an experiment config (a frozen dataclass).

    A trial's outcome depends on the full effective config, not just
    the spec fields (warm-up cycles, view sizes, churn caps...). The
    cache identity must include it, or re-running a sweep after a
    ``--warmup 10`` smoke run would silently serve the smoke numbers.
    """
    from dataclasses import asdict

    return hashlib.sha256(
        canonical_json(asdict(config)).encode("utf-8")
    ).hexdigest()[:16]


def trial_cache_path(
    cache_dir: Union[str, Path],
    spec: TrialSpec,
    root_seed: int,
    config_digest: str = "",
) -> Path:
    """Stable cache location for one ``(config, root_seed, spec)`` trial."""
    digest = hashlib.sha256(
        f"v{CACHE_FORMAT}:{root_seed}:{config_digest}:{spec.key}".encode(
            "utf-8"
        )
    ).hexdigest()[:24]
    return Path(cache_dir) / f"trial_{digest}.json"


def _result_is_sane(result: TrialResult) -> bool:
    """Every measured value is a finite number.

    ``json.loads`` happily parses ``NaN``/``Infinity``, and a single
    NaN trial silently poisons every mean and CI it aggregates into —
    so a cache entry carrying one is corruption, not data.
    """
    values = [
        result.mean_miss_ratio,
        result.complete_fraction,
        result.mean_hops,
        float(result.max_hops),
        result.mean_msgs_virgin,
        result.mean_msgs_redundant,
        result.mean_msgs_to_dead,
        result.mean_total_messages,
    ]
    values.extend(value for _name, value in result.extras)
    return all(math.isfinite(value) for value in values)


def load_cached_trial(
    cache_dir: Union[str, Path],
    spec: TrialSpec,
    root_seed: int,
    config_digest: str = "",
) -> Optional[TrialResult]:
    """Return the cached result for ``spec``, or ``None``.

    Corrupt or mismatched cache files (truncated writes, wrong-shape
    JSON, non-finite values, hash collisions, format drift) are
    treated as misses, never as errors — the trial is simply re-run.
    """
    path = trial_cache_path(cache_dir, spec, root_seed, config_digest)
    payload = read_entry(path, sealed=False)
    if payload is None:
        return None
    if payload.get("format") != CACHE_FORMAT:
        return None
    if payload.get("root_seed") != root_seed:
        return None
    if payload.get("config") != config_digest:
        return None
    if not isinstance(payload.get("result"), dict):
        return None
    try:
        result = TrialResult.from_dict(payload["result"])
    except (
        AttributeError,
        KeyError,
        TypeError,
        ValueError,
        ConfigurationError,
    ):
        return None
    if result.spec != spec:
        return None
    if not _result_is_sane(result):
        return None
    return result


def store_trial(
    cache_dir: Union[str, Path],
    result: TrialResult,
    root_seed: int,
    config_digest: str = "",
) -> Path:
    """Persist one finished trial for future resume."""
    payload = {
        "format": CACHE_FORMAT,
        "root_seed": root_seed,
        "config": config_digest,
        "result": result.to_dict(),
    }
    return write_entry(
        trial_cache_path(cache_dir, result.spec, root_seed, config_digest),
        payload,
    )


def effectiveness_stats_of(cell: CellSummary):
    """Bridge one cell back into the figure layer's stats container."""
    from repro.metrics.dissemination import EffectivenessStats

    return EffectivenessStats(
        runs=cell.replicates,
        mean_miss_ratio=cell.mean_miss_ratio,
        complete_fraction=cell.complete_fraction,
        mean_hops=cell.mean_hops,
        max_hops=cell.max_hops,
        mean_msgs_virgin=cell.mean_msgs_virgin,
        mean_msgs_redundant=cell.mean_msgs_redundant,
        mean_msgs_to_dead=cell.mean_msgs_to_dead,
        mean_total_messages=cell.mean_total_messages,
    )


def effectiveness_figure(
    result: SweepResult,
    scenario: str,
    num_nodes: int,
    label: Optional[str] = None,
    kill_fraction: Optional[float] = None,
    churn_rate: Optional[float] = None,
):
    """Build an :class:`~repro.experiments.figures.EffectivenessFigure`
    from one scenario slice of a sweep (the bench/figure bridge).

    A figure plots one curve per (protocol, fanout), so the slice must
    be unambiguous: when the sweep ran several kill fractions or churn
    rates, pass ``kill_fraction=``/``churn_rate=`` to pick one —
    otherwise the overlap raises instead of silently overwriting one
    fraction's data with another's.
    """
    from repro.experiments.figures import EffectivenessFigure

    cells = [
        c
        for c in result.cells
        if c.scenario == scenario
        and c.num_nodes == num_nodes
        and (kill_fraction is None or c.kill_fraction == kill_fraction)
        and (churn_rate is None or c.churn_rate == churn_rate)
    ]
    if not cells:
        raise KeyError(
            f"sweep has no cells for scenario={scenario!r} N={num_nodes}"
        )
    seen: set = set()
    for cell in cells:
        point = (cell.protocol, cell.fanout)
        if point in seen:
            raise KeyError(
                f"scenario {scenario!r} slice is ambiguous at "
                f"{point}: multiple kill fractions/churn rates; pass "
                "kill_fraction=/churn_rate= to select one"
            )
        seen.add(point)
    fanouts = tuple(sorted({c.fanout for c in cells}))
    protocols = sorted({c.protocol for c in cells})
    stats = {
        protocol: {
            cell.fanout: effectiveness_stats_of(cell)
            for cell in cells
            if cell.protocol == protocol
        }
        for protocol in protocols
    }
    return EffectivenessFigure(
        label=label or f"sweep:{scenario}",
        fanouts=fanouts,
        stats=stats,
    )
