"""Declarative, serializable sweep specifications.

A :class:`SweepSpec` is the portable description of one experiment
sweep: which scenarios (each with its own typed parameter values or
axes), which protocols, population sizes, fanouts, replicate count —
plus, optionally, the scale preset, root seed and experiment-config
overrides that make a spec file fully self-contained. It round-trips
through canonical JSON losslessly (``repro sweep --spec spec.json``
loads one; ``repro sweep --dump-spec`` writes one), and its
:meth:`~SweepSpec.fingerprint` is stable across the round-trip, so a
spec file *is* the sweep's identity.

Scenario parameters are validated against the schemas scenarios
declare when they register
(:mod:`repro.experiments.scenario_matrix`): unknown parameters are
rejected with the accepted list, values are type/bound-checked, and
only ``sweepable`` parameters of a consuming scenario may carry
several values (an axis). A scenario added through the public
:func:`~repro.experiments.scenario_matrix.register_scenario` + schema
path is therefore immediately expressible in spec files and the CLI
with no further plumbing.

Two constructors cover the common cases:

* :func:`scenario` builds one selection —
  ``scenario("churn", churn_rate=[0.01, 0.05])`` sweeps the churn rate
  as an axis of the churn scenario only.
* :func:`flat_spec` is the one home of the historical flat-grid
  semantics (``kill_fractions`` applied to every scenario that
  consumes ``kill_fraction``, ``concurrent_messages``/
  ``pulls_per_round`` applied to every scenario). Plain-name sweeps
  (``api.run_sweep(scenarios=("static",))``, bare ``repro sweep``)
  expand through it, so they keep their exact trial expansion — and
  therefore their RNG universes, cache keys and output bytes.

Expansion order: scenario → parameter combination → protocol →
population → fanout → replicate, with parameter axes nested in
schema-declaration order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.experiments.scenario_matrix import (
    scenario_schema,
    validate_scenario_params,
)
from repro.experiments.sweep_results import (
    UNIVERSAL_PARAM_DEFAULTS,
    TrialSpec,
    canonical_json,
)

__all__ = [
    "SPEC_FORMAT",
    "ScenarioSelection",
    "SweepSpec",
    "flat_spec",
    "scenario",
]

# Bump when the spec-file schema changes incompatibly.
SPEC_FORMAT = 1

# Universal parameters that may ride along as *scalars* on scenarios
# that do not declare them: the historical flat grid attached these
# two to every scenario, and trial keys/cache entries depend on it.
# kill_fraction / churn_rate were never attached to non-consumers, so
# a spec setting them on one is a misdescription and is rejected.
_SCALAR_UNIVERSALS = frozenset(
    ("concurrent_messages", "pulls_per_round")
)

ParamValue = Union[int, float]
ParamAxes = Tuple[Tuple[str, Tuple[ParamValue, ...]], ...]

_VALID_PROTOCOLS = OverlaySpec._KINDS


def _as_values(name: str, value: object) -> Tuple[ParamValue, ...]:
    """Normalise a scalar-or-sequence parameter value to a tuple."""
    if isinstance(value, (str, bytes)):
        raise ConfigurationError(
            f"parameter {name!r} expects numbers, got {value!r}"
        )
    if isinstance(value, Iterable):
        values = tuple(value)
    else:
        values = (value,)
    if not values:
        raise ConfigurationError(
            f"parameter {name!r} has no values"
        )
    return values  # element validation happens against the schema


@dataclass(frozen=True)
class ScenarioSelection:
    """One scenario plus its parameter values (scalars or axes).

    ``params`` maps parameter name to a tuple of one or more values;
    more than one value turns the parameter into a grid axis of this
    scenario only. Values are validated against the scenario's
    registered schema; ``concurrent_messages`` / ``pulls_per_round``
    are additionally accepted as scalars on any scenario (the
    historical flat grid attached them everywhere, and trial keys
    depend on it), but only a scenario that *declares* a parameter may
    sweep it, and ``kill_fraction`` / ``churn_rate`` are rejected on
    scenarios that don't consume them.
    """

    name: str
    params: ParamAxes = ()

    def __post_init__(self) -> None:
        schema = scenario_schema(self.name)  # raises for unknown names
        raw = (
            self.params.items()
            if isinstance(self.params, Mapping)
            else self.params
        )
        normalised: Dict[str, Tuple[ParamValue, ...]] = {}
        for param_name, value in raw:
            values = _as_values(param_name, value)
            coerced = tuple(
                validate_scenario_params(
                    self.name, {param_name: one}
                )[param_name]
                for one in values
            )
            if len(set(coerced)) != len(coerced):
                # Duplicates would expand into RNG-identical trials
                # posing as independent replicates (fake CI = 0).
                raise ConfigurationError(
                    f"duplicate {param_name} value in scenario "
                    f"{self.name!r}: {values}"
                )
            declared = schema.param(param_name)
            if declared is None and param_name not in _SCALAR_UNIVERSALS:
                # Accepting e.g. kill_fraction on 'static' would label
                # failure-free rows with a kill% nobody applied.
                raise ConfigurationError(
                    f"scenario {self.name!r} does not consume "
                    f"{param_name!r}; setting it here would "
                    "misdescribe the results"
                )
            if len(coerced) > 1:
                if declared is None:
                    raise ConfigurationError(
                        f"scenario {self.name!r} does not consume "
                        f"{param_name!r}; it cannot be an axis here"
                    )
                if not declared.sweepable:
                    raise ConfigurationError(
                        f"parameter {param_name!r} is not sweepable; "
                        f"give it a single value"
                    )
            normalised[param_name] = coerced
        object.__setattr__(
            self, "params", tuple(sorted(normalised.items()))
        )

    @property
    def params_dict(self) -> Dict[str, Tuple[ParamValue, ...]]:
        return dict(self.params)

    def axes(self) -> List[Tuple[str, Tuple[ParamValue, ...]]]:
        """The parameter axes in expansion order.

        Declared (schema) parameters come first, in schema order, with
        the schema default filling in when unset; explicitly-given
        universal parameters follow in their canonical order. The
        remaining universal parameters are left to
        :class:`~repro.experiments.sweep_results.TrialSpec` defaults.
        """
        given = self.params_dict
        ordered: List[Tuple[str, Tuple[ParamValue, ...]]] = []
        schema = scenario_schema(self.name)
        for param in schema.params:
            ordered.append(
                (param.name, given.pop(param.name, (param.default,)))
            )
        for name in UNIVERSAL_PARAM_DEFAULTS:
            if name in given:
                ordered.append((name, given.pop(name)))
        assert not given, f"unvalidated params left over: {given}"
        return ordered

    def combinations(self) -> List[Dict[str, ParamValue]]:
        """Every parameter combination, axes nested in schema order."""
        combos: List[Dict[str, ParamValue]] = [{}]
        for name, values in self.axes():
            combos = [
                {**combo, name: value}
                for combo in combos
                for value in values
            ]
        return combos

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "params": {
                name: list(values) for name, values in self.params
            },
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any]
    ) -> "ScenarioSelection":
        if not isinstance(payload, Mapping) or "name" not in payload:
            raise ConfigurationError(
                f"scenario entry must be an object with a 'name', got "
                f"{payload!r}"
            )
        unknown = set(payload) - {"name", "params"}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario entry keys: {sorted(unknown)}"
            )
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                f"scenario 'params' must be an object, got {params!r}"
            )
        return cls(
            name=payload["name"],
            params=tuple(
                (name, _as_values(name, value))
                for name, value in params.items()
            ),
        )


def scenario(name: str, **params: object) -> ScenarioSelection:
    """Build one scenario selection for a :class:`SweepSpec`.

    Each keyword is a scenario parameter; a list/tuple value becomes a
    grid axis of this scenario only::

        scenario("churn", churn_rate=[0.01, 0.05])
        scenario("scheduling_optimal", num_parts=[1, 4, 16])
    """
    return ScenarioSelection(
        name=name,
        params=tuple(
            (key, _as_values(key, value))
            for key, value in params.items()
        ),
    )


def _unique(label: str, axis: Sequence) -> None:
    if len(set(axis)) != len(axis):
        raise ConfigurationError(
            f"duplicate {label} value in spec: {tuple(axis)}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A complete, serializable sweep description.

    Attributes:
        scenarios: Scenario selections (plain names are accepted and
            mean "schema defaults only").
        protocols / num_nodes / fanouts: Core grid axes, crossed with
            every scenario.
        replicates: Independent seed replicates per cell.
        num_messages: Messages posted per trial.
        seed: Optional root seed baked into the spec (callers may
            override).
        scale: Optional scale-preset name baked into the spec.
        config_overrides: ``ExperimentConfig`` field overrides (e.g.
            ``warmup_cycles``) applied to the per-trial base config.
    """

    scenarios: Tuple[Union[ScenarioSelection, str], ...] = ("static",)
    protocols: Tuple[str, ...] = ("randcast", "ringcast")
    num_nodes: Tuple[int, ...] = (150,)
    fanouts: Tuple[int, ...] = (1, 2, 3, 4)
    replicates: int = 1
    num_messages: int = 5
    seed: Optional[int] = None
    scale: Optional[str] = None
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for label, axis, kind in (
            ("scenarios", self.scenarios, (ScenarioSelection, str)),
            ("protocols", self.protocols, str),
            ("num_nodes", self.num_nodes, int),
            ("fanouts", self.fanouts, int),
        ):
            if isinstance(axis, (str, bytes)) or not isinstance(
                axis, Iterable
            ):
                raise ConfigurationError(
                    f"spec axis {label!r} must be a list, got {axis!r}"
                )
            for value in tuple(axis):
                if isinstance(value, bool) or not isinstance(
                    value, kind
                ):
                    raise ConfigurationError(
                        f"spec axis {label!r} has a value of the wrong "
                        f"type: {value!r}"
                    )
        for label, value in (
            ("replicates", self.replicates),
            ("num_messages", self.num_messages),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"spec field {label!r} must be an integer, got "
                    f"{value!r}"
                )
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise ConfigurationError(
                f"spec 'seed' must be an integer, got {self.seed!r}"
            )
        if self.scale is not None and not isinstance(self.scale, str):
            raise ConfigurationError(
                f"spec 'scale' must be a string, got {self.scale!r}"
            )
        selections = tuple(
            entry
            if isinstance(entry, ScenarioSelection)
            else ScenarioSelection(name=entry)
            for entry in self.scenarios
        )
        object.__setattr__(self, "scenarios", selections)
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "num_nodes", tuple(self.num_nodes))
        object.__setattr__(self, "fanouts", tuple(self.fanouts))
        overrides = (
            tuple(sorted(self.config_overrides.items()))
            if isinstance(self.config_overrides, Mapping)
            else tuple(sorted(tuple(self.config_overrides)))
        )
        object.__setattr__(self, "config_overrides", overrides)
        for label, axis in (
            ("scenarios", self.scenarios),
            ("protocols", self.protocols),
            ("num_nodes", self.num_nodes),
            ("fanouts", self.fanouts),
        ):
            if not axis:
                raise ConfigurationError(
                    f"spec axis {label!r} needs at least one value"
                )
        _unique("scenario", tuple(s.name for s in self.scenarios))
        _unique("protocol", self.protocols)
        _unique("num_nodes", self.num_nodes)
        _unique("fanout", self.fanouts)
        for protocol in self.protocols:
            if protocol not in _VALID_PROTOCOLS:
                raise ConfigurationError(
                    f"unknown protocol {protocol!r}; expected one of "
                    f"{_VALID_PROTOCOLS}"
                )
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if self.num_messages < 1:
            raise ConfigurationError("num_messages must be >= 1")
        ExperimentConfig.check_override_names(
            name for name, _value in self.config_overrides
        )

    # -- expansion ------------------------------------------------------

    def expand(self) -> Tuple[TrialSpec, ...]:
        """Every trial of the spec, in canonical (deterministic) order."""
        specs: List[TrialSpec] = []
        for selection in self.scenarios:
            for combo in selection.combinations():
                for protocol in self.protocols:
                    for nodes in self.num_nodes:
                        for fanout in self.fanouts:
                            for replicate in range(self.replicates):
                                specs.append(
                                    TrialSpec(
                                        scenario=selection.name,
                                        protocol=protocol,
                                        num_nodes=nodes,
                                        fanout=fanout,
                                        replicate=replicate,
                                        num_messages=self.num_messages,
                                        params=combo,
                                    )
                                )
        return tuple(specs)

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "format": SPEC_FORMAT,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "protocols": list(self.protocols),
            "num_nodes": list(self.num_nodes),
            "fanouts": list(self.fanouts),
            "replicates": self.replicates,
            "num_messages": self.num_messages,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.scale is not None:
            payload["scale"] = self.scale
        if self.config_overrides:
            payload["config"] = dict(self.config_overrides)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        fmt = payload.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ConfigurationError(
                f"sweep spec format {fmt!r} is not supported (this "
                f"build reads format {SPEC_FORMAT})"
            )
        known = {
            "format",
            "scenarios",
            "protocols",
            "num_nodes",
            "fanouts",
            "replicates",
            "num_messages",
            "seed",
            "scale",
            "config",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec keys: {sorted(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        if "scenarios" in payload:
            entries = payload["scenarios"]
            if not isinstance(entries, Sequence) or isinstance(
                entries, (str, bytes)
            ):
                raise ConfigurationError(
                    f"'scenarios' must be a list, got {entries!r}"
                )
            kwargs["scenarios"] = tuple(
                entry
                if isinstance(entry, str)
                else ScenarioSelection.from_dict(entry)
                for entry in entries
            )
        for name in ("protocols", "num_nodes", "fanouts"):
            if name in payload:
                kwargs[name] = tuple(payload[name])
        for name in ("replicates", "num_messages", "seed", "scale"):
            if name in payload:
                kwargs[name] = payload[name]
        if "config" in payload:
            overrides = payload["config"]
            if not isinstance(overrides, Mapping):
                raise ConfigurationError(
                    f"'config' must be an object, got {overrides!r}"
                )
            kwargs["config_overrides"] = tuple(
                sorted(overrides.items())
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys; byte-stable round-trip)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"sweep spec is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def fingerprint(self) -> str:
        """Stable digest of the spec (survives the JSON round-trip)."""
        return hashlib.sha256(
            self.to_json().encode("utf-8")
        ).hexdigest()[:16]


def flat_spec(
    scenarios: Sequence[str] = ("static",),
    protocols: Sequence[str] = ("randcast", "ringcast"),
    num_nodes: Sequence[int] = (150,),
    fanouts: Sequence[int] = (1, 2, 3, 4),
    replicates: int = 1,
    num_messages: int = 5,
    kill_fractions: Sequence[float] = (0.05,),
    churn_rates: Sequence[float] = (0.01,),
    concurrent_messages: int = 4,
    pulls_per_round: int = 1,
    seed: Optional[int] = None,
    scale: Optional[str] = None,
    config_overrides: Union[
        Mapping[str, Any], Tuple[Tuple[str, Any], ...]
    ] = (),
) -> SweepSpec:
    """A :class:`SweepSpec` with the historical flat-grid semantics.

    ``kill_fractions`` becomes an axis of every scenario consuming
    ``kill_fraction``, ``churn_rates`` of every scenario consuming
    ``churn_rate``, and the scalar ``concurrent_messages`` /
    ``pulls_per_round`` attach to *every* scenario. Trial keys — and
    with them RNG universes, cache digests and every golden — depend
    on exactly this attachment and on these keyword defaults, which is
    why both live here and nowhere else.

    >>> spec = flat_spec(scenarios=("static", "catastrophic"),
    ...                  protocols=("ringcast",), num_nodes=(100,),
    ...                  fanouts=(2, 3), kill_fractions=(0.05, 0.1))
    >>> len(spec.expand())  # static: 2 fanouts; catastrophic: 2 x 2
    6
    """
    selections = []
    for name in scenarios:
        schema = scenario_schema(name)  # raises for unknown names
        params: Dict[str, Tuple[ParamValue, ...]] = {}
        if schema.param("kill_fraction") is not None:
            params["kill_fraction"] = tuple(kill_fractions)
        if schema.param("churn_rate") is not None:
            params["churn_rate"] = tuple(churn_rates)
        params["concurrent_messages"] = (concurrent_messages,)
        params["pulls_per_round"] = (pulls_per_round,)
        selections.append(
            ScenarioSelection(
                name=name,
                params=tuple(params.items()),
            )
        )
    return SweepSpec(
        scenarios=tuple(selections),
        protocols=tuple(protocols),
        num_nodes=tuple(num_nodes),
        fanouts=tuple(fanouts),
        replicates=replicates,
        num_messages=num_messages,
        seed=seed,
        scale=scale,
        config_overrides=config_overrides,
    )
