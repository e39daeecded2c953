"""Tests for the declarative SweepSpec API redesign.

Pins the redesign's load-bearing contract: sweep JSON for the five
pre-redesign scenarios is **byte-identical** to the seed
implementation (goldens recorded against the pre-redesign code in
``tests/data/``), whether the sweep is described by ``flat_spec``,
plain scenario names, or a spec file, and whichever backend (inline /
process) runs it. On top of that: hypothesis round-trip
properties for ``SweepSpec`` serialisation, the auto-generated CLI
(including that a runtime-registered plugin scenario gets its flag
with zero CLI edits, and that the flat kwargs and flags removed in
2.0.0 are hard errors), strict ``run_experiment`` parameter
validation, and the Mundinger ``scheduling_optimal`` baseline scenario.
"""

import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api
from repro.api import (
    run_adaptive_sweep as api_run_adaptive_sweep,
    run_experiment,
    run_sweep as api_run_sweep,
)
from repro.cli import build_parser, main
from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import (
    TRIAL_REPLACED_FIELDS,
    ParamSpec,
    ScenarioSchema,
    register_scenario,
    registered_params,
    scenario_names,
    scenario_schema,
    scenarios_consuming,
    trial_config,
)
from repro.experiments.scheduling_optimal import (
    greedy_schedule_rounds,
    lower_bound_rounds,
)
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_results import (
    UNIVERSAL_PARAM_DEFAULTS,
    TrialResult,
    TrialSpec,
)
from repro.experiments.sweep_spec import (
    ScenarioSelection,
    SweepSpec,
    flat_spec,
    scenario,
)

DATA = Path(__file__).parent / "data"

# Exactly the grid + config the pre-redesign goldens were recorded
# with (all five seed scenarios, both protocols, a kill axis).
GOLDEN_BASE = ExperimentConfig(
    num_nodes=40, warmup_cycles=10, seed=11, churn_max_cycles=400
)
GOLDEN_GRID = flat_spec(
    scenarios=(
        "static",
        "catastrophic",
        "churn",
        "multi_message",
        "pull_churn",
    ),
    protocols=("randcast", "ringcast"),
    num_nodes=(40,),
    fanouts=(2, 3),
    replicates=2,
    num_messages=2,
    kill_fractions=(0.05, 0.1),
    churn_rates=(0.02,),
    concurrent_messages=3,
    pulls_per_round=1,
)
SMALL_KWARGS = dict(
    scenarios=tuple(s.name for s in GOLDEN_GRID.scenarios),
    protocols=("ringcast",),
    num_nodes=(40,),
    fanouts=(2,),
    replicates=1,
    num_messages=2,
    kill_fractions=(0.05,),
    churn_rates=(0.02,),
    concurrent_messages=3,
    pulls_per_round=1,
)
SMALL_GRID = flat_spec(**SMALL_KWARGS)


def golden_bytes(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# TrialSpec: generic params, key/wire stability
# ----------------------------------------------------------------------


class TestTrialSpecParams:
    def test_legacy_key_format_unchanged(self):
        spec = TrialSpec(
            scenario="catastrophic",
            protocol="ringcast",
            num_nodes=40,
            fanout=2,
            replicate=1,
            num_messages=2,
            kill_fraction=0.05,
            churn_rate=0.0,
            concurrent_messages=3,
            pulls_per_round=1,
        )
        assert spec.key == (
            "sweep/catastrophic/ringcast/n40/f2/m2"
            "/kill0.05/churn0.0/cm3/p1/rep1"
        )

    def test_universal_defaults_always_present(self):
        spec = TrialSpec(
            scenario="static", protocol="ringcast", num_nodes=40, fanout=2
        )
        assert spec.params_dict == dict(UNIVERSAL_PARAM_DEFAULTS)
        assert spec.extra_params == ()

    def test_declared_params_extend_key_deterministically(self):
        spec = TrialSpec(
            scenario="scheduling_optimal",
            protocol="ringcast",
            num_nodes=40,
            fanout=2,
            params={"num_parts": 4},
        )
        assert "/num_parts=4/rep0" in spec.key
        assert spec.param("num_parts") == 4
        assert spec.extra_params == (("num_parts", 4),)

    def test_params_mapping_and_kwargs_agree(self):
        by_map = TrialSpec(
            scenario="s",
            protocol="p",
            num_nodes=40,
            fanout=2,
            params={"kill_fraction": 0.1},
        )
        by_kwarg = TrialSpec(
            scenario="s",
            protocol="p",
            num_nodes=40,
            fanout=2,
            kill_fraction=0.1,
        )
        assert by_map == by_kwarg
        assert hash(by_map) == hash(by_kwarg)
        assert by_map.key == by_kwarg.key

    def test_int_float_equal_values_share_identity(self):
        a = TrialSpec(
            scenario="s", protocol="p", num_nodes=40, fanout=2,
            kill_fraction=0,
        )
        b = TrialSpec(
            scenario="s", protocol="p", num_nodes=40, fanout=2,
            kill_fraction=0.0,
        )
        assert a == b
        assert a.key == b.key

    def test_int_float_equal_extra_params_share_key(self):
        # Equal specs must share their key (RNG universe + cache
        # identity): 4 and 4.0 compare equal, so they must also embed
        # identically.
        a = TrialSpec(
            scenario="s", protocol="p", num_nodes=40, fanout=2,
            params={"num_parts": 4},
        )
        b = TrialSpec(
            scenario="s", protocol="p", num_nodes=40, fanout=2,
            params={"num_parts": 4.0},
        )
        assert a == b
        assert a.key == b.key
        assert a.to_dict() == b.to_dict()

    def test_dict_roundtrip_and_pickle(self):
        spec = TrialSpec(
            scenario="x",
            protocol="p",
            num_nodes=40,
            fanout=3,
            params={"num_parts": 4, "churn_rate": 0.02},
        )
        assert TrialSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rejects_non_numeric_and_reserved_params(self):
        with pytest.raises(ConfigurationError, match="number"):
            TrialSpec(
                scenario="s", protocol="p", num_nodes=40, fanout=2,
                params={"knob": "high"},
            )
        with pytest.raises(ConfigurationError, match="invalid"):
            TrialSpec(
                scenario="s", protocol="p", num_nodes=40, fanout=2,
                params={"fanout": 3},
            )

    def test_immutable(self):
        spec = TrialSpec(
            scenario="s", protocol="p", num_nodes=40, fanout=2
        )
        with pytest.raises(AttributeError):
            spec.scenario = "other"


# ----------------------------------------------------------------------
# golden: pre-redesign byte identity
# ----------------------------------------------------------------------


class TestGoldenTrialKeys:
    def test_expansion_keys_identical_to_seed(self):
        pinned = golden_bytes("golden_trial_keys.txt").splitlines()
        assert [s.key for s in GOLDEN_GRID.expand()] == pinned

    def test_spec_json_roundtrip_preserves_expansion(self):
        spec = GOLDEN_GRID
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec
        assert again.expand() == spec.expand()


class TestGoldenSweepBytes:
    """The recorded pre-redesign sweep JSON, reproduced bit-for-bit.

    The big golden (48 trials, both protocols, a kill axis) runs once
    from the in-memory ``flat_spec`` with a cache, then its JSON
    round-trip (what ``--spec FILE`` loads) replays against the same
    cache — proving key *and* fingerprint identity (a diverged key
    would recompute, which the byte comparison plus the cache-hit
    assertion would expose).
    """

    def test_legacy_grid_and_spec_path_match_seed_bytes(self, tmp_path):
        golden = golden_bytes("golden_sweep_pre_redesign.json")
        hits = []

        def progress(key, seconds, cached):
            hits.append(cached)

        legacy = run_sweep(
            GOLDEN_GRID,
            base_config=GOLDEN_BASE,
            root_seed=11,
            cache_dir=tmp_path,
        )
        assert legacy.to_json() + "\n" == golden
        via_spec = run_sweep(
            SweepSpec.from_json(GOLDEN_GRID.to_json()),
            base_config=GOLDEN_BASE,
            root_seed=11,
            cache_dir=tmp_path,
            progress=progress,
        )
        assert via_spec.to_json() + "\n" == golden
        assert hits and all(hits), "spec-file path missed the cache"

    def test_plain_name_and_spec_paths_share_the_trial_cache(
        self, tmp_path
    ):
        # A flat_spec grid keeps its trial keys through a spec file,
        # so the same grid passed as a path must hit every cached trial.
        kwargs = dict(
            scenarios=("static", "multi_message"),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(2,),
            num_messages=2,
        )
        first = api_run_sweep(
            flat_spec(**kwargs), seed=5, warmup_cycles=10, cache_dir=tmp_path
        )
        hits = []
        again = api_run_sweep(
            spec=flat_spec(**kwargs).save(tmp_path / "flat.json"),
            seed=5,
            warmup_cycles=10,
            cache_dir=tmp_path,
            progress=lambda key, seconds, cached: hits.append(cached),
        )
        assert hits and all(hits)
        assert again.to_json() == first.to_json()

    @pytest.mark.parametrize(
        "facade", [api_run_sweep, api_run_adaptive_sweep]
    )
    @pytest.mark.parametrize(
        "removed",
        [
            {"kill_fractions": (0.1,)},
            {"churn_rates": (0.02,)},
            {"concurrent_messages": 3},
            {"pulls_per_round": 2},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_removed_flat_kwargs_are_type_errors(
        self, monkeypatch, facade, removed
    ):
        # **config_overrides swallows unknown names, so the error comes
        # from ExperimentConfig — before any trial may run. Since 5.0.0
        # it is the spec file's "unknown config override" error, not a
        # raw TypeError from dataclasses.replace.
        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a removed kwarg reached the engine")

        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        monkeypatch.setattr(repro.api, "_run_adaptive", explode)
        with pytest.raises(ConfigurationError, match=next(iter(removed))):
            facade(flat_spec(scenarios=("catastrophic",)), **removed)

    def test_api_spec_file_matches_seed_bytes(self, tmp_path):
        golden = golden_bytes("golden_sweep_small_pre_redesign.json")
        spec = flat_spec(
            **SMALL_KWARGS,
            seed=11,
            config_overrides={
                "warmup_cycles": 10,
                "churn_max_cycles": 400,
            },
        )
        path = spec.save(tmp_path / "golden_spec.json")
        assert SweepSpec.load(path).fingerprint() == spec.fingerprint()
        result = api_run_sweep(spec=path)
        assert result.to_json() + "\n" == golden


class TestGoldenCrossBackend:
    """Spec-described sweeps reproduce the seed bytes on every backend."""

    @pytest.fixture(scope="class")
    def small_spec(self):
        return SMALL_GRID

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_backend_matches_seed_bytes(self, small_spec, backend):
        golden = golden_bytes("golden_sweep_small_pre_redesign.json")
        result = run_sweep(
            small_spec,
            base_config=GOLDEN_BASE,
            root_seed=11,
            backend=backend,
            workers=2 if backend != "inline" else 1,
        )
        assert result.to_json() + "\n" == golden


# ----------------------------------------------------------------------
# SweepSpec construction + validation
# ----------------------------------------------------------------------


class TestSweepSpecValidation:
    def test_scenario_selection_validates_against_schema(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            scenario("static", fictional_knob=3)
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            scenario("apocalypse")

    def test_axis_requires_sweepable_declared_param(self):
        # concurrent_messages / pulls_per_round ride along as scalars
        # everywhere (the flat grid attached them to every scenario,
        # and trial keys depend on it), but an *axis* needs the
        # scenario to actually consume the parameter.
        assert scenario("static", pulls_per_round=2)
        with pytest.raises(ConfigurationError, match="does not consume"):
            scenario("static", pulls_per_round=[1, 2])

    def test_misdescribing_universal_scalars_rejected(self):
        # kill_fraction on 'static' would label failure-free rows with
        # a kill% nobody applied; unlike cm/pulls it was never
        # attached to non-consumers, so there is nothing to preserve.
        with pytest.raises(ConfigurationError, match="misdescribe"):
            scenario("static", kill_fraction=0.5)
        with pytest.raises(ConfigurationError, match="misdescribe"):
            scenario("catastrophic", churn_rate=0.1)
        assert scenario("catastrophic", kill_fraction=0.5)

    def test_duplicate_axis_values_rejected(self):
        # Duplicates would expand into RNG-identical trials posing as
        # independent replicates (fake CI = 0).
        with pytest.raises(ConfigurationError, match="duplicate"):
            scenario("catastrophic", kill_fraction=[0.1, 0.1])

    def test_bounds_checked_per_value(self):
        with pytest.raises(ConfigurationError, match="kill_fraction"):
            scenario("catastrophic", kill_fraction=[0.05, 1.5])
        # NaN fails every bound comparison; it must not pass them all.
        with pytest.raises(ConfigurationError, match="kill_fraction"):
            scenario("catastrophic", kill_fraction=[math.nan])
        # A spec file's 1e999 parses as inf; int() of it must not leak
        # a raw ValueError or OverflowError.
        for bad in (math.nan, math.inf):
            with pytest.raises(
                ConfigurationError, match="concurrent_messages"
            ):
                scenario("multi_message", concurrent_messages=bad)

    def test_spec_axis_validation(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            SweepSpec(protocols=("ringcast", "smoke-signals"))
        with pytest.raises(ConfigurationError, match="at least one"):
            SweepSpec(fanouts=())
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepSpec(num_nodes=(40, 40))
        with pytest.raises(ConfigurationError, match="config override"):
            SweepSpec(config_overrides={"warp_factor": 9})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("num_nodes", 7),
            ("fanouts", (9,)),
            ("num_messages", 4),
            ("num_networks", 2),
            ("churn_networks", 2),
        ],
    )
    def test_trial_replaced_config_fields_rejected(
        self, name, value, tmp_path, monkeypatch
    ):
        """Every trial replaces these fields, so overriding one used to
        run the spec's own grid and only move the history address."""
        assert name in TRIAL_REPLACED_FIELDS
        base = ExperimentConfig(num_nodes=40, warmup_cycles=10)
        trial = SMALL_GRID.expand()[0]
        assert trial_config(
            trial, base.with_overrides(**{name: value}), 11
        ) == trial_config(trial, base, 11)
        with pytest.raises(ConfigurationError, match=name):
            SweepSpec(config_overrides={name: value})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"config": {name: value}}))
        with pytest.raises(ConfigurationError, match=name):
            SweepSpec.load(path)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("an ignored override reached the engine")

        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        monkeypatch.setattr(repro.api, "_run_adaptive", explode)
        for facade in (api_run_sweep, api_run_adaptive_sweep):
            with pytest.raises(ConfigurationError, match=name):
                facade(SMALL_GRID, scale="tiny", **{name: value})

    def test_populations_below_three_rejected_at_construction(self):
        for nodes in ((2,), (40, 1)):
            with pytest.raises(
                ConfigurationError, match="num_nodes must be >= 3"
            ):
                SweepSpec(num_nodes=nodes)
        with pytest.raises(ConfigurationError, match="num_nodes must be"):
            SweepSpec.from_dict({"num_nodes": [0]})

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep"):
            SweepSpec.from_dict({"format": 1, "scenarioz": []})
        with pytest.raises(ConfigurationError, match="format"):
            SweepSpec.from_dict({"format": 99})

    def test_wrong_axis_types_rejected_not_mangled(self):
        # "150" would otherwise be tuple()d into ('1', '5', '0') and
        # crash deep inside expand() with a raw TypeError.
        with pytest.raises(ConfigurationError, match="num_nodes"):
            SweepSpec.from_dict({"num_nodes": "150"})
        with pytest.raises(ConfigurationError, match="replicates"):
            SweepSpec.from_dict({"replicates": "2"})
        with pytest.raises(ConfigurationError, match="fanouts"):
            SweepSpec(fanouts=(2.5,))
        with pytest.raises(ConfigurationError, match="seed"):
            SweepSpec(seed="42")

    def test_api_spec_conflicts_with_grid_kwargs(self, tmp_path):
        # Silently running the spec's replicates while the caller
        # passed replicates=5 would misdescribe their statistics.
        path = SMALL_GRID.save(tmp_path / "s.json")
        with pytest.raises(ConfigurationError, match="replicates"):
            api_run_sweep(spec=path, replicates=5)

    def test_per_scenario_axes_expand_independently(self):
        spec = SweepSpec(
            scenarios=(
                scenario("churn", churn_rate=[0.01, 0.05]),
                "static",
            ),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(2,),
        )
        trials = spec.expand()
        churn_rates = [
            t.churn_rate for t in trials if t.scenario == "churn"
        ]
        static_rates = [
            t.churn_rate for t in trials if t.scenario == "static"
        ]
        assert churn_rates == [0.01, 0.05]
        assert static_rates == [0.0]


# ----------------------------------------------------------------------
# hypothesis: serialisation round-trip
# ----------------------------------------------------------------------

_PARAM_VALUES = {
    "kill_fraction": st.floats(
        0.0, 0.95, allow_nan=False, allow_infinity=False
    ),
    "churn_rate": st.floats(
        0.001, 0.9, allow_nan=False, allow_infinity=False
    ),
    "concurrent_messages": st.integers(1, 8),
    "pulls_per_round": st.integers(1, 4),
    "num_parts": st.integers(1, 16),
}


@st.composite
def scenario_selections(draw):
    name = draw(st.sampled_from(scenario_names()))
    params = {}
    for spec in scenario_schema(name).params:
        if not draw(st.booleans()):
            continue
        values = draw(
            st.lists(
                _PARAM_VALUES[spec.name],
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        params[spec.name] = values
    return scenario(name, **params)


@st.composite
def sweep_specs(draw):
    selections = draw(
        st.lists(
            scenario_selections(),
            min_size=1,
            max_size=3,
            unique_by=lambda s: s.name,
        )
    )
    return SweepSpec(
        scenarios=tuple(selections),
        protocols=tuple(
            draw(
                st.lists(
                    st.sampled_from(
                        ("randcast", "ringcast", "multiring")
                    ),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
        ),
        num_nodes=tuple(
            draw(
                st.lists(
                    st.integers(3, 500),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
        ),
        fanouts=tuple(
            draw(
                st.lists(
                    st.integers(1, 8),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        ),
        replicates=draw(st.integers(1, 3)),
        num_messages=draw(st.integers(1, 5)),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        scale=draw(st.sampled_from((None, "tiny", "small"))),
        config_overrides=draw(
            st.sampled_from(
                ((), (("warmup_cycles", 20),), (("view_size", 16),))
            )
        ),
    )


class TestSpecRoundTripProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=sweep_specs())
    def test_json_roundtrip_lossless_and_key_stable(self, spec):
        text = spec.to_json()
        again = SweepSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text
        assert again.fingerprint() == spec.fingerprint()
        assert [t.key for t in again.expand()] == [
            t.key for t in spec.expand()
        ]


# ----------------------------------------------------------------------
# scheduling_optimal: the Mundinger baseline plugin
# ----------------------------------------------------------------------


class TestSchedulingOptimal:
    def test_registered_via_public_plugin_path(self):
        assert "scheduling_optimal" in scenario_names()
        schema = scenario_schema("scheduling_optimal")
        assert schema.names() == ("num_parts",)
        assert scenarios_consuming("num_parts") == (
            "scheduling_optimal",
        )

    def test_single_part_meets_known_optimum(self):
        # With one part the optimal makespan is exactly
        # ceil(log_{F+1} N): informed nodes (F+1)-tuple each round.
        for num_nodes in (2, 40, 100, 128, 150, 1000):
            for fanout in (1, 2, 3, 4):
                expected = math.ceil(
                    math.log(num_nodes) / math.log(fanout + 1) - 1e-9
                )
                got = greedy_schedule_rounds(num_nodes, fanout)
                assert got == lower_bound_rounds(num_nodes, fanout)
                assert got == expected, (num_nodes, fanout)

    def test_multi_part_pipelines_for_unit_fanout(self):
        # F=1 multi-part optimum is M - 1 + ceil(log2 N) (pipelined
        # halving); the greedy schedule meets it.
        assert greedy_schedule_rounds(100, 1, 8) == 8 - 1 + 7
        assert greedy_schedule_rounds(64, 1, 4) == 4 - 1 + 6

    def test_multi_part_bounded(self):
        for num_nodes, fanout, parts in ((100, 2, 8), (40, 2, 3)):
            got = greedy_schedule_rounds(num_nodes, fanout, parts)
            bound = lower_bound_rounds(num_nodes, fanout, parts)
            doubling = lower_bound_rounds(num_nodes, fanout, 1)
            assert bound <= got <= bound + doubling

    def test_trial_is_ideal_by_construction(self):
        spec = SweepSpec(
            scenarios=(
                scenario("scheduling_optimal", num_parts=[1, 4]),
            ),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(2,),
            num_messages=2,
        )
        result = run_sweep(
            spec,
            base_config=ExperimentConfig(
                num_nodes=40, warmup_cycles=10, seed=11
            ),
            root_seed=11,
        )
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.mean_miss_ratio == 0.0
            assert cell.complete_fraction == 1.0
            parts = dict(cell.params)["num_parts"]
            assert cell.mean_total_messages == parts * 39
            assert cell.mean_hops == greedy_schedule_rounds(
                40, 2, parts
            )
            assert cell.extras_dict["lower_bound_rounds"] <= cell.mean_hops


# ----------------------------------------------------------------------
# a runtime plugin is a first-class scenario everywhere
# ----------------------------------------------------------------------


def _plugin_executor(spec, config, registry):
    knob = spec.param("plugin_knob", 0)
    return TrialResult(
        spec=spec,
        runs=spec.num_messages,
        mean_miss_ratio=0.0,
        complete_fraction=1.0,
        mean_hops=float(knob),
        max_hops=int(knob),
        mean_msgs_virgin=0.0,
        mean_msgs_redundant=0.0,
        mean_msgs_to_dead=0.0,
        mean_total_messages=0.0,
    )


class TestRuntimePlugin:
    @pytest.fixture
    def plugin(self):
        register_scenario(
            "plugin_probe",
            _plugin_executor,
            ScenarioSchema(
                params=(
                    ParamSpec(
                        "plugin_knob",
                        kind="int",
                        default=2,
                        minimum=1,
                        help="test-only plugin knob",
                    ),
                ),
                description="test-only runtime plugin",
            ),
        )
        yield "plugin_probe"
        from repro.experiments import scenario_matrix

        scenario_matrix._SCENARIOS.pop("plugin_probe", None)

    def test_spec_and_engine_pick_up_plugin(self, plugin):
        assert plugin in scenario_names()
        assert "plugin_knob" in registered_params()
        spec = SweepSpec(
            scenarios=(scenario(plugin, plugin_knob=[1, 3]),),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(2,),
        )
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec
        result = run_sweep(
            again,
            base_config=ExperimentConfig(
                num_nodes=40, warmup_cycles=10, seed=11
            ),
            root_seed=11,
        )
        assert [dict(c.params)["plugin_knob"] for c in result.cells] == [
            1,
            3,
        ]
        assert [c.mean_hops for c in result.cells] == [1.0, 3.0]

    def test_cli_flag_autogenerated_for_plugin(self, plugin):
        parser = build_parser()
        args = parser.parse_args(
            [
                "sweep",
                "--scenarios",
                plugin,
                "--plugin-knob",
                "1,3",
            ]
        )
        assert args.param_plugin_knob == (1, 3)
        # ...and only because the registry says so: parsers built
        # after the plugin is gone must not know the flag.
        from repro.experiments import scenario_matrix

        scenario_matrix._SCENARIOS.pop("plugin_probe")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--plugin-knob", "1"])

    def test_conflicting_redeclaration_rejected(self, plugin):
        with pytest.raises(ConfigurationError, match="differently"):
            register_scenario(
                "plugin_probe_2",
                _plugin_executor,
                ScenarioSchema(
                    params=(
                        ParamSpec(
                            "plugin_knob", kind="float", default=2.0
                        ),
                    )
                ),
            )


# ----------------------------------------------------------------------
# shipped example specs stay valid
# ----------------------------------------------------------------------


EXAMPLE_SPECS = sorted(
    (Path(__file__).parent.parent / "examples" / "specs").glob("*.json")
)


class TestShippedExampleSpecs:
    def test_specs_are_shipped(self):
        assert EXAMPLE_SPECS, "examples/specs/ lost its spec files"

    @pytest.mark.parametrize(
        "path", EXAMPLE_SPECS, ids=lambda p: p.stem
    )
    def test_loads_validates_and_roundtrips(self, path):
        spec = SweepSpec.load(path)
        assert spec.expand(), f"{path.name} expands to zero trials"
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        # The file on disk is already canonical JSON (sorted keys),
        # so regenerating it is a no-op.
        assert path.read_text(encoding="utf-8") == spec.to_json() + "\n"


# ----------------------------------------------------------------------
# run_experiment: strict parameter validation
# ----------------------------------------------------------------------


class TestRunExperimentValidation:
    def test_rejects_param_the_scenario_does_not_consume(self):
        with pytest.raises(ConfigurationError, match="does not consume"):
            run_experiment(
                scenario="static", scale="tiny", kill_fraction=0.1
            )

    def test_rejects_churn_param_on_static(self):
        with pytest.raises(ConfigurationError, match="churn"):
            run_experiment(
                scenario="static", scale="tiny", churn_rate=0.05
            )

    def test_consuming_scenario_still_accepts_it(self):
        # catastrophic consumes kill_fraction: validation must not get
        # in the way of the documented call.
        outcome = run_experiment(
            scenario="catastrophic",
            scale="tiny",
            seed=3,
            kill_fraction=0.05,
            num_nodes=60,
            warmup_cycles=20,
            num_messages=2,
            fanouts=(2,),
        )
        assert outcome is not None


# ----------------------------------------------------------------------
# CLI: spec files, dump, conflicts
# ----------------------------------------------------------------------


class TestSweepSpecCli:
    def test_dump_spec_roundtrips_without_running(
        self, capsys, tmp_path
    ):
        out = tmp_path / "spec.json"
        code = main(
            [
                "sweep",
                "--scale",
                "tiny",
                "--seed",
                "4",
                "--scenarios",
                "static,catastrophic",
                "--nodes",
                "40",
                "--fanouts",
                "2,3",
                "--kill-fraction",
                "0.05,0.1",
                "--warmup",
                "10",
                "--dump-spec",
                str(out),
            ]
        )
        assert code == 0
        assert "fingerprint" in capsys.readouterr().out
        spec = SweepSpec.load(out)
        assert spec.scale == "tiny"
        assert spec.seed == 4
        assert dict(spec.config_overrides) == {"warmup_cycles": 10}
        names = [s.name for s in spec.scenarios]
        assert names == ["static", "catastrophic"]
        kill = dict(spec.scenarios[1].params)["kill_fraction"]
        assert kill == (0.05, 0.1)
        # catastrophic consumes it; static must not sweep it
        assert "kill_fraction" not in dict(spec.scenarios[0].params)

    def test_dump_spec_legacy_flags_equals_flat_spec(
        self, capsys, tmp_path
    ):
        out = tmp_path / "legacy.json"
        main(
            [
                "sweep",
                "--seed",
                "11",
                "--scenarios",
                "static,catastrophic",
                "--nodes",
                "40",
                "--fanouts",
                "2",
                "--replicates",
                "1",
                "--messages",
                "2",
                "--dump-spec",
                str(out),
            ]
        )
        expected = flat_spec(
            scenarios=("static", "catastrophic"),
            num_nodes=(40,),
            fanouts=(2,),
            replicates=1,
            num_messages=2,
            seed=11,
        )
        assert SweepSpec.load(out).fingerprint() == expected.fingerprint()

    def test_dumped_spec_file_carries_seed_scale_and_warmup(
        self, capsys, tmp_path
    ):
        # --spec with --dump-spec used to write the loaded spec as it
        # was, dropping the flags its run would apply.
        base = flat_spec(
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(2,),
            num_messages=2,
            scale="tiny",
        ).save(tmp_path / "base.json")
        flags = ["--seed", "9", "--warmup", "10"]
        dumped = tmp_path / "dumped.json"
        dump = ["--dump-spec", str(dumped)]
        main(["sweep", "--spec", str(base), *flags, *dump])
        spec = SweepSpec.load(dumped)
        assert (spec.seed, spec.scale) == (9, "tiny")
        assert dict(spec.config_overrides) == {"warmup_cycles": 10}
        with_flags = tmp_path / "with_flags.json"
        from_dump = tmp_path / "from_dump.json"
        main(["sweep", "--spec", str(base), *flags, "--json", str(with_flags)])
        main(["sweep", "--spec", str(dumped), "--json", str(from_dump)])
        capsys.readouterr()
        assert with_flags.read_bytes() == from_dump.read_bytes()

    def test_dump_spec_of_too_few_nodes_fails_and_writes_nothing(
        self, tmp_path
    ):
        out = tmp_path / "c.json"
        argv = ["sweep", "--nodes", "1", "--dump-spec", str(out)]
        with pytest.raises(ConfigurationError, match="num_nodes must be"):
            main(argv)
        assert not out.exists()
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert "num_nodes must be >= 3" in done.stderr
        assert not out.exists()

    def test_spec_conflicts_with_grid_flags(self, tmp_path):
        path = SMALL_GRID.save(tmp_path / "spec.json")
        with pytest.raises(ConfigurationError, match="--nodes"):
            main(
                ["sweep", "--spec", str(path), "--nodes", "99"]
            )
        with pytest.raises(ConfigurationError, match="kill"):
            main(
                [
                    "sweep",
                    "--spec",
                    str(path),
                    "--kill-fraction",
                    "0.2",
                ]
            )

    def test_param_flag_nobody_consumes_rejected(self):
        with pytest.raises(ConfigurationError, match="num_parts"):
            main(
                [
                    "sweep",
                    "--scenarios",
                    "static",
                    "--num-parts",
                    "2",
                ]
            )

    @pytest.mark.parametrize(
        "spelling, value",
        [
            ("--kill-fractions", "0.1"),
            ("--churn-rates", "0.02"),
            # These two are prefixes of --concurrent-messages /
            # --pulls-per-round: with argparse's default allow_abbrev
            # they would silently parse as the per-schema flags.
            ("--concurrent", "3"),
            ("--pulls", "2"),
        ],
    )
    def test_removed_flag_spellings_exit_2(
        self, capsys, tmp_path, spelling, value
    ):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--scenarios",
                    "static,multi_message,pull_churn",
                    spelling,
                    value,
                    "--dump-spec",
                    str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert spelling in capsys.readouterr().err
        assert not out.exists()

    def test_spec_end_to_end_matches_legacy_bytes(
        self, capsys, tmp_path
    ):
        legacy_json = tmp_path / "legacy.json"
        spec_path = tmp_path / "spec.json"
        spec_json = tmp_path / "from_spec.json"
        argv_common = [
            "--scale",
            "tiny",
            "--seed",
            "4",
            "--protocols",
            "ringcast",
            "--nodes",
            "40",
            "--fanouts",
            "2",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--warmup",
            "10",
        ]
        main(
            ["sweep", *argv_common, "--json", str(legacy_json)]
        )
        main(["sweep", *argv_common, "--dump-spec", str(spec_path)])
        main(
            [
                "sweep",
                "--spec",
                str(spec_path),
                "--json",
                str(spec_json),
            ]
        )
        capsys.readouterr()
        assert legacy_json.read_bytes() == spec_json.read_bytes()
