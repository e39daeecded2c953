"""Tests for experiment configuration and scale presets."""

import json

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.core.vicinity import VicinityCore
from repro.experiments.config import (
    ExperimentConfig,
    OverlaySpec,
    scale_config,
)
from repro.experiments.sweep_spec import SweepSpec
from repro.membership.ring_ids import RingProximity
from repro.sim.node import NodeProfile


class TestOverlaySpec:
    def test_defaults(self):
        spec = OverlaySpec()
        assert spec.kind == "ringcast"
        assert spec.uses_vicinity
        assert spec.effective_rings == 1

    def test_randcast_has_no_vicinity(self):
        assert not OverlaySpec(kind="randcast").uses_vicinity

    def test_multiring_effective_rings(self):
        assert OverlaySpec(kind="multiring", num_rings=3).effective_rings == 3

    def test_single_ring_kinds_use_one_vicinity(self):
        assert OverlaySpec(kind="hararycast", num_rings=4).effective_rings == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(kind="smokesignals")

    def test_odd_harary_connectivity_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(kind="hararycast", harary_connectivity=3)

    def test_zero_rings_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(num_rings=0)


class TestExperimentConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.view_size == 20
        assert config.warmup_cycles == 100
        assert config.churn_rate == 0.002

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_nodes", 2),
            ("view_size", 1),
            ("warmup_cycles", 0),
            ("num_messages", 0),
            ("fanouts", ()),
            ("fanouts", (0, 1)),
            ("churn_rate", 1.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("shuffle_length", 50),  # more than a view of 20 holds
            ("shuffle_length", 0),
            ("vicinity_gossip_length", -3),
            ("vicinity_gossip_length", 0),
        ],
    )
    def test_nonsense_gossip_sizes_fail_before_any_trial(
        self, field, value, tmp_path, monkeypatch
    ):
        """They used to surface inside the first trial (a shuffle longer
        than the view) or never (VICINITY shipping nothing)."""
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**{field: value})
        path = tmp_path / "spec.json"
        spec = {"scale": "tiny", "config": {field: value}}
        path.write_text(json.dumps(spec))
        monkeypatch.setattr(
            api, "_run_sweep", lambda *a, **k: pytest.fail("trials scheduled")
        )
        with pytest.raises(ConfigurationError, match=field):
            api.run_sweep(spec=SweepSpec.load(path))
        if field == "vicinity_gossip_length":
            with pytest.raises(ConfigurationError, match="gossip_length"):
                VicinityCore(
                    0, NodeProfile((7,)), RingProximity(), gossip_length=value
                )

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(num_nodes=999)
        assert config.num_nodes == 999
        assert config.view_size == 20

    def test_unknown_override_is_a_configuration_error(
        self, tmp_path, monkeypatch
    ):
        """An api keyword and a spec-file key fail the same way, before
        any trial; they used to differ (a raw ``TypeError`` from
        ``dataclasses.replace`` on the api path)."""
        name = "warmup_cyclez"
        message = f"unknown config override {name!r}"
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig().with_overrides(**{name: 3})
        monkeypatch.setattr(
            api, "_run_sweep", lambda *a, **k: pytest.fail("trials scheduled")
        )
        monkeypatch.setattr(
            api, "_run_adaptive", lambda *a, **k: pytest.fail("trials scheduled")
        )
        for facade in (api.run_sweep, api.run_adaptive_sweep):
            with pytest.raises(ConfigurationError, match=message):
                facade(scenarios=("static",), scale="tiny", **{name: 3})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scale": "tiny", "config": {name: 3}}))
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec.load(path)

    def test_hashable_for_figure_caching(self):
        assert hash(ExperimentConfig()) == hash(ExperimentConfig())
        assert ExperimentConfig() == ExperimentConfig()


class TestScaleConfig:
    def test_known_scales(self):
        assert scale_config("tiny").num_nodes == 150
        assert scale_config("small").num_nodes == 500
        assert scale_config("medium").num_nodes == 2_000
        assert scale_config("paper").num_nodes == 10_000

    def test_paper_scale_matches_paper(self):
        config = scale_config("paper")
        assert config.fanouts == tuple(range(1, 21))
        assert config.num_messages == 100
        assert config.churn_rate == 0.002

    def test_seed_override(self):
        assert scale_config("tiny", seed=7).seed == 7

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert scale_config().num_nodes == 2_000

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_config().scale_name == "small"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert scale_config("tiny").num_nodes == 150

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_config("galactic")
