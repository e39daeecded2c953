"""Tests for the parallel sweep orchestration subsystem.

Covers grid expansion, per-trial determinism, worker-count invariance,
the resume cache, the scenario matrix (including the multi-message and
pull-recovery workload axes), and result serialisation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import (
    register_scenario,
    run_trial,
    scenario_names,
)
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_results import (
    SweepResult,
    TrialResult,
    TrialSpec,
    canonical_json,
    effectiveness_figure,
    load_cached_trial,
    store_trial,
    summarize_cells,
    trial_cache_path,
)
from repro.experiments.sweep_spec import flat_spec
from tests.store_defects import FILE_DEFECTS, hammer

BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)

SMALL_GRID = flat_spec(
    scenarios=("static",),
    protocols=("randcast", "ringcast"),
    num_nodes=(40,),
    fanouts=(2, 3),
    replicates=2,
    num_messages=2,
)


def small_sweep(**kwargs):
    return run_sweep(SMALL_GRID, base_config=BASE, root_seed=5, **kwargs)


class TestSweepGrid:
    """The flat grid: ``flat_spec`` expansion and eager validation."""

    def test_expansion_is_full_product(self):
        specs = SMALL_GRID.expand()
        assert len(specs) == 2 * 2 * 2  # protocols x fanouts x replicates
        assert len({s.key for s in specs}) == len(specs)

    def test_expansion_order_deterministic(self):
        assert SMALL_GRID.expand() == SMALL_GRID.expand()

    def test_scenario_specific_axes_multiply(self):
        grid = flat_spec(
            scenarios=("static", "catastrophic"),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(3,),
            replicates=1,
            kill_fractions=(0.05, 0.1),
        )
        specs = grid.expand()
        # static: 1 trial; catastrophic: one per kill fraction.
        assert len(specs) == 3
        fractions = sorted(
            s.kill_fraction for s in specs if s.scenario == "catastrophic"
        )
        assert fractions == [0.05, 0.1]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_spec(scenarios=("nope",))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_spec(protocols=("carrier-pigeon",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_spec(fanouts=())
        with pytest.raises(ConfigurationError):
            flat_spec(scenarios=("catastrophic",), kill_fractions=())
        with pytest.raises(ConfigurationError):
            flat_spec(scenarios=("churn",), churn_rates=())

    def test_bad_replicates_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_spec(replicates=0)

    def test_zero_churn_rate_rejected_for_churn_scenarios(self):
        # A cell labelled 0% churn must never silently run at the
        # config default rate; churn-free is the static scenario.
        with pytest.raises(ConfigurationError):
            flat_spec(scenarios=("churn",), churn_rates=(0.0, 0.01))
        with pytest.raises(ConfigurationError):
            flat_spec(scenarios=("pull_churn",), churn_rates=(0.0,))

    def test_duplicate_axis_values_rejected(self):
        # Duplicates would expand into RNG-identical trials posing as
        # independent replicates (fabricated CI=0 confidence).
        with pytest.raises(ConfigurationError):
            flat_spec(fanouts=(2, 2))
        with pytest.raises(ConfigurationError):
            flat_spec(protocols=("ringcast", "ringcast"))
        with pytest.raises(ConfigurationError):
            flat_spec(num_nodes=(40, 40))
        with pytest.raises(ConfigurationError):
            flat_spec(
                scenarios=("catastrophic",),
                kill_fractions=(0.05, 0.05),
            )

    def test_registered_scenarios_include_new_workloads(self):
        names = scenario_names()
        for expected in (
            "static",
            "catastrophic",
            "churn",
            "multi_message",
            "pull_churn",
        ):
            assert expected in names


class TestTrialSpec:
    def test_key_distinguishes_every_field(self):
        base = TrialSpec(
            scenario="static", protocol="ringcast", num_nodes=40, fanout=3
        )
        variants = [
            TrialSpec(
                scenario="churn",
                protocol="ringcast",
                num_nodes=40,
                fanout=3,
            ),
            TrialSpec(
                scenario="static",
                protocol="randcast",
                num_nodes=40,
                fanout=3,
            ),
            TrialSpec(
                scenario="static",
                protocol="ringcast",
                num_nodes=50,
                fanout=3,
            ),
            TrialSpec(
                scenario="static",
                protocol="ringcast",
                num_nodes=40,
                fanout=4,
            ),
            TrialSpec(
                scenario="static",
                protocol="ringcast",
                num_nodes=40,
                fanout=3,
                replicate=1,
            ),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_int_valued_fractions_share_key_with_float_twin(self):
        # 0 == 0.0 makes the specs equal; their keys (RNG universe,
        # cache identity) must collapse too.
        base = dict(
            scenario="static",
            protocol="ringcast",
            num_nodes=40,
            fanout=3,
        )
        assert (
            TrialSpec(kill_fraction=0, churn_rate=0, **base).key
            == TrialSpec(kill_fraction=0.0, churn_rate=0.0, **base).key
        )

    def test_roundtrips_through_dict(self):
        spec = TrialSpec(
            scenario="catastrophic",
            protocol="ringcast",
            num_nodes=40,
            fanout=2,
            kill_fraction=0.05,
            replicate=3,
        )
        assert TrialSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrialSpec(
                scenario="static", protocol="x", num_nodes=2, fanout=3
            )
        with pytest.raises(ConfigurationError):
            TrialSpec(
                scenario="static",
                protocol="x",
                num_nodes=40,
                fanout=0,
            )
        with pytest.raises(ConfigurationError):
            TrialSpec(
                scenario="static",
                protocol="x",
                num_nodes=40,
                fanout=3,
                kill_fraction=1.0,
            )


class TestTrialExecution:
    def test_static_trial_metrics_sane(self):
        spec = TrialSpec(
            scenario="static",
            protocol="ringcast",
            num_nodes=40,
            fanout=3,
            num_messages=3,
        )
        result = run_trial(spec, BASE, root_seed=5)
        assert result.runs == 3
        assert 0.0 <= result.mean_miss_ratio <= 1.0
        assert 0.0 <= result.complete_fraction <= 1.0
        assert result.mean_total_messages > 0

    def test_trial_is_pure_function_of_seed_and_spec(self):
        spec = TrialSpec(
            scenario="static",
            protocol="randcast",
            num_nodes=40,
            fanout=2,
            num_messages=2,
        )
        assert run_trial(spec, BASE, 5) == run_trial(spec, BASE, 5)
        assert run_trial(spec, BASE, 5) != run_trial(spec, BASE, 6)

    def test_replicates_differ(self):
        kwargs = dict(
            scenario="static",
            protocol="randcast",
            num_nodes=40,
            fanout=2,
            num_messages=2,
        )
        a = run_trial(TrialSpec(replicate=0, **kwargs), BASE, 5)
        b = run_trial(TrialSpec(replicate=1, **kwargs), BASE, 5)
        assert a.spec != b.spec
        # Different universes: message counts almost surely differ.
        assert (
            a.mean_total_messages,
            a.mean_miss_ratio,
        ) != (b.mean_total_messages, b.mean_miss_ratio)

    def test_churn_trial_without_rate_raises(self):
        spec = TrialSpec(
            scenario="churn",
            protocol="ringcast",
            num_nodes=40,
            fanout=2,
            churn_rate=0.0,
        )
        with pytest.raises(ConfigurationError, match="churn_rate > 0"):
            run_trial(spec, BASE, 5)

    def test_unknown_scenario_raises(self):
        spec = TrialSpec(
            scenario="static", protocol="ringcast", num_nodes=40, fanout=2
        )
        bogus = TrialSpec.from_dict(
            {**spec.to_dict(), "scenario": "warp-drive"}
        )
        with pytest.raises(ConfigurationError):
            run_trial(bogus, BASE, 5)

    def test_catastrophic_trial_kills_nodes(self):
        spec = TrialSpec(
            scenario="catastrophic",
            protocol="ringcast",
            num_nodes=40,
            fanout=3,
            kill_fraction=0.1,
            num_messages=2,
        )
        result = run_trial(spec, BASE, 5)
        assert result.extras_dict["killed"] == 4.0

    def test_multi_message_trial_reports_load(self):
        spec = TrialSpec(
            scenario="multi_message",
            protocol="ringcast",
            num_nodes=40,
            fanout=3,
            num_messages=2,
            concurrent_messages=4,
        )
        result = run_trial(spec, BASE, 5)
        extras = result.extras_dict
        # num_messages batches of concurrent_messages each.
        assert result.runs == 2 * 4
        assert extras["concurrent_messages"] == 4.0
        assert extras["max_node_load"] >= extras["mean_node_load"] > 0

    def test_multi_message_num_messages_has_effect(self):
        kwargs = dict(
            scenario="multi_message",
            protocol="ringcast",
            num_nodes=40,
            fanout=3,
            concurrent_messages=3,
        )
        one = run_trial(TrialSpec(num_messages=1, **kwargs), BASE, 5)
        three = run_trial(TrialSpec(num_messages=3, **kwargs), BASE, 5)
        assert one.runs == 3
        assert three.runs == 9

    def test_pull_churn_trial_recovers_misses(self):
        config = BASE.with_overrides(
            churn_rate=0.02, churn_max_cycles=200
        )
        spec = TrialSpec(
            scenario="pull_churn",
            protocol="randcast",
            num_nodes=40,
            fanout=2,
            churn_rate=0.02,
            num_messages=2,
        )
        result = run_trial(spec, config, 5)
        extras = result.extras_dict
        assert extras["pull_final_hit_ratio"] >= 1.0 - result.mean_miss_ratio
        assert extras["churn_cycles"] > 0
        assert "pull_rounds" in extras

    def test_custom_scenario_can_be_registered(self):
        def fake_executor(spec, config, registry):
            return TrialResult(
                spec=spec,
                runs=1,
                mean_miss_ratio=0.0,
                complete_fraction=1.0,
                mean_hops=0.0,
                max_hops=0,
                mean_msgs_virgin=0.0,
                mean_msgs_redundant=0.0,
                mean_msgs_to_dead=0.0,
                mean_total_messages=0.0,
            )

        register_scenario("fake", fake_executor)
        try:
            spec = TrialSpec(
                scenario="fake",
                protocol="ringcast",
                num_nodes=40,
                fanout=1,
            )
            assert run_trial(spec, BASE, 5).complete_fraction == 1.0
        finally:
            import repro.experiments.scenario_matrix as matrix

            del matrix._SCENARIOS["fake"]

    def test_registered_scenario_runs_in_worker_pool(self):
        # Executors are resolved in the parent and shipped with each
        # job, so runtime-registered scenarios work even when workers
        # don't inherit the parent's registry (spawn/forkserver).
        register_scenario("noop", _noop_executor)
        try:
            grid = flat_spec(
                scenarios=("noop",),
                protocols=("ringcast",),
                num_nodes=(40,),
                fanouts=(1, 2),
                replicates=1,
            )
            result = run_sweep(
                grid, base_config=BASE, root_seed=5, workers=2
            )
            assert len(result.trials) == 2
            assert all(
                t.complete_fraction == 1.0 for t in result.trials
            )
        finally:
            import repro.experiments.scenario_matrix as matrix

            del matrix._SCENARIOS["noop"]


class TestRunSweep:
    def test_result_covers_grid(self):
        result = small_sweep()
        assert len(result.trials) == len(SMALL_GRID.expand())
        assert result.scenarios() == ("static",)
        assert result.protocols() == ("randcast", "ringcast")
        cell = result.cell("static", "ringcast", 40, 3)
        assert cell.replicates == 2

    def test_worker_count_does_not_change_bytes(self):
        serial = small_sweep(workers=1)
        parallel = small_sweep(workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            small_sweep(workers=0)

    def test_progress_reports_every_trial(self):
        events = []
        small_sweep(
            progress=lambda key, secs, cached: events.append(
                (key, cached)
            )
        )
        assert len(events) == len(SMALL_GRID.expand())
        assert all(not cached for _key, cached in events)

    def test_json_roundtrip(self):
        result = small_sweep()
        clone = SweepResult.from_json(result.to_json())
        assert clone == result
        assert clone.to_json() == result.to_json()

    def test_from_json_rejects_unknown_format(self):
        result = small_sweep()
        payload = json.loads(result.to_json())
        payload["format"] = 999
        with pytest.raises(ValueError, match="format"):
            SweepResult.from_json(json.dumps(payload))

    def test_save_and_load(self, tmp_path):
        result = small_sweep()
        path = result.save(tmp_path / "out" / "sweep.json")
        assert SweepResult.load(path) == result

    def test_effectiveness_figure_bridge(self):
        result = small_sweep()
        figure = effectiveness_figure(result, "static", 40)
        assert figure.fanouts == (2, 3)
        assert len(figure.miss_percent("randcast")) == 2
        # RINGCAST on a converged static ring misses nobody.
        assert figure.miss_percent("ringcast") == [0.0, 0.0]
        with pytest.raises(KeyError):
            effectiveness_figure(result, "churn", 40)

    def _multi_fraction_sweep(self):
        grid = flat_spec(
            scenarios=("catastrophic",),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(3,),
            replicates=1,
            num_messages=2,
            kill_fractions=(0.05, 0.1),
        )
        return run_sweep(grid, base_config=BASE, root_seed=5)

    def test_multi_fraction_cell_lookup_requires_filter(self):
        result = self._multi_fraction_sweep()
        with pytest.raises(KeyError, match="ambiguous"):
            result.cell("catastrophic", "ringcast", 40, 3)
        cell = result.cell(
            "catastrophic", "ringcast", 40, 3, kill_fraction=0.1
        )
        assert cell.kill_fraction == 0.1
        assert cell.extras_dict["killed"] == 4.0

    def test_multi_fraction_figure_requires_filter(self):
        result = self._multi_fraction_sweep()
        with pytest.raises(KeyError, match="ambiguous"):
            effectiveness_figure(result, "catastrophic", 40)
        figure = effectiveness_figure(
            result, "catastrophic", 40, kill_fraction=0.05
        )
        assert figure.fanouts == (3,)

    def test_multi_fraction_rows_labelled_in_render(self):
        from repro.experiments.report import render_sweep

        text = render_sweep(self._multi_fraction_sweep())
        assert "kill%" in text
        lines = [
            line for line in text.splitlines() if "ringcast" in line
        ]
        assert len(lines) == 2
        assert any(" 5 " in line for line in lines)
        assert any(" 10 " in line for line in lines)


class TestSweepCache:
    def test_cache_files_written_and_reused(self, tmp_path):
        events = []
        first = small_sweep(cache_dir=tmp_path)
        cached_files = list(tmp_path.glob("trial_*.json"))
        assert len(cached_files) == len(SMALL_GRID.expand())
        second = small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert all(events) and len(events) == len(SMALL_GRID.expand())
        assert first.to_json() == second.to_json()

    def test_partial_cache_resumes(self, tmp_path):
        small_sweep(cache_dir=tmp_path)
        victims = sorted(tmp_path.glob("trial_*.json"))[:3]
        for victim in victims:
            victim.unlink()
        events = []
        resumed = small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events.count(False) == 3
        assert resumed.to_json() == small_sweep().to_json()

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        small_sweep(cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("trial_*.json"))[0]
        victim.write_text("{not json", encoding="utf-8")
        resumed = small_sweep(cache_dir=tmp_path)
        assert resumed.to_json() == small_sweep().to_json()
        # The corrupt entry was rewritten with a valid payload.
        json.loads(victim.read_text(encoding="utf-8"))

    def test_truncated_cache_entry_recomputed(self, tmp_path):
        # A crash mid-write leaves a prefix of valid JSON; it must be
        # treated as a miss and re-run, not crash the sweep.
        small_sweep(cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("trial_*.json"))[1]
        text = victim.read_text(encoding="utf-8")
        victim.write_text(text[: len(text) // 2], encoding="utf-8")
        events = []
        resumed = small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events.count(False) == 1
        assert resumed.to_json() == small_sweep().to_json()

    def test_wrong_shape_cache_entry_recomputed(self, tmp_path):
        # Valid JSON of the wrong shape (array / scalar / result that
        # is not an object) must be a miss, not an AttributeError.
        small_sweep(cache_dir=tmp_path)
        victims = sorted(tmp_path.glob("trial_*.json"))[:3]
        good = json.loads(victims[2].read_text(encoding="utf-8"))
        good["result"] = [1, 2, 3]
        victims[0].write_text("[1, 2, 3]", encoding="utf-8")
        victims[1].write_text("42", encoding="utf-8")
        victims[2].write_text(json.dumps(good), encoding="utf-8")
        events = []
        resumed = small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events.count(False) == 3
        assert resumed.to_json() == small_sweep().to_json()

    def test_non_finite_cache_entry_recomputed(self, tmp_path):
        # json.loads parses NaN/Infinity; one poisoned trial would turn
        # every mean and CI it touches into NaN. Reject and re-run.
        small_sweep(cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("trial_*.json"))[0]
        payload = json.loads(victim.read_text(encoding="utf-8"))
        payload["result"]["mean_miss_ratio"] = float("nan")
        victim.write_text(json.dumps(payload), encoding="utf-8")
        events = []
        resumed = small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events.count(False) == 1
        clean = resumed.to_json()
        assert clean == small_sweep().to_json()
        assert "NaN" not in clean

    @pytest.mark.parametrize("defect", sorted(FILE_DEFECTS))
    def test_each_defect_class_is_a_miss(self, tmp_path, defect):
        """The shared layer's defect classes (fuzzed in test_castore),
        once each through the trial cache's public loader."""
        spec = SMALL_GRID.expand()[0]
        path = store_trial(tmp_path, run_trial(spec, BASE, 5), root_seed=5)
        path.write_bytes(FILE_DEFECTS[defect](path.read_bytes(), None))
        assert load_cached_trial(tmp_path, spec, 5) is None

    def test_concurrent_writers_of_one_trial(self, tmp_path):
        """Two sweeps over overlapping grids sharing ``--cache DIR``
        finish the same trial at once; with a shared temp-file name the
        loser's rename raised FileNotFoundError."""
        spec = SMALL_GRID.expand()[0]
        result = run_trial(spec, BASE, 5)
        errors = hammer(
            lambda: store_trial(tmp_path, result, root_seed=5),
            writers=2,
            rounds=1500,
        )
        assert errors == []
        assert load_cached_trial(tmp_path, spec, 5) == result
        assert [p.name for p in tmp_path.iterdir()] == [
            trial_cache_path(tmp_path, spec, 5).name
        ]

    def test_cache_ignores_other_root_seed(self, tmp_path):
        spec = SMALL_GRID.expand()[0]
        result = run_trial(spec, BASE, 5)
        store_trial(tmp_path, result, root_seed=5)
        assert load_cached_trial(tmp_path, spec, 5) == result
        assert load_cached_trial(tmp_path, spec, 6) is None

    def test_cache_keyed_on_effective_config(self, tmp_path):
        # A smoke run (short warm-up) must not be served back when the
        # sweep is re-run with a different base config.
        smoke = small_sweep(cache_dir=tmp_path)
        events = []
        full = run_sweep(
            SMALL_GRID,
            base_config=BASE.with_overrides(warmup_cycles=30),
            root_seed=5,
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert not any(events)  # every trial recomputed
        assert full.to_json() != smoke.to_json()
        # Both configs' caches now coexist; re-running either is free.
        rerun_events = []
        small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: rerun_events.append(
                cached
            ),
        )
        assert all(rerun_events)

    def test_interrupted_sweep_keeps_finished_trials(self, tmp_path):
        # Each trial must hit the cache the moment it completes, so a
        # crash mid-sweep resumes from the finished prefix. Simulate
        # the interrupt by blowing up in the progress hook after two
        # completions.
        class Interrupt(RuntimeError):
            pass

        calls = []

        def explode(key, secs, cached):
            calls.append(key)
            if len(calls) == 2:
                raise Interrupt()

        with pytest.raises(Interrupt):
            small_sweep(cache_dir=tmp_path, progress=explode)
        survivors = list(tmp_path.glob("trial_*.json"))
        assert len(survivors) == 2
        events = []
        resumed = small_sweep(
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events.count(True) == 2
        assert resumed.to_json() == small_sweep().to_json()

    def test_cache_path_stable(self, tmp_path):
        spec = SMALL_GRID.expand()[0]
        assert trial_cache_path(tmp_path, spec, 5) == trial_cache_path(
            tmp_path, spec, 5
        )
        assert trial_cache_path(tmp_path, spec, 5) != trial_cache_path(
            tmp_path, spec, 6
        )


def _noop_executor(spec, config, registry):
    """Module-level so it pickles into worker processes."""
    return TrialResult(
        spec=spec,
        runs=1,
        mean_miss_ratio=0.0,
        complete_fraction=1.0,
        mean_hops=0.0,
        max_hops=0,
        mean_msgs_virgin=0.0,
        mean_msgs_redundant=0.0,
        mean_msgs_to_dead=0.0,
        mean_total_messages=0.0,
    )


class TestAggregation:
    def _trial(self, replicate, miss, msgs):
        spec = TrialSpec(
            scenario="static",
            protocol="ringcast",
            num_nodes=40,
            fanout=3,
            replicate=replicate,
        )
        return TrialResult(
            spec=spec,
            runs=2,
            mean_miss_ratio=miss,
            complete_fraction=1.0 if miss == 0.0 else 0.0,
            mean_hops=4.0,
            max_hops=5 + replicate,
            mean_msgs_virgin=30.0,
            mean_msgs_redundant=5.0,
            mean_msgs_to_dead=0.0,
            mean_total_messages=msgs,
            extras=(("churn_cycles", 100.0 + replicate),),
        )

    def test_mean_and_ci(self):
        cells = summarize_cells(
            [self._trial(0, 0.1, 100.0), self._trial(1, 0.3, 120.0)]
        )
        assert len(cells) == 1
        cell = cells[0]
        assert cell.replicates == 2
        assert cell.mean_miss_ratio == pytest.approx(0.2)
        # Student-t (df=1) on the sample stddev: 12.706 * s / sqrt(2)
        # with s = sqrt(((0.1-0.2)^2 + (0.3-0.2)^2) / 1).
        assert cell.ci95_miss_ratio == pytest.approx(
            12.706 * (0.02**0.5) / (2**0.5)
        )
        assert cell.mean_total_messages == pytest.approx(110.0)
        assert cell.max_hops == 6
        assert cell.extras_dict["churn_cycles"] == pytest.approx(100.5)

    def test_single_replicate_has_zero_ci(self):
        cell = summarize_cells([self._trial(0, 0.1, 100.0)])[0]
        assert cell.ci95_miss_ratio == 0.0
        assert cell.ci95_total_messages == 0.0

    def test_canonical_json_is_sorted_and_stable(self):
        payload = {"b": 1, "a": [2, 1], "c": {"y": 0.5, "x": 1.0}}
        text = canonical_json(payload)
        assert text == canonical_json(json.loads(text))
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')


# ----------------------------------------------------------------------
# property-based invariants of spec/grid plumbing
# ----------------------------------------------------------------------

_spec_strategy = st.builds(
    TrialSpec,
    scenario=st.sampled_from(scenario_names()),
    protocol=st.sampled_from(("randcast", "ringcast", "multiring")),
    num_nodes=st.integers(min_value=3, max_value=10_000),
    fanout=st.integers(min_value=1, max_value=30),
    replicate=st.integers(min_value=0, max_value=99),
    num_messages=st.integers(min_value=1, max_value=50),
    kill_fraction=st.sampled_from((0.0, 0.01, 0.05, 0.1)),
    churn_rate=st.sampled_from((0.0, 0.002, 0.01)),
    concurrent_messages=st.integers(min_value=1, max_value=16),
)

_SPEC_SETTINGS = settings(max_examples=80, deadline=None)


class TestSpecProperties:
    @_SPEC_SETTINGS
    @given(spec=_spec_strategy)
    def test_dict_roundtrip(self, spec):
        assert TrialSpec.from_dict(spec.to_dict()) == spec

    @_SPEC_SETTINGS
    @given(first=_spec_strategy, second=_spec_strategy)
    def test_key_injective(self, first, second):
        # The RNG-derivation key must collide only for equal specs:
        # two distinct trials sharing a key would share randomness.
        if first != second:
            assert first.key != second.key
        else:
            assert first.key == second.key

    @_SPEC_SETTINGS
    @given(spec=_spec_strategy)
    def test_cell_drops_only_replicate(self, spec):
        sibling = TrialSpec.from_dict(
            {**spec.to_dict(), "replicate": spec.replicate + 1}
        )
        assert spec.cell == sibling.cell
        assert spec.key != sibling.key
