"""Tests for the package's public surface: exports, doctests, metadata.

A downstream user's first contact is ``import repro`` and the README
snippets; these tests keep that contract stable.
"""

import doctest
import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "7.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_names_removed_in_2_0_0_are_gone(self):
        import repro.experiments.sweep
        import repro.experiments.sweep_spec

        for module in (repro, repro.experiments, repro.experiments.sweep):
            assert not hasattr(module, "SweepGrid"), module.__name__
            assert "SweepGrid" not in module.__all__
        assert not hasattr(
            repro.experiments.sweep_spec, "LEGACY_FLAT_DEFAULTS"
        )

    def test_names_removed_in_3_0_0_are_gone(self):
        import repro.dissemination

        for name in ("EventDisseminationResult", "MessageStore"):
            assert not hasattr(repro.dissemination, name)
            assert name not in repro.dissemination.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.dissemination.store")

    def test_names_removed_in_4_0_0_are_gone(self):
        import repro.experiments.figures
        import repro.experiments.sweep
        import repro.experiments.sweep_backends
        import repro.net.wire

        for module, name in (
            (repro.experiments, "execute_jobs"),
            (repro.experiments.sweep, "execute_jobs"),
            (repro.experiments.figures, "clear_caches"),
            (repro.experiments.figures, "warm_cache"),
            (repro.net.wire, "parse_endpoint"),
        ):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__
        for backend in ("SweepBackend", "InlineBackend", "ProcessPoolBackend"):
            cls = getattr(repro.experiments.sweep_backends, backend)
            assert not hasattr(cls, "run_jobs"), backend
        with pytest.raises(ImportError):
            importlib.import_module("repro.experiments.runner")

    def test_names_removed_in_5_0_0_are_gone(self, capsys):
        import inspect

        import repro.experiments.scenario_matrix as matrix
        import repro.experiments.scenarios as scenarios
        import repro.experiments.sweep as sweep
        import repro.experiments.sweep_backends as backends
        import repro.failures
        from repro import api
        from repro.cli import main
        from repro.experiments.history import history_mode

        for module, name in (
            (scenarios, "DISSEMINATION_CORES"),
            (scenarios, "resolve_core"),
            (matrix, "current_core"),
            (matrix, "_CORE_CONTEXT"),
            (repro.failures, "LifetimeStats"),
            (repro.failures.lifetimes, "LifetimeStats"),
        ):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ())
        # The dissemination core is no longer an option anywhere.
        for function in (
            api.run_sweep,
            api.run_adaptive_sweep,
            sweep.run_sweep,
            scenarios.sweep_snapshot,
            matrix.execute_trial,
            matrix.run_trial,
            backends.run_timed_trial,
            backends.run_timed_trial_group,
            backends.SweepBackend.run_trials,
            backends.InlineBackend.run_trials,
            backends.ProcessPoolBackend.run_trials,
            backends.SocketWorkerBackend.run_trials,
        ):
            parameters = inspect.signature(function).parameters
            assert "core" not in parameters, function.__qualname__
        # Only the history identity keeps it: stored addresses hash it.
        assert history_mode()["core"] == "auto"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--core", "array"])
        assert excinfo.value.code == 2
        assert "--core" in capsys.readouterr().err

    def test_names_removed_in_6_0_0_are_gone(self):
        import repro.experiments.scenarios as scenarios
        import repro.failures
        from repro import api

        # ScenarioRuns is the one scenario runner.
        for module in (scenarios, repro.experiments, api):
            for name in (
                "run_static_scenario",
                "run_catastrophic_scenario",
                "run_churn_scenario",
            ):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in getattr(module, "__all__", ())
        for name in ("TraceChurn", "SyntheticSessionTrace"):
            assert not hasattr(repro.failures, name)
            assert name not in repro.failures.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.failures.traces")

    def test_names_removed_in_7_0_0_are_gone(self):
        import repro.failures
        import repro.sim

        # The async gossip driver keeps its own timer heap.
        for name in ("Event", "EventEngine", "EventQueue", "SimClock"):
            assert not hasattr(repro.sim, name), f"repro.sim.{name}"
            assert name not in repro.sim.__all__
        assert not hasattr(repro.failures, "kill_random_fraction")
        assert "kill_random_fraction" not in repro.failures.__all__
        for module_name in (
            "repro.sim.engine",
            "repro.sim.events",
            "repro.sim.clock",
            "repro.failures.catastrophic",
        ):
            with pytest.raises(ImportError):
                importlib.import_module(module_name)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.common",
            "repro.sim",
            "repro.graphs",
            "repro.membership",
            "repro.dissemination",
            "repro.failures",
            "repro.metrics",
            "repro.experiments",
            "repro.extensions",
            "repro.pubsub",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.common.rng",
            "repro.membership.ring_ids",
            "repro.experiments.sweep",
            "repro.experiments.sweep_spec",
            "repro.metrics.aggregate",
            "repro.metrics.load",
            "repro.graphs.generators",
        ],
    )
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        failures, tested = doctest.testmod(
            module, verbose=False
        ).failed, doctest.testmod(module, verbose=False).attempted
        assert failures == 0
        assert tested > 0


class TestReadmeContract:
    """The README's quickstart snippet, executed verbatim-ish."""

    def test_quickstart_snippet(self):
        from repro import build_overlay, disseminate

        snapshot = build_overlay(
            num_nodes=120, protocol="ringcast", seed=7, warmup_cycles=50
        )
        result = disseminate(snapshot, fanout=3, seed=1)
        assert result.hit_ratio == 1.0
        assert result.total_messages == 3 * 120

    def test_docstring_example_in_package(self):
        # The module docstring promises hit_ratio 1.0 for this config.
        snapshot = repro.build_overlay(
            num_nodes=200, protocol="ringcast", seed=1, warmup_cycles=60
        )
        assert repro.disseminate(snapshot, fanout=3, seed=2).hit_ratio == 1.0
