"""Tests for the array-native dissemination core (:mod:`repro.arraysim`).

Pins the PR's load-bearing contracts:

* **Compat equivalence** — handed a :class:`random.Random`, the array
  core replays the object executor's draw sequence and returns
  *bit-identical* :class:`DisseminationResult`\\ s, for all three
  policies, over adversarial hypothesis-generated snapshots and over
  really-built overlays.
* **Fast-path exactness where possible** — handed a numpy Generator,
  flooding (which never draws) still matches the object core exactly;
  the randomised policies satisfy the full structural invariant set and
  are deterministic per seed.
* **Codec round-trip + hardening** — ``.npz`` payloads decode back to
  semantically identical snapshots (dissemination over the rebuilt
  snapshot draws identically); truncated, corrupt, or wrong-format
  payloads raise :class:`SnapshotCodecError`, never garbage overlays.
* **Core selection** — one rule, :func:`repro.arraysim.uses_array_core`:
  the array core runs from ``ARRAY_CORE_MIN_NODES`` alive nodes up and
  never for a foreign policy; seed-scale sweeps stay on the object core,
  and array- and object-core trials live in separate cache universes
  (the threshold is monkeypatched below N to drive a sweep onto the
  array core).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.arraysim
import repro.experiments.scenarios as scenarios
from repro.arraysim import (
    ARRAY_CORE_MIN_NODES,
    ArrayOverlay,
    SnapshotCodecError,
    decode_snapshot,
    disseminate as array_disseminate,
    disseminate_many,
    encode_snapshot,
    supports_policy,
    uses_array_core,
)
from repro.arraysim.codec import decode_overlay
from repro.common.errors import ConfigurationError
from repro.dissemination.executor import disseminate as object_disseminate
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
    TargetPolicy,
    policy_for_snapshot,
)
from repro import api
from repro.common.rng import RngRegistry
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import flat_spec
from tests.conftest import build_snapshot

POLICIES = (FloodingPolicy(), RandCastPolicy(), RingCastPolicy())


def random_snapshot(rng: random.Random, n: int) -> OverlaySnapshot:
    """An adversarial snapshot: sparse IDs, dead links, dupes, empty
    views, partially-dead population — everything the paper's frozen
    overlays can legally contain."""
    ids = rng.sample(range(n * 3), n)
    rlinks = {}
    dlinks = {}
    for i in ids:
        rl = rng.randint(0, 6)
        if rl or rng.random() < 0.3:
            rlinks[i] = tuple(rng.choice(ids) for _ in range(rl))
        dl = rng.randint(0, 3)
        if dl or rng.random() < 0.2:
            dlinks[i] = tuple(rng.choice(ids) for _ in range(dl))
    alive = [i for i in ids if rng.random() < 0.8] or [ids[0]]
    return OverlaySnapshot(
        kind="ringcast",
        rlinks=rlinks,
        dlinks=dlinks,
        alive_ids=tuple(sorted(alive)),
        ring_ids={},
        join_cycles={},
        frozen_at_cycle=0,
    )


# ----------------------------------------------------------------------
# compat mode: bit-identical replay of the object core
# ----------------------------------------------------------------------


class TestCompatEquivalence:
    @given(case=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_exact_result_equality_on_random_snapshots(self, case):
        """ISSUE acceptance: EXACT DisseminationResult match between
        cores when both consume the same ``random.Random`` stream."""
        rng = random.Random(case)
        snapshot = random_snapshot(rng, rng.randint(2, 40))
        policy = POLICIES[case % 3]
        fanout = rng.randint(1, 5)
        origin = rng.choice(snapshot.alive_ids)
        collect_load = case % 2 == 0
        reference = object_disseminate(
            snapshot,
            policy,
            fanout,
            origin,
            random.Random(case),
            collect_load=collect_load,
        )
        mirrored = array_disseminate(
            snapshot,
            policy,
            fanout,
            origin,
            random.Random(case),
            collect_load=collect_load,
        )
        assert mirrored == reference

    @pytest.mark.parametrize(
        "kind", ["ringcast", "randcast", "domain_ring"]
    )
    def test_exact_on_built_overlays(self, kind):
        snapshot = build_snapshot(kind, num_nodes=60, warmup=20)
        policy = policy_for_snapshot(snapshot)
        for seed in range(3):
            origin = snapshot.alive_ids[seed * 7 % len(snapshot.alive_ids)]
            reference = object_disseminate(
                snapshot, policy, 3, origin, random.Random(seed)
            )
            mirrored = array_disseminate(
                snapshot, policy, 3, origin, random.Random(seed)
            )
            assert mirrored == reference


# ----------------------------------------------------------------------
# fast mode: numpy Generator batches
# ----------------------------------------------------------------------


class TestFastPath:
    def test_flooding_is_exact(self):
        """Flooding never draws, so even the fast path must equal the
        object core bit for bit — per message, in batch."""
        for case in range(40):
            rng = random.Random(7000 + case)
            snapshot = random_snapshot(rng, rng.randint(2, 40))
            overlay = ArrayOverlay.from_snapshot(snapshot)
            origins = [rng.choice(snapshot.alive_ids) for _ in range(2)]
            collect_load = case % 2 == 0
            generator = np.random.Generator(np.random.PCG64(case))
            batch = disseminate_many(
                overlay,
                FloodingPolicy(),
                3,
                origins,
                generator,
                collect_load=collect_load,
            )
            for origin, fast in zip(origins, batch):
                reference = object_disseminate(
                    snapshot,
                    FloodingPolicy(),
                    3,
                    origin,
                    random.Random(0),
                    collect_load=collect_load,
                )
                assert fast == reference

    def test_structural_invariants(self):
        """Every accounting identity the object core guarantees must
        hold for the vectorized randomised policies too."""
        for case in range(60):
            rng = random.Random(5000 + case)
            snapshot = random_snapshot(rng, rng.randint(2, 40))
            overlay = ArrayOverlay.from_snapshot(snapshot)
            policy = POLICIES[case % 3]
            fanout = rng.randint(1, 5)
            origins = [rng.choice(snapshot.alive_ids) for _ in range(3)]
            generator = np.random.Generator(np.random.PCG64(case))
            batch = disseminate_many(
                overlay, policy, fanout, origins, generator,
                collect_load=True,
            )
            for origin, result in zip(origins, batch):
                alive = set(snapshot.alive_ids)
                missed = set(result.missed_ids)
                assert result.origin == origin
                assert result.population == len(alive)
                assert result.notified == result.population - len(missed)
                assert result.notified == sum(result.per_hop_new)
                assert result.per_hop_new[0] == 1
                assert result.hops == len(result.per_hop_new) - 1
                assert missed <= alive
                assert list(result.missed_ids) == [
                    i for i in snapshot.alive_ids if i in missed
                ]
                assert result.msgs_virgin == result.notified - 1
                assert sum(result.sent_per_node.values()) == (
                    result.msgs_virgin
                    + result.msgs_redundant
                    + result.msgs_to_dead
                )
                assert sum(result.received_per_node.values()) == (
                    result.msgs_virgin + result.msgs_redundant
                )
                assert all(
                    count > 0
                    for count in result.received_per_node.values()
                )
                assert set(result.sent_per_node) <= alive
                assert set(result.received_per_node) <= alive

    def test_fast_path_is_deterministic_per_seed(self):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        overlay = ArrayOverlay.from_snapshot(snapshot)
        origins = list(snapshot.alive_ids[:5])
        runs = [
            disseminate_many(
                overlay,
                RingCastPolicy(),
                3,
                origins,
                np.random.Generator(np.random.PCG64(99)),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# codec: .npz round-trip and hardening
# ----------------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize(
        "kind", ["ringcast", "randcast", "domain_ring"]
    )
    def test_roundtrip_preserves_dissemination(self, kind):
        """Decoded snapshots must draw identically to the originals —
        the store's byte-identity guarantee rides on this."""
        snapshot = build_snapshot(kind, num_nodes=60, warmup=20)
        rebuilt = decode_snapshot(encode_snapshot(snapshot))
        assert rebuilt.kind == snapshot.kind
        assert rebuilt.alive_ids == snapshot.alive_ids
        assert rebuilt.rlinks == snapshot.rlinks
        assert rebuilt.dlinks == snapshot.dlinks
        assert rebuilt.frozen_at_cycle == snapshot.frozen_at_cycle
        policy = policy_for_snapshot(snapshot)
        origin = snapshot.alive_ids[3]
        assert object_disseminate(
            rebuilt, policy, 3, origin, random.Random(4)
        ) == object_disseminate(
            snapshot, policy, 3, origin, random.Random(4)
        )

    def test_roundtrip_preserves_lifetimes(self):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        rebuilt = decode_snapshot(encode_snapshot(snapshot))
        # The codec canonicalises zero entries away; lifetime_of is the
        # only post-freeze consumer and defaults them to zero anyway.
        assert all(
            rebuilt.lifetime_of(node) == snapshot.lifetime_of(node)
            for node in snapshot.alive_ids
        )

    def test_truncation_is_rejected(self):
        payload = encode_snapshot(
            build_snapshot("ringcast", num_nodes=60, warmup=20)
        )
        for cut in (0, 1, 10, len(payload) // 2, len(payload) - 3):
            with pytest.raises(SnapshotCodecError):
                decode_snapshot(payload[:cut])

    def test_garbage_is_rejected(self):
        for garbage in (b"", b"not-a-zip", b"PK\x03\x04broken"):
            with pytest.raises(SnapshotCodecError):
                decode_snapshot(garbage)

    def test_missing_arrays_are_rejected(self):
        import io

        buffer = io.BytesIO()
        np.savez_compressed(buffer, ids=np.arange(4, dtype=np.int64))
        with pytest.raises(SnapshotCodecError):
            decode_snapshot(buffer.getvalue())

    def test_corrupt_extents_are_rejected(self):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        overlay = ArrayOverlay.from_snapshot(snapshot)
        broken = ArrayOverlay(
            kind=overlay.kind,
            ids=overlay.ids,
            alive=overlay.alive,
            alive_order=overlay.alive_order,
            r_indptr=overlay.r_indptr[:-1],  # CSR extents now lie
            r_targets=overlay.r_targets,
            d_indptr=overlay.d_indptr,
            d_targets=overlay.d_targets,
            ring_ids=overlay.ring_ids,
            join_cycles=overlay.join_cycles,
            frozen_at_cycle=overlay.frozen_at_cycle,
            r_haskey=overlay.r_haskey,
            d_haskey=overlay.d_haskey,
        )
        with pytest.raises(SnapshotCodecError):
            decode_overlay(encode_snapshot(broken))


# ----------------------------------------------------------------------
# core selection
# ----------------------------------------------------------------------


class _ForeignPolicy(TargetPolicy):
    name = "foreign"

    def select_targets(self, snapshot, node_id, sender_id, fanout, rng):
        return []


@pytest.fixture
def chosen_core(monkeypatch):
    """Which executor ``sweep_snapshot`` picks for a snapshot, with
    both executors stubbed out so a 50k-node overlay costs nothing."""
    monkeypatch.setattr(
        scenarios, "_sweep_snapshot_array", lambda *args: "array"
    )
    monkeypatch.setattr(scenarios, "disseminate", lambda *a, **k: None)
    config = ExperimentConfig(num_messages=1, fanouts=(3,))

    def choose(snapshot, policy=None):
        sweep = scenarios.sweep_snapshot(
            snapshot, config, RngRegistry(1), policy=policy
        )
        return "array" if sweep == "array" else "object"

    return choose


class TestCoreSelection:
    def test_array_rejects_foreign_policy(self):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        assert not supports_policy(_ForeignPolicy())
        assert not uses_array_core(10 * ARRAY_CORE_MIN_NODES, _ForeignPolicy())
        with pytest.raises(ConfigurationError):
            disseminate_many(
                snapshot,
                _ForeignPolicy(),
                2,
                (snapshot.alive_ids[0],),
                np.random.default_rng(1),
            )

    def test_auto_respects_threshold(self, monkeypatch, chosen_core):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        assert chosen_core(snapshot, RingCastPolicy()) == "object"
        assert not uses_array_core(snapshot.population)
        monkeypatch.setattr(
            repro.arraysim, "ARRAY_CORE_MIN_NODES", 10
        )
        assert chosen_core(snapshot, RingCastPolicy()) == "array"
        assert uses_array_core(snapshot.population)
        # Foreign policies silently stay on the reference core.
        assert chosen_core(snapshot, _ForeignPolicy()) == "object"


def boundary_snapshot(num_alive: int, dead: int = 0) -> OverlaySnapshot:
    """A synthetic ring overlay sized to probe the real ``auto``
    threshold without paying for a 50k-node warm-up. Dead nodes (the
    highest IDs) keep their links in the tables but are absent from
    ``alive_ids`` — exactly what freezing a churned overlay produces."""
    total = num_alive + dead
    rlinks = {}
    dlinks = {}
    for i in range(total):
        rlinks[i] = ((i + 1) % total, (i + 7) % total, (i + 131) % total)
        dlinks[i] = ((i + 1) % total, (i - 1) % total)
    return OverlaySnapshot(
        kind="ringcast",
        rlinks=rlinks,
        dlinks=dlinks,
        alive_ids=tuple(range(num_alive)),
    )


class TestAutoThresholdBoundary:
    """The ``auto`` core switch at exactly ARRAY_CORE_MIN_NODES alive
    nodes — the real constant, not a monkeypatched stand-in."""

    def test_one_below_threshold_stays_object(self, chosen_core):
        snapshot = boundary_snapshot(ARRAY_CORE_MIN_NODES - 1)
        assert chosen_core(snapshot) == "object"
        assert not uses_array_core(ARRAY_CORE_MIN_NODES - 1)

    def test_exactly_at_threshold_goes_array(self, chosen_core):
        snapshot = boundary_snapshot(ARRAY_CORE_MIN_NODES)
        assert chosen_core(snapshot) == "array"
        assert uses_array_core(ARRAY_CORE_MIN_NODES, RingCastPolicy())

    def test_threshold_counts_alive_nodes_not_table_rows(self, chosen_core):
        # 500 dead nodes inflate the link tables past the threshold,
        # but population is ALIVE nodes: the switch must not trip early.
        below = boundary_snapshot(ARRAY_CORE_MIN_NODES - 1, dead=500)
        assert below.population == ARRAY_CORE_MIN_NODES - 1
        assert chosen_core(below) == "object"
        at = boundary_snapshot(ARRAY_CORE_MIN_NODES, dead=500)
        assert chosen_core(at) == "array"

    def test_cores_agree_exactly_at_the_boundary(self):
        # Crossing the threshold changes the engine, so it must not
        # change the numbers: both cores consume one random.Random
        # stream identically on the first snapshot that auto-selects
        # the array core.
        snapshot = boundary_snapshot(ARRAY_CORE_MIN_NODES, dead=97)
        policy = policy_for_snapshot(snapshot)
        reference = object_disseminate(
            snapshot, policy, 3, 12345, random.Random(42)
        )
        mirrored = array_disseminate(
            snapshot, policy, 3, 12345, random.Random(42)
        )
        assert mirrored == reference
        assert reference.notified == snapshot.population


SMALL_GRID = flat_spec(
    scenarios=("static",),
    protocols=("ringcast",),
    num_nodes=(40,),
    fanouts=(2,),
    replicates=1,
    num_messages=2,
)
SMALL_BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)


@pytest.fixture
def array_scale(monkeypatch):
    """Drop the threshold below SMALL_GRID's 40 nodes and count the
    array core's batches, so a sweep provably runs on it."""
    batches = []
    real = repro.arraysim.disseminate_many

    def counted(*args, **kwargs):
        batches.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.arraysim, "disseminate_many", counted)
    monkeypatch.setattr(repro.arraysim, "ARRAY_CORE_MIN_NODES", 10)
    return batches


def sweep_with_cache_hits(cache_dir=None):
    """Run SMALL_GRID; return the result and how many trials the trial
    cache served."""
    hits = []
    result = run_sweep(
        SMALL_GRID,
        base_config=SMALL_BASE,
        root_seed=5,
        cache_dir=cache_dir,
        progress=lambda _key, _seconds, cached: hits.append(cached),
    )
    return result, sum(hits)


class TestSweepCoreWiring:
    def test_default_matches_forced_object_at_seed_scale(self, monkeypatch):
        """Seed-scale sweeps run on the object core, so the committed
        goldens stay its bytes: the same sweep with the array core
        made unreachable is byte-identical."""
        default = run_sweep(SMALL_GRID, base_config=SMALL_BASE, root_seed=5)
        monkeypatch.setattr(
            scenarios,
            "_sweep_snapshot_array",
            lambda *args: pytest.fail("array core ran at seed scale"),
        )
        object_only = run_sweep(
            SMALL_GRID, base_config=SMALL_BASE, root_seed=5
        )
        assert default.to_json() == object_only.to_json()

    def test_forced_array_runs_and_is_deterministic(self, array_scale):
        first = run_sweep(SMALL_GRID, base_config=SMALL_BASE, root_seed=5)
        assert array_scale == [2]  # one batch at the grid's one fanout
        second = run_sweep(SMALL_GRID, base_config=SMALL_BASE, root_seed=5)
        assert first.to_json() == second.to_json()
        assert all(t.complete_fraction >= 0.0 for t in first.trials)

    def test_unknown_core_rejected(self):
        # The removed option: old scripts passing core= get the
        # unknown-override error, whatever the value.
        for value in ("auto", "object", "array"):
            with pytest.raises(ConfigurationError, match="'core'"):
                api.run_sweep(spec=SMALL_GRID, scale="tiny", core=value)

    def test_cores_use_disjoint_cache_universes(self, tmp_path, monkeypatch):
        """An array-core re-run must never be served object-core bytes
        from the trial cache (and vice versa)."""
        object_result, hits = sweep_with_cache_hits(tmp_path)
        assert hits == 0
        with monkeypatch.context() as patch:
            patch.setattr(repro.arraysim, "ARRAY_CORE_MIN_NODES", 10)
            array_fresh, _ = sweep_with_cache_hits()
            array_cached, hits = sweep_with_cache_hits(tmp_path)
            assert hits == 0
            assert array_cached.to_json() == array_fresh.to_json()
            # ... and the array run now resumes from its own entries.
            array_resumed, hits = sweep_with_cache_hits(tmp_path)
            assert hits == len(array_fresh.trials)
            assert array_resumed.to_json() == array_fresh.to_json()
        object_resumed, hits = sweep_with_cache_hits(tmp_path)
        assert hits == len(object_result.trials)
        assert object_resumed.to_json() == object_result.to_json()
