"""Tests for the content-addressed overlay snapshot store (ISSUE 5).

Pins the PR's load-bearing contracts:

* **Byte identity** — the pre-change golden sweep JSON is reproduced
  bit-for-bit with the store off, cold, and warm, across the inline /
  process / socket backends (including combined with the per-trial
  result cache).
* **Keying** — the overlay key / grid-mode snapshot address is a pure
  function of the overlay-determining parameters: fanout,
  ``num_messages``, ``kill_fraction``, ``concurrent_messages`` and
  ``pulls_per_round`` never affect it (hypothesis property), while
  protocol, population, replicate and ``churn_rate`` always do; and
  scenarios of one overlay family (static/catastrophic/multi_message;
  churn/pull_churn) share keys.
* **Hardening** — truncated, wrong-shape, integrity-violated or
  mismatched store files are misses that rebuild, never crashes or
  silently wrong overlays.
* **Hot-path equivalence** — today's proximity selection (one
  key-indexed sort for the numeric ring, heapq for the ordered one)
  produces byte-identical views and overlays to the seed code's full
  stable sorts, ties included.
* **Grid overlay reuse** — ``overlay_reuse="grid"`` builds one overlay
  per (family, protocol, replicate) and stays deterministic across
  backends and worker counts.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import castore
from repro.common.rng import RngRegistry, child_seed
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import policy_for_snapshot
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import (
    _build_static_overlay,
    trial_config,
)
from repro.experiments.snapshot_store import (
    SnapshotProvider,
    load_snapshot_entry,
    overlay_config_digest,
    overlay_key,
    snapshot_address,
    snapshot_from_dict,
    snapshot_path,
    snapshot_to_dict,
    store_snapshot_entry,
)
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import flat_spec
from repro.experiments.sweep_backends import InlineBackend
from repro.experiments.sweep_results import TrialSpec
from repro.common.errors import ConfigurationError
from tests.conftest import build_snapshot
from tests.store_defects import FILE_DEFECTS

DATA = Path(__file__).parent / "data"
SNAPSHOT_MAGIC = b"RSNAPZ1\n"  # pinned: the on-disk format, not an import

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
SMALL_BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)
SMALL_GRID = flat_spec(
    scenarios=("static", "catastrophic"),
    protocols=("randcast", "ringcast"),
    num_nodes=(40,),
    fanouts=(2, 3),
    replicates=1,
    num_messages=2,
    kill_fractions=(0.05,),
)


def golden_bytes(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def spec_for(
    scenario="static",
    protocol="ringcast",
    num_nodes=40,
    fanout=2,
    replicate=0,
    num_messages=2,
    **params,
):
    return TrialSpec(
        scenario=scenario,
        protocol=protocol,
        num_nodes=num_nodes,
        fanout=fanout,
        replicate=replicate,
        num_messages=num_messages,
        **params,
    )


# ----------------------------------------------------------------------
# serialisation round-trip
# ----------------------------------------------------------------------


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("kind", ["ringcast", "randcast", "domain_ring"])
    def test_dict_roundtrip_is_exact(self, kind):
        snapshot = build_snapshot(kind, num_nodes=60, warmup=20)
        rebuilt = snapshot_from_dict(snapshot_to_dict(snapshot))
        assert rebuilt == snapshot  # every field, dict keys as ints

    def test_json_roundtrip_survives_string_keys(self):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        wire = json.loads(json.dumps(snapshot_to_dict(snapshot)))
        assert snapshot_from_dict(wire) == snapshot

    def test_dissemination_identical_over_rebuilt_snapshot(self):
        snapshot = build_snapshot("ringcast", num_nodes=60, warmup=20)
        rebuilt = snapshot_from_dict(snapshot_to_dict(snapshot))
        policy = policy_for_snapshot(snapshot)
        origin = snapshot.alive_ids[7]
        a = disseminate(snapshot, policy, 3, origin, random.Random(9))
        b = disseminate(rebuilt, policy, 3, origin, random.Random(9))
        assert a == b


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------

_dissemination_knobs = st.fixed_dictionaries(
    {
        "fanout": st.integers(min_value=1, max_value=20),
        "num_messages": st.integers(min_value=1, max_value=50),
        "concurrent_messages": st.integers(min_value=1, max_value=8),
        "pulls_per_round": st.integers(min_value=1, max_value=5),
    }
)


class TestOverlayKeying:
    @given(a=_dissemination_knobs, b=_dissemination_knobs)
    @settings(max_examples=60, deadline=None)
    def test_dissemination_only_knobs_never_affect_key(self, a, b):
        """ISSUE satellite: specs sharing overlay-determining params map
        to one key; fanout / num_messages / kill-style knobs never
        matter. Checked for the key *and* the grid-mode address."""
        config = trial_config(
            spec_for(fanout=a["fanout"]), GOLDEN_BASE, 11
        )
        grid_provider = SnapshotProvider(mode="grid")
        specs = [
            spec_for(
                fanout=knobs["fanout"],
                num_messages=knobs["num_messages"],
                concurrent_messages=knobs["concurrent_messages"],
                pulls_per_round=knobs["pulls_per_round"],
            )
            for knobs in (a, b)
        ]
        keys = {overlay_key(spec) for spec in specs}
        assert len(keys) == 1
        addresses = {
            snapshot_address(
                spec, config, grid_provider.overlay_seed(spec, 11)
            )
            for spec in specs
        }
        assert len(addresses) == 1

    @given(kill=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_kill_fraction_never_affects_key(self, kill):
        baseline = spec_for(scenario="catastrophic", kill_fraction=0.05)
        varied = spec_for(scenario="catastrophic", kill_fraction=kill)
        assert overlay_key(varied) == overlay_key(baseline)

    def test_overlay_families_share_keys(self):
        static = spec_for(scenario="static")
        catastrophic = spec_for(
            scenario="catastrophic", kill_fraction=0.1, fanout=4
        )
        multi = spec_for(
            scenario="multi_message", concurrent_messages=5, num_messages=9
        )
        assert overlay_key(static) == overlay_key(catastrophic)
        assert overlay_key(static) == overlay_key(multi)
        churn = spec_for(scenario="churn", churn_rate=0.02)
        pull = spec_for(
            scenario="pull_churn", churn_rate=0.02, pulls_per_round=3
        )
        assert overlay_key(churn) == overlay_key(pull)
        assert overlay_key(static) != overlay_key(churn)

    def test_overlay_determinants_change_key(self):
        base = spec_for()
        assert overlay_key(base) != overlay_key(spec_for(protocol="randcast"))
        assert overlay_key(base) != overlay_key(spec_for(num_nodes=80))
        assert overlay_key(base) != overlay_key(spec_for(replicate=1))
        churned = spec_for(scenario="churn", churn_rate=0.02)
        other_rate = spec_for(scenario="churn", churn_rate=0.05)
        assert overlay_key(churned) != overlay_key(other_rate)

    def test_trial_mode_address_stays_per_trial(self):
        """The default mode must not pretend fanout siblings share an
        overlay — their legacy RNG universes differ, and serving one
        sibling's overlay to the other would change published bytes."""
        provider = SnapshotProvider(mode="trial")
        f2, f3 = spec_for(fanout=2), spec_for(fanout=3)
        config = trial_config(f2, GOLDEN_BASE, 11)
        assert snapshot_address(
            f2, config, provider.overlay_seed(f2, 11)
        ) != snapshot_address(f3, config, provider.overlay_seed(f3, 11))

    def test_grid_mode_seed_derives_from_overlay_key(self):
        provider = SnapshotProvider(mode="grid")
        spec = spec_for(fanout=7)
        assert provider.overlay_seed(spec, 11) == child_seed(
            11, overlay_key(spec)
        )

    def test_undeclared_params_split_the_cache_conservatively(self):
        plain = spec_for(scenario="mystery")
        knobbed = spec_for(scenario="mystery", exotic_knob=3)
        assert overlay_key(plain) != overlay_key(knobbed)

    def test_config_digest_ignores_dissemination_fields(self):
        a = GOLDEN_BASE.with_overrides(num_messages=2, fanouts=(2,))
        b = GOLDEN_BASE.with_overrides(num_messages=50, fanouts=(9,))
        assert overlay_config_digest(a) == overlay_config_digest(b)
        c = GOLDEN_BASE.with_overrides(warmup_cycles=11)
        assert overlay_config_digest(a) != overlay_config_digest(c)


# ----------------------------------------------------------------------
# hardened loading
# ----------------------------------------------------------------------


class TestStoreHardening:
    def _stored(self, tmp_path):
        spec = spec_for(num_nodes=40)
        config = trial_config(spec, GOLDEN_BASE, 11)
        seed = child_seed(11, spec.key)
        snapshot, extras = _build_static_overlay(
            spec, config, RngRegistry(seed)
        )
        path = store_snapshot_entry(
            tmp_path, spec, config, seed, snapshot, extras
        )
        return spec, config, seed, snapshot, path

    def test_roundtrip_hit(self, tmp_path):
        spec, config, seed, snapshot, _path = self._stored(tmp_path)
        loaded = load_snapshot_entry(tmp_path, spec, config, seed)
        assert loaded is not None and loaded[0] == snapshot

    def test_truncated_file_is_a_miss(self, tmp_path):
        spec, config, seed, _snapshot, path = self._stored(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert load_snapshot_entry(tmp_path, spec, config, seed) is None

    @pytest.mark.parametrize("defect", sorted(FILE_DEFECTS))
    def test_each_defect_class_is_a_miss(self, tmp_path, defect):
        """The shared layer's defect classes (fuzzed in test_castore),
        once each through this store's public loader."""
        spec, config, seed, _snapshot, path = self._stored(tmp_path)
        corrupt = FILE_DEFECTS[defect]
        path.write_bytes(corrupt(path.read_bytes(), SNAPSHOT_MAGIC))
        assert load_snapshot_entry(tmp_path, spec, config, seed) is None
        provider = SnapshotProvider(store_dir=tmp_path)
        assert provider.entry_for(spec, config, 11) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        spec, config, seed, _snapshot, path = self._stored(tmp_path)
        for garbage in ("[]", '"overlay"', "{}", '{"format": 1}'):
            path.write_text(garbage)
            assert (
                load_snapshot_entry(tmp_path, spec, config, seed) is None
            )

    def test_integrity_hash_mismatch_is_a_miss(self, tmp_path):
        """A bit-flip inside an otherwise well-formed entry must never
        be served as an overlay — that would be a silently wrong
        experiment, the worst possible cache failure."""
        spec, config, seed, _snapshot, path = self._stored(tmp_path)
        entry = castore.read_entry(path, SNAPSHOT_MAGIC)
        entry["snapshot"]["frozen_at_cycle"] += 1  # sha now stale
        path.write_text(json.dumps(entry))
        assert load_snapshot_entry(tmp_path, spec, config, seed) is None

    def test_non_finite_extras_are_a_miss(self, tmp_path):
        """A correctly sealed entry whose build extras carry NaN is this
        store's own sanity check, not the shared layer's."""
        spec, config, seed, _snapshot, path = self._stored(tmp_path)
        entry = castore.read_entry(path, SNAPSHOT_MAGIC)
        entry["extras"]["churn_cycles"] = float("nan")
        castore.write_entry(path, castore.seal_entry(entry), SNAPSHOT_MAGIC)
        assert castore.read_entry(path, SNAPSHOT_MAGIC) is not None
        assert load_snapshot_entry(tmp_path, spec, config, seed) is None

    def test_wrong_seed_or_config_is_a_miss(self, tmp_path):
        spec, config, seed, _snapshot, _path = self._stored(tmp_path)
        assert (
            load_snapshot_entry(tmp_path, spec, config, seed + 1) is None
        )
        other = config.with_overrides(warmup_cycles=99)
        assert load_snapshot_entry(tmp_path, spec, other, seed) is None

    def test_corrupt_store_rebuilds_with_identical_bytes(self, tmp_path):
        reference = run_sweep(
            SMALL_GRID, base_config=SMALL_BASE, root_seed=5
        ).to_json()
        store = tmp_path / "snapshots"
        first = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            snapshot_cache=store,
        ).to_json()
        assert first == reference
        for path in store.glob("overlay_*.json"):
            path.write_bytes(path.read_bytes()[:40])  # truncate them all
        again = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            snapshot_cache=store,
        ).to_json()
        assert again == reference


# ----------------------------------------------------------------------
# golden byte identity: store off / cold / warm, every backend
# ----------------------------------------------------------------------


class TestGoldenByteIdentityWithStore:
    def test_store_off_cold_warm_match_pre_change_golden(self, tmp_path):
        golden = golden_bytes("golden_sweep_pre_redesign.json")
        cold = run_sweep(
            GOLDEN_GRID,
            base_config=GOLDEN_BASE,
            root_seed=11,
            snapshot_cache=tmp_path,
        )
        assert cold.to_json() + "\n" == golden
        assert list(tmp_path.glob("overlay_*.json"))  # store populated
        warm = run_sweep(
            GOLDEN_GRID,
            base_config=GOLDEN_BASE,
            root_seed=11,
            snapshot_cache=tmp_path,
        )
        assert warm.to_json() + "\n" == golden

    def test_process_backend_with_warm_store_matches_golden(
        self, tmp_path
    ):
        golden = golden_bytes("golden_sweep_pre_redesign.json")
        run_sweep(
            GOLDEN_GRID,
            base_config=GOLDEN_BASE,
            root_seed=11,
            snapshot_cache=tmp_path,
        )
        parallel = run_sweep(
            GOLDEN_GRID,
            base_config=GOLDEN_BASE,
            root_seed=11,
            snapshot_cache=tmp_path,
            backend="process",
            workers=4,
        )
        assert parallel.to_json() + "\n" == golden

    def test_socket_backend_with_store_matches_inline(self, tmp_path):
        inline = run_sweep(
            SMALL_GRID, base_config=SMALL_BASE, root_seed=5
        ).to_json()
        store = tmp_path / "snapshots"
        over_socket = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            backend="socket",
            workers=2,
            snapshot_cache=store,
        )
        assert over_socket.to_json() == inline
        # Workers built the overlays and shipped them back; the server
        # absorbed every one into its store.
        assert len(list(store.glob("overlay_*.json"))) == len(
            SMALL_GRID.expand()
        )
        warm = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            backend="socket",
            workers=2,
            snapshot_cache=store,
        )
        assert warm.to_json() == inline

    def test_snapshot_store_composes_with_trial_cache(self, tmp_path):
        golden = golden_bytes("golden_sweep_small_pre_redesign.json")
        grid = flat_spec(
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
        first = run_sweep(
            grid,
            base_config=GOLDEN_BASE,
            root_seed=11,
            cache_dir=tmp_path / "trials",
            snapshot_cache=tmp_path / "snapshots",
        )
        assert first.to_json() + "\n" == golden
        events = []
        resumed = run_sweep(
            grid,
            base_config=GOLDEN_BASE,
            root_seed=11,
            cache_dir=tmp_path / "trials",
            snapshot_cache=tmp_path / "snapshots",
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events and all(events)  # trial cache still wins outright
        assert resumed.to_json() + "\n" == golden


# ----------------------------------------------------------------------
# grid-mode overlay reuse
# ----------------------------------------------------------------------


class TestGridOverlayReuse:
    def test_one_overlay_per_family_protocol_replicate(self, tmp_path):
        run_sweep(
            GOLDEN_GRID,
            base_config=GOLDEN_BASE,
            root_seed=11,
            snapshot_cache=tmp_path,
            overlay_reuse="grid",
        )
        # static family: 2 protocols x 2 replicates; churned family
        # (one churn rate): 2 protocols x 2 replicates — 8 overlays
        # for the grid's 48 trials.
        assert len(list(tmp_path.glob("overlay_*.json"))) == 8

    def test_provider_stats_show_sharing(self):
        provider = SnapshotProvider(mode="grid")
        pending = tuple(enumerate(SMALL_GRID.expand()))
        executors = {}
        from repro.experiments.scenario_matrix import resolve_scenario

        for _index, spec in pending:
            executors.setdefault(
                spec.scenario, resolve_scenario(spec.scenario)
            )
        results = []
        InlineBackend().run_trials(
            pending,
            SMALL_BASE,
            5,
            executors,
            lambda index, spec, result, seconds: results.append(result),
            provider=provider,
        )
        assert len(results) == len(pending)
        # 12 trials (static 4 + catastrophic 8... actually 2 fanouts x
        # 2 protocols x (1 static + 1 kill) = 8) over 2 shared
        # overlays: one per protocol.
        assert provider.stats["builds"] == 2
        assert (
            provider.stats["memo_hits"]
            == len(pending) - provider.stats["builds"]
        )

    def test_grid_mode_deterministic_across_backends(self):
        inline = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
        ).to_json()
        pooled = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
            backend="process",
            workers=4,
        ).to_json()
        assert pooled == inline
        over_socket = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
            backend="socket",
            workers=2,
        ).to_json()
        assert over_socket == inline

    def test_trial_cache_never_mixes_overlay_modes(self, tmp_path):
        """Resuming a trial-mode result cache into a grid-mode sweep
        (or vice versa) must recompute, not serve results produced
        over different overlays — mixing the two designs in one JSON
        would be invisible corruption."""
        pure_grid = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
        ).to_json()
        run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            cache_dir=tmp_path,
        )
        events = []
        resumed = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            cache_dir=tmp_path,
            overlay_reuse="grid",
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert events and not any(events)  # zero cross-mode cache hits
        assert resumed.to_json() == pure_grid

    def test_grid_mode_two_phase_pool_dispatch_matches_inline(
        self, tmp_path
    ):
        """workers > overlay groups + a disk store takes the
        leader/follower dispatch path; bytes must not change."""
        inline = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
        ).to_json()
        pooled = run_sweep(
            SMALL_GRID,  # 2 overlay groups (one per protocol)
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
            snapshot_cache=tmp_path,
            backend="process",
            workers=4,
        )
        assert pooled.to_json() == inline
        assert len(list(tmp_path.glob("overlay_*.json"))) == 2

    def test_grid_mode_is_a_distinct_design_from_trial_mode(self):
        legacy = run_sweep(
            SMALL_GRID, base_config=SMALL_BASE, root_seed=5
        ).to_json()
        shared = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
        ).to_json()
        assert shared != legacy  # documented: different RNG universes

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="overlay_reuse"):
            run_sweep(
                SMALL_GRID,
                base_config=SMALL_BASE,
                root_seed=5,
                overlay_reuse="cosmic",
            )

    def test_grid_mode_turns_away_snapshotless_workers(self):
        """A pre-snapshot worker would build overlays in the legacy
        per-trial universes and silently diverge under grid reuse — the
        handshake must reject it while capable workers finish the
        sweep untouched."""
        import socket
        import threading

        from repro.experiments.sweep_backends import (
            WIRE_FORMAT,
            FrameDecoder,
            SocketWorkerBackend,
            encode_frame,
        )

        backend = SocketWorkerBackend(workers=1, idle_timeout=60.0)
        outcome = {}

        def stale_client():
            address = backend.wait_listening()
            conn = socket.create_connection(address, timeout=30)
            # A valid wire-format hello *without* the snapshots
            # capability — exactly what a pre-store build sends.
            conn.sendall(
                encode_frame({"type": "hello", "format": WIRE_FORMAT})
            )
            decoder = FrameDecoder()
            inbox = []
            while not inbox:
                data = conn.recv(65536)
                if not data:
                    break
                inbox.extend(decoder.feed(data))
            outcome["reply"] = inbox[0] if inbox else None
            conn.close()

        thread = threading.Thread(target=stale_client, daemon=True)
        thread.start()
        inline = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
        ).to_json()
        result = run_sweep(
            SMALL_GRID,
            base_config=SMALL_BASE,
            root_seed=5,
            overlay_reuse="grid",
            backend=backend,
        )
        thread.join(timeout=30)
        assert result.to_json() == inline
        assert outcome["reply"]["type"] == "reject"
        assert "snapshot-capable" in outcome["reply"]["reason"]


# ----------------------------------------------------------------------
# today's selection == seed sorted selection (overlay equivalence)
# ----------------------------------------------------------------------


def _reference_ring_select(proximity, reference, candidates, count):
    """The seed implementation: one full stable sort per selection."""
    ref = proximity.key(reference)
    space = proximity.space
    idx = proximity.ring_index
    return sorted(
        candidates,
        key=lambda d: min(
            (d.profile.ring_ids[idx] - ref) % space,
            (ref - d.profile.ring_ids[idx]) % space,
        ),
    )[:count]


def _reference_ordered_select(proximity, reference, candidates, count):
    """The seed implementation: two full stable sorts per selection."""
    if count <= 0 or not candidates:
        return []
    key_fn = proximity.key_fn
    ref = key_fn(reference)
    above = sorted(
        (d for d in candidates if key_fn(d.profile) > ref),
        key=lambda d: key_fn(d.profile),
    )
    below = sorted(
        (d for d in candidates if key_fn(d.profile) < ref),
        key=lambda d: key_fn(d.profile),
        reverse=True,
    )
    successors = above + below[::-1]
    predecessors = below + above[::-1]
    want_succ = (count + 1) // 2
    chosen, seen = [], set()
    for d in successors[:want_succ]:
        chosen.append(d)
        seen.add(d.node_id)
    for d in predecessors:
        if len(chosen) >= count:
            break
        if d.node_id not in seen:
            chosen.append(d)
            seen.add(d.node_id)
    for d in successors[want_succ:]:
        if len(chosen) >= count:
            break
        if d.node_id not in seen:
            chosen.append(d)
            seen.add(d.node_id)
    return chosen


class TestHeapSelectionEquivalence:
    def _descriptors(self, rng, n, key_space):
        from repro.membership.views import NodeDescriptor
        from repro.sim.node import NodeProfile

        return [
            NodeDescriptor(
                i, rng.randrange(5), NodeProfile((rng.randrange(key_space),))
            )
            for i in range(n)
        ]

    def test_ring_proximity_matches_sorted_reference(self):
        from repro.membership.ring_ids import RingProximity
        from repro.sim.node import NodeProfile

        rng = random.Random(31)
        # A tiny key space forces heavy distance ties — the regime
        # where a selection that broke stability would diverge.
        proximity = RingProximity(ring_index=0, space=16)
        for _ in range(500):
            candidates = self._descriptors(rng, rng.randrange(0, 24), 16)
            reference = NodeProfile((rng.randrange(16),))
            count = rng.randrange(0, 10)
            assert proximity.select(
                reference, candidates, count
            ) == _reference_ring_select(
                proximity, reference, candidates, count
            )

    def test_ordered_proximity_matches_sorted_reference(self):
        from repro.membership.ring_ids import OrderedRingProximity
        from repro.sim.node import NodeProfile

        rng = random.Random(32)
        proximity = OrderedRingProximity(key_fn=lambda p: p.ring_ids[0])
        for _ in range(500):
            candidates = self._descriptors(rng, rng.randrange(0, 24), 8)
            reference = NodeProfile((rng.randrange(8),))
            count = rng.randrange(0, 12)
            assert [
                d.node_id
                for d in proximity.select(reference, candidates, count)
            ] == [
                d.node_id
                for d in _reference_ordered_select(
                    proximity, reference, candidates, count
                )
            ]

    @pytest.mark.parametrize("kind", ["ringcast", "domain_ring"])
    def test_full_overlay_identical_to_sorted_seed_build(
        self, kind, monkeypatch
    ):
        """AC: today's selection (``closest_indices`` for the numeric
        ring, heapq for the ordered one) produces identical overlays to
        the sorted-based seed code — pinned by rebuilding a whole
        overlay with the reference sorts patched in. The first ringcast
        build runs the flat warm-up kernel; the patched
        ``RingProximity.select`` sends the second down the object path,
        so this also compares the two."""
        from repro.membership import ring_ids

        fast = build_snapshot(kind, num_nodes=60, warmup=25)
        monkeypatch.setattr(
            ring_ids.RingProximity,
            "select",
            lambda self, ref, cands, count: _reference_ring_select(
                self, ref, cands, count
            ),
        )
        monkeypatch.setattr(
            ring_ids.OrderedRingProximity,
            "select",
            lambda self, ref, cands, count: _reference_ordered_select(
                self, ref, cands, count
            ),
        )
        reference = build_snapshot(kind, num_nodes=60, warmup=25)
        assert fast == reference


# ----------------------------------------------------------------------
# snapshot hot paths stay byte-identical
# ----------------------------------------------------------------------


class TestSnapshotHotPaths:
    def test_random_alive_is_one_choice_draw(self, ringcast_snapshot):
        a, b = random.Random(3), random.Random(3)
        assert ringcast_snapshot.random_alive(a) == b.choice(
            ringcast_snapshot.alive_ids
        )
        assert a.random() == b.random()  # identical stream consumption

    def test_out_links_memo_returns_same_links(self, ringcast_snapshot):
        node = ringcast_snapshot.alive_ids[0]
        first = ringcast_snapshot.out_links(node)
        assert ringcast_snapshot.out_links(node) is first  # memo hit
        dlinks = ringcast_snapshot.dlinks[node]
        assert first[: len(dlinks)] == dlinks  # d-links still first
        assert len(set(first)) == len(first)

    def test_d_graph_cached_copy_is_mutation_safe(self, ringcast_snapshot):
        graph = ringcast_snapshot.d_graph()
        expected = {
            node: tuple(
                link
                for link in ringcast_snapshot.dlinks.get(node, ())
                if link in ringcast_snapshot.alive_set
            )
            for node in ringcast_snapshot.alive_ids
        }
        assert graph == expected
        graph.clear()  # caller-side mutation ...
        assert ringcast_snapshot.d_graph() == expected  # ... is isolated

    def test_kill_count_snapshot_has_independent_caches(
        self, ringcast_snapshot
    ):
        node = ringcast_snapshot.alive_ids[0]
        ringcast_snapshot.out_links(node)
        damaged = ringcast_snapshot.kill_count(10, random.Random(4))
        assert damaged.population == ringcast_snapshot.population - 10
        assert damaged.out_links(node) == ringcast_snapshot.out_links(node)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------


class TestCliSnapshotFlags:
    ARGS = [
        "sweep",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--scenarios",
        "static",
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
        "5",
    ]

    def test_snapshot_cache_flag_populates_store(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "snaps"
        assert (
            main(self.ARGS + ["--snapshot-cache", str(store)]) == 0
        )
        assert list(store.glob("overlay_*.json"))
        capsys.readouterr()

    def test_cache_implies_snapshots_subdir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--cache", str(tmp_path)]) == 0
        assert list((tmp_path / "snapshots").glob("overlay_*.json"))
        capsys.readouterr()

    def test_no_snapshot_cache_disables_the_default(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert (
            main(
                self.ARGS
                + ["--cache", str(tmp_path), "--no-snapshot-cache"]
            )
            == 0
        )
        assert not (tmp_path / "snapshots").exists()
        capsys.readouterr()

    def test_conflicting_snapshot_flags_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="contradict"):
            main(
                self.ARGS
                + [
                    "--snapshot-cache",
                    str(tmp_path),
                    "--no-snapshot-cache",
                ]
            )

    def test_overlay_reuse_flag_round_trips(self, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            self.ARGS + ["--overlay-reuse", "grid"]
        )
        assert args.overlay_reuse == "grid"
        assert (
            build_parser().parse_args(self.ARGS).overlay_reuse == "trial"
        )


# ----------------------------------------------------------------------
# compressed entries, npz entries, and the size-cap GC (ISSUE 6)
# ----------------------------------------------------------------------


class TestEntryFormats:
    def _built(self):
        spec = spec_for(num_nodes=40)
        config = trial_config(spec, GOLDEN_BASE, 11)
        seed = child_seed(11, spec.key)
        snapshot, extras = _build_static_overlay(
            spec, config, RngRegistry(seed)
        )
        return spec, config, seed, snapshot, extras

    def test_new_entries_are_compressed(self, tmp_path):
        spec, config, seed, snapshot, extras = self._built()
        path = store_snapshot_entry(
            tmp_path, spec, config, seed, snapshot, extras
        )
        assert path.read_bytes().startswith(SNAPSHOT_MAGIC)
        loaded = load_snapshot_entry(tmp_path, spec, config, seed)
        assert loaded is not None and loaded[0] == snapshot

    def test_legacy_plain_json_entries_still_load(self, tmp_path):
        """Stores written before compression landed are plain JSON;
        they must keep loading as hits, untouched."""
        spec, config, seed, snapshot, extras = self._built()
        path = store_snapshot_entry(
            tmp_path, spec, config, seed, snapshot, extras
        )
        entry = castore.read_entry(path, SNAPSHOT_MAGIC)
        path.write_text(
            castore.canonical_json(entry) + "\n", encoding="utf-8"
        )
        loaded = load_snapshot_entry(tmp_path, spec, config, seed)
        assert loaded is not None and loaded[0] == snapshot

    def test_large_overlays_use_npz_payloads(self, tmp_path):
        from repro.experiments.snapshot_store import NPZ_ENTRY_MIN_NODES

        spec, config, seed, snapshot, extras = self._built()
        small = castore.read_entry(
            store_snapshot_entry(
                tmp_path, spec, config, seed, snapshot, extras
            ),
            SNAPSHOT_MAGIC,
        )
        assert "snapshot" in small and "snapshot_npz" not in small

        rng = random.Random(3)
        n = NPZ_ENTRY_MIN_NODES
        ids = tuple(range(n))
        big = snapshot.__class__(
            kind="randcast",
            rlinks={i: tuple(rng.sample(ids, 4)) for i in ids},
            dlinks={},
            alive_ids=ids,
            ring_ids={},
            join_cycles={},
            frozen_at_cycle=1,
        )
        big_spec = spec_for(protocol="randcast", num_nodes=n)
        big_config = trial_config(
            big_spec, GOLDEN_BASE.with_overrides(num_nodes=n), 11
        )
        entry = castore.read_entry(
            store_snapshot_entry(
                tmp_path, big_spec, big_config, seed, big, {}
            ),
            SNAPSHOT_MAGIC,
        )
        assert "snapshot_npz" in entry and "snapshot" not in entry
        decoded = load_snapshot_entry(tmp_path, big_spec, big_config, seed)
        assert decoded is not None
        assert decoded[0].rlinks == big.rlinks
        assert decoded[0].alive_ids == big.alive_ids


class TestStoreSizeCap:
    """The eviction rules themselves are tested once in
    ``tests/test_castore.py``; here: this store's GC collects *its*
    files, a read hit through the public loader refreshes the rank, and
    the provider pins what it just wrote."""

    def _fill(self, tmp_path, count):
        import os

        paths = []
        for index in range(count):
            path = snapshot_path(tmp_path, f"{index:04d}")
            path.write_bytes(b"x" * 50_000)
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            paths.append(path)
        return paths

    def test_gc_evicts_oldest_accessed_first(self, tmp_path):
        from repro.experiments.snapshot_store import gc_snapshot_store

        paths = self._fill(tmp_path, 4)
        bystander = tmp_path / "trial_0000.json"  # not this store's file
        bystander.write_bytes(b"x" * 500_000)
        per_entry = paths[0].stat().st_size
        removed = gc_snapshot_store(tmp_path, per_entry * 2)
        assert removed == 2
        assert [p.exists() for p in paths] == [False, False, True, True]
        assert bystander.exists()
        with pytest.raises(ConfigurationError):
            gc_snapshot_store(tmp_path, -1)

    def test_read_hit_refreshes_eviction_rank(self, tmp_path):
        import os

        from repro.experiments.snapshot_store import gc_snapshot_store

        config = trial_config(spec_for(num_nodes=40), GOLDEN_BASE, 11)
        stored = []
        for index in range(2):
            spec = spec_for(num_nodes=40, replicate=index)
            seed = child_seed(11, spec.key)
            snapshot, extras = _build_static_overlay(
                spec, config, RngRegistry(seed)
            )
            path = store_snapshot_entry(
                tmp_path, spec, config, seed, snapshot, extras
            )
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            stored.append((spec, seed, path))
        oldest_spec, oldest_seed, oldest_path = stored[0]
        assert load_snapshot_entry(
            tmp_path, oldest_spec, config, oldest_seed
        )  # a hit marks the entry recently used
        gc_snapshot_store(tmp_path, 1)
        assert oldest_path.exists()
        assert not stored[1][2].exists()

    def test_provider_pins_fresh_write_under_tied_mtimes(
        self, tmp_path, monkeypatch
    ):
        """End to end: a provider on a coarse-mtime filesystem (every
        entry lands on one shared timestamp) still keeps the snapshot
        it just stored when the cap forces a collection."""
        import os

        real_write = castore.write_entry
        written = []

        def coarse_write(path, *args, **kwargs):
            path = real_write(path, *args, **kwargs)
            # Collapse timestamps the instant the entry exists, so the
            # collection pass that follows sees nothing but ties.
            for sibling in path.parent.glob("*.json"):
                os.utime(sibling, (1_000_000, 1_000_000))
            written.append(path)
            return path

        monkeypatch.setattr(castore, "write_entry", coarse_write)
        provider = SnapshotProvider(store_dir=tmp_path, max_store_bytes=1)
        config = trial_config(spec_for(num_nodes=40), GOLDEN_BASE, 11)
        for index in range(3):
            spec = spec_for(num_nodes=40, replicate=index)
            provider.acquire(
                spec,
                config,
                11,
                RngRegistry(child_seed(11, spec.key)),
                lambda s, c, registry: _build_static_overlay(
                    s, c, registry
                ),
            )
            remaining = list(tmp_path.glob("*.json"))
            assert remaining == [written[-1]], (
                "the entry a build just wrote must survive its own "
                "collection pass"
            )

    def test_provider_enforces_cap_after_builds(self, tmp_path):
        provider = SnapshotProvider(
            store_dir=tmp_path, max_store_bytes=1
        )
        spec_a = spec_for(num_nodes=40)
        spec_b = spec_for(num_nodes=40, replicate=1)
        config = trial_config(spec_a, GOLDEN_BASE, 11)
        for spec in (spec_a, spec_b):
            provider.acquire(
                spec,
                config,
                11,
                RngRegistry(child_seed(11, spec.key)),
                lambda s, c, registry: _build_static_overlay(
                    s, c, registry
                ),
            )
        # Cap of one byte: only the most recent write may remain.
        assert len(list(Path(tmp_path).glob("overlay_*.json"))) == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            SnapshotProvider(max_store_bytes=0)

    def test_cap_survives_pickling(self, tmp_path):
        import pickle

        provider = SnapshotProvider(
            store_dir=tmp_path, max_store_bytes=123_456
        )
        clone = pickle.loads(pickle.dumps(provider))
        assert clone.max_store_bytes == 123_456
