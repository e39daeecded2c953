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
  are deterministic per seed. A flooding hop runs in row blocks, and
  where the blocks are cut changes nothing.
* **Codec round-trip + hardening** — ``.npz`` payloads decode back to
  semantically identical snapshots (dissemination over the rebuilt
  snapshot draws identically); truncated, corrupt, or wrong-format
  payloads, and arrays that load but disagree with each other, raise
  :class:`SnapshotCodecError`, never garbage overlays or another
  exception.
* **Core selection** — one rule, :func:`repro.arraysim.uses_array_core`:
  the array core runs from ``ARRAY_CORE_MIN_NODES`` alive nodes up and
  never for a foreign policy; seed-scale sweeps stay on the object core,
  and array- and object-core trials live in separate cache universes
  (the threshold is monkeypatched below N to drive a sweep onto the
  array core).
"""

import functools
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.arraysim import engine
from repro.arraysim.codec import CODEC_FORMAT, decode_overlay
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
from tests import flooding_memory
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


def union_snapshot(rng: random.Random, n: int) -> OverlaySnapshot:
    """A snapshot whose flooding unions need deduplicating: repeated
    r-links, d-links repeated among the r-links, links to dead nodes
    (some of them in nobody's table), and empty or missing rows."""
    ids = rng.sample(range(n * 3), n)
    lingering = rng.sample(range(n * 3, n * 3 + 3), rng.randint(0, 3))
    rlinks = {}
    dlinks = {}
    for i in ids:
        targets = ids + lingering
        dl = tuple(rng.choice(targets) for _ in range(rng.randint(0, 3)))
        pool = list(dl) + [rng.choice(targets) for _ in range(3)]
        rl = tuple(rng.choice(pool) for _ in range(rng.randint(0, 7)))
        if dl or rng.random() < 0.5:
            dlinks[i] = dl
        if rl or rng.random() < 0.5:
            rlinks[i] = rl
    alive = [i for i in ids if rng.random() < 0.8] or [ids[0]]
    return OverlaySnapshot(
        kind="ringcast",
        rlinks=rlinks,
        dlinks=dlinks,
        alive_ids=tuple(sorted(alive)),
    )


def loop_out_csr(overlay: ArrayOverlay):
    """``ArrayOverlay.out_csr`` as it stood before it was vectorised
    (kept verbatim as the order oracle)."""
    counts = np.zeros(len(overlay.ids) + 1, dtype=np.int64)
    flat: list = []
    d_indptr = overlay.d_indptr.tolist()
    r_indptr = overlay.r_indptr.tolist()
    d_targets = overlay.d_targets.tolist()
    r_targets = overlay.r_targets.tolist()
    for row in range(len(overlay.ids)):
        seen: list = []
        for link in (
            d_targets[d_indptr[row]:d_indptr[row + 1]]
            + r_targets[r_indptr[row]:r_indptr[row + 1]]
        ):
            if link not in seen:
                seen.append(link)
        counts[row + 1] = len(seen)
        flat.extend(seen)
    return np.cumsum(counts), np.asarray(flat, dtype=np.int64)


class TestOutCsr:
    @given(case=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop_and_out_links(self, case):
        rng = random.Random(case)
        snapshot = union_snapshot(rng, rng.randint(1, 30))
        overlay = ArrayOverlay.from_snapshot(snapshot)
        indptr, targets = overlay.out_csr()
        want_indptr, want_targets = loop_out_csr(overlay)
        assert indptr.dtype == targets.dtype == np.int64
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(targets, want_targets)
        ids = overlay.ids.tolist()
        for row, node_id in enumerate(ids):
            links = targets[indptr[row]:indptr[row + 1]].tolist()
            assert tuple(ids[i] for i in links) == snapshot.out_links(node_id)


# Frontier blocks of 1-3 rows cut every hop of a small batch into many
# blocks, so a key repeated across a block boundary is the rule.
BLOCK_SIZES = (1, 2, 3)


def fast_batch(snapshot, policy, fanout, origins, seed, collect_load):
    return disseminate_many(
        ArrayOverlay.from_snapshot(snapshot),
        policy,
        fanout,
        origins,
        np.random.Generator(np.random.PCG64(seed)),
        collect_load=collect_load,
    )


class TestFloodingBlocks:
    """A flooding hop runs in ``engine._FLOOD_BLOCK_ROWS``-row blocks;
    the answer must not depend on where the blocks are cut."""

    @pytest.mark.parametrize("rows", BLOCK_SIZES)
    def test_flooding_equals_the_object_core(self, monkeypatch, rows):
        monkeypatch.setattr(engine, "_FLOOD_BLOCK_ROWS", rows)
        for case in range(30):
            rng = random.Random(9000 + case)
            snapshot = union_snapshot(rng, rng.randint(2, 40))
            origins = [rng.choice(snapshot.alive_ids) for _ in range(4)]
            collect_load = case % 2 == 0
            batch = fast_batch(
                snapshot, FloodingPolicy(), 3, origins, case, collect_load
            )
            for origin, fast in zip(origins, batch):
                assert fast == object_disseminate(
                    snapshot,
                    FloodingPolicy(),
                    3,
                    origin,
                    random.Random(0),
                    collect_load=collect_load,
                )

    @pytest.mark.parametrize("rows", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "policy", [RandCastPolicy(), RingCastPolicy()], ids=lambda p: p.name
    )
    def test_drawn_policies_ignore_the_block_size(
        self, monkeypatch, rows, policy
    ):
        cases = []
        for case in range(20):
            rng = random.Random(9500 + case)
            snapshot = union_snapshot(rng, rng.randint(2, 40))
            origins = [rng.choice(snapshot.alive_ids) for _ in range(4)]
            cases.append((snapshot, rng.randint(1, 5), origins, case))
        default = [
            fast_batch(snapshot, policy, fanout, origins, seed, seed % 2 == 0)
            for snapshot, fanout, origins, seed in cases
        ]
        monkeypatch.setattr(engine, "_FLOOD_BLOCK_ROWS", rows)
        assert default == [
            fast_batch(snapshot, policy, fanout, origins, seed, seed % 2 == 0)
            for snapshot, fanout, origins, seed in cases
        ]

    def test_traced_peak_is_state_plus_one_block(self):
        """At N = 20 000 whole-frontier flooding hops traced ≈ 47 MiB
        against this ≈ 31 MiB bound. It counts bytes, not time, so the
        machine's speed cannot move it."""
        snapshot = flooding_memory.synthetic_snapshot(20_000)
        overlay = ArrayOverlay.from_snapshot(snapshot)
        origins = flooding_memory.origins_of(snapshot)
        results, peak = flooding_memory.traced_flooding(overlay, origins)
        assert [r.complete for r in results] == [True] * len(origins)
        assert peak <= flooding_memory.peak_bound(overlay, len(origins))


# ----------------------------------------------------------------------
# codec: .npz round-trip and hardening
# ----------------------------------------------------------------------


class CountingGenerator:
    """A numpy Generator that counts its draw calls."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


def rejection_sampler(pool_lens, budgets, rng):
    """The duplicate-only rejection sampler as it stood before rows
    with a low acceptance got the exact sampler (kept verbatim: rows
    at or above acceptance 1/2 must still draw exactly this)."""
    m = pool_lens.size
    width = int(budgets.max()) if m else 0
    cols = np.arange(width, dtype=np.int64)[None, :]
    sentinel = pool_lens[:, None] + cols
    live = cols < budgets[:, None]
    pos = np.where(
        live, rng.integers(0, pool_lens[:, None], size=(m, width)), sentinel
    )
    pending = np.arange(m)
    while pending.size:
        sub = np.sort(pos[pending], axis=1)
        bad = (np.diff(sub, axis=1) == 0).any(axis=1)
        pending = pending[bad]
        if not pending.size:
            break
        redraw = rng.integers(
            0, pool_lens[pending][:, None], size=(pending.size, width)
        )
        pos[pending] = np.where(live[pending], redraw, sentinel[pending])
    return pos


def acceptance(pool_len: int, budget: int) -> float:
    """Odds that ``budget`` i.i.d. draws from ``pool_len`` are distinct."""
    return math.prod(1 - i / pool_len for i in range(budget))


pool_rows = st.lists(
    st.integers(2, 20).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
    ),
    min_size=1,
    max_size=8,
)


class TestSamplePositions:
    """``engine._sample_positions``: rejection where it converges fast,
    an exact bounded sampler where it would stall."""

    @given(rows=pool_rows, seed=st.integers(0, 2**32 - 1))
    # A likely row wanting more positions than an exact row's pool.
    @example(rows=[(20, 5), (4, 3)], seed=1)
    @settings(max_examples=300, deadline=None)
    def test_distinct_in_range_with_bounded_draws(self, rows, seed):
        pool_lens = np.array([n for n, _ in rows], dtype=np.int64)
        budgets = np.array([k for _, k in rows], dtype=np.int64)
        rng = CountingGenerator(seed)
        pos = engine._sample_positions(pool_lens, budgets, rng)
        assert pos.shape == (len(rows), budgets.max())
        for row, (n, k) in zip(pos.tolist(), rows):
            assert len(set(row[:k])) == k
            assert all(0 <= p < n for p in row[:k])
            assert all(p >= n for p in row[k:])  # sentinels
        assert rng.calls <= engine._REJECTION_ROUNDS + 2
        if all(acceptance(n, k) < 0.5 for n, k in rows):
            assert rng.calls == 1

    @given(rows=pool_rows, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_likely_rows_keep_the_rejection_draws(self, rows, seed):
        rows = [(n, k) for n, k in rows if acceptance(n, k) >= 0.5]
        if not rows:
            return
        pool_lens = np.array([n for n, _ in rows], dtype=np.int64)
        budgets = np.array([k for _, k in rows], dtype=np.int64)
        got = engine._sample_positions(
            pool_lens, budgets, np.random.default_rng(seed)
        )
        want = rejection_sampler(
            pool_lens, budgets, np.random.default_rng(seed)
        )
        assert np.array_equal(got, want)

    def test_exact_sampler_is_uniform(self):
        # 5 of 6 (acceptance 0.09): a row is its one left-out position,
        # which must be uniform over the 6. The chi-square bound is
        # p ~ 1e-4 at 5 degrees of freedom; the seed is fixed.
        rows = 12_000
        pos = engine._sample_positions(
            np.full(rows, 6, dtype=np.int64),
            np.full(rows, 5, dtype=np.int64),
            np.random.default_rng(7),
        )
        left_out = 15 - pos.sum(axis=1)
        counts = np.bincount(left_out, minlength=6)
        expected = rows / 6
        assert ((counts - expected) ** 2 / expected).sum() < 25.0

    @pytest.mark.parametrize(
        "kind, policy, fanout",
        [
            ("randcast", RandCastPolicy(), 16),
            ("randcast", RandCastPolicy(), 19),
            ("ringcast", RingCastPolicy(), 18),
            ("ringcast", RingCastPolicy(), 20),
        ],
    )
    def test_fanout_near_the_view_size_completes(self, kind, policy, fanout):
        # N=1000, 20 distinct r-links per node: the leftover rows that
        # reach the sampler want nearly their whole pool, and pure
        # rejection used to spin on them for ever.
        rng = random.Random(3)
        ids = range(1000)
        snapshot = OverlaySnapshot(
            kind=kind,
            rlinks={
                i: tuple(rng.sample([j for j in ids if j != i], 20))
                for i in ids
            },
            dlinks=(
                {i: ((i - 1) % 1000, (i + 1) % 1000) for i in ids}
                if kind == "ringcast"
                else {}
            ),
            alive_ids=tuple(ids),
            ring_ids={},
            join_cycles={},
            frozen_at_cycle=0,
        )
        draws = CountingGenerator(5)
        results = disseminate_many(snapshot, policy, fanout, [0, 1, 2], draws)
        assert [r.hit_ratio for r in results] == [1.0, 1.0, 1.0]
        hops = max(r.hops for r in results) + 1
        # Per hop: one phase-1 draw, two retries, then the sampler.
        assert draws.calls <= hops * (3 + engine._REJECTION_ROUNDS + 2)


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


@functools.lru_cache(maxsize=None)
def codec_arrays():
    """The header and arrays of a real N = 60 payload."""
    payload = encode_snapshot(
        build_snapshot("ringcast", num_nodes=60, warmup=20)
    )
    with np.load(io.BytesIO(payload)) as data:
        return payload, {key: data[key] for key in data.files}


def payload_with(**replaced) -> bytes:
    """The real payload's arrays with some replaced, re-packed."""
    arrays = dict(codec_arrays()[1], **replaced)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def header_array(**fields) -> np.ndarray:
    header = dict(format=CODEC_FORMAT, kind="ringcast", frozen_at_cycle=0)
    header.update(fields)
    return np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)


def rejects_or_round_trips(payload: bytes) -> None:
    """The decoder's contract: a payload raises SnapshotCodecError or
    decodes to a snapshot that re-encodes to the same snapshot."""
    try:
        snapshot = decode_snapshot(payload)
    except SnapshotCodecError:
        return
    assert decode_snapshot(encode_snapshot(snapshot)) == snapshot


def crafted(key: str, array) -> bytes:
    return payload_with(**{key: np.asarray(array)})


def real(key: str) -> np.ndarray:
    return codec_arrays()[1][key]


CRAFTED = {
    "float ids": lambda: crafted("ids", real("ids") + 0.5),
    "duplicate ids": lambda: crafted(
        "ids", np.concatenate([real("ids")[:1], real("ids")[:-1]])
    ),
    "unsorted ids": lambda: crafted("ids", real("ids")[::-1]),
    "bool r_targets": lambda: crafted("r_targets", real("r_targets") > 3),
    "2-D ids": lambda: crafted("ids", real("ids").reshape(1, -1)),
    "float r_indptr": lambda: crafted("r_indptr", real("r_indptr") * 1.0),
    "int d_haskey": lambda: crafted("d_haskey", real("d_haskey") * 2),
    "repeated alive index": lambda: crafted(
        "alive_order", np.concatenate([real("alive_order")[:1]] * 2)
    ),
    "infinite frozen_at_cycle": lambda: payload_with(
        header=header_array(frozen_at_cycle=float("inf"))
    ),
}

fuzz_dtypes = st.sampled_from(
    [np.int64, np.int32, np.uint8, np.float64, np.bool_]
)


class TestCodecFuzz:
    """``decode_overlay``'s contract — any malformed payload raises
    ``SnapshotCodecError`` — under byte corruption and crafted arrays
    that load but disagree with what the overlay assumes."""

    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 2**20), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_byte_mutations(self, edits):
        payload = bytearray(codec_arrays()[0])
        for position, byte in edits:
            payload[position % len(payload)] = byte
        rejects_or_round_trips(bytes(payload))

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_crafted_arrays_are_rejected(self, case):
        with pytest.raises(SnapshotCodecError):
            decode_overlay(CRAFTED[case]())

    @given(
        key=st.sampled_from(sorted(codec_arrays()[1].keys() - {"header"})),
        dtype=fuzz_dtypes,
        values=st.lists(st.integers(-3, 80), max_size=80),
        two_d=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_replaced_arrays(self, key, dtype, values, two_d):
        array = np.array(values).astype(dtype)
        if two_d:
            array = array.reshape(1, -1)
        rejects_or_round_trips(crafted(key, array))

    def test_the_unaltered_arrays_decode(self):
        # Keeps the crafted cases honest: re-packing alone breaks nothing.
        decode_overlay(payload_with())


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
