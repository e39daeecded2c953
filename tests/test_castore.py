"""The shared on-disk entry layer (:mod:`repro.common.castore`).

The trial cache, the snapshot store and the sweep history all frame,
read, write and evict their files through this one module, so the
corruption fuzzers, the atomic-write checks and every GC case run here
once, against each of the three framings the stores pass in. The
stores' own test files keep only what is theirs: a thin "every defect
class is a miss through the public loader" check and their identity
validation.
"""

import json
import os
import shutil
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import castore
from repro.common.errors import ConfigurationError
from repro.common.rng import child_seed
from repro.experiments.config import ExperimentConfig
from repro.experiments.history import (
    history_mode,
    list_history,
    load_history_entry,
    store_history_entry,
)
from repro.experiments.scenario_matrix import trial_config
from repro.experiments.snapshot_store import (
    load_snapshot_entry,
    snapshot_address,
    snapshot_path,
    store_snapshot_entry,
)
from repro.common.errors import ProtocolError
from repro.experiments.sweep_backends import (
    FRAME_DEFLATE_FLAG,
    MAX_FRAME_BYTES,
    FrameDecoder,
)
from repro.experiments.sweep_results import (
    TrialSpec,
    config_fingerprint,
    load_cached_trial,
    store_trial,
)
from repro.experiments.sweep_spec import SweepSpec
from tests.store_defects import FILE_DEFECTS, hammer, zip_bomb

# (magic, newline, sealed) exactly as the three stores pass them.
FRAMINGS = {
    "trial_cache": (None, True, False),
    "snapshot_store": (b"RSNAPZ1\n", True, True),
    "history": (b"RHISTZ1\n", False, True),
}
framings = pytest.mark.parametrize("framing", sorted(FRAMINGS))


def small_entry():
    return {"format": 1, "name": "small", "values": [1, 2.5, "x"]}


def big_entry():
    # Past the deflate threshold, and varied enough that the deflated
    # stream is a few hundred bytes rather than a dozen.
    return {
        "format": 1,
        "rows": {str(i): [i * 7 % 13, i * i % 101] for i in range(150)},
    }


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file the fuzzers rewrite per example (module-scoped, so
    hypothesis may share it across examples)."""
    return tmp_path_factory.mktemp("castore") / "entry.json"


def encoded(framing, entry, path):
    """Store ``entry`` the way ``framing``'s store does; the entry as
    written (sealed or not) and the file's bytes."""
    magic, newline, sealed = FRAMINGS[framing]
    entry = dict(entry)
    if sealed:
        castore.seal_entry(entry)
    castore.write_entry(path, entry, magic, newline)
    return entry, path.read_bytes()


def parse(framing, blob, path):
    """What ``framing``'s store reads back from a file holding ``blob``."""
    magic, _newline, sealed = FRAMINGS[framing]
    path.write_bytes(blob)
    return castore.read_entry(path, magic, sealed)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


class TestFraming:
    @framings
    @pytest.mark.parametrize("make", [small_entry, big_entry])
    def test_round_trip(self, framing, make, scratch):
        entry, blob = encoded(framing, make(), scratch)
        assert parse(framing, blob, scratch) == entry

    @framings
    def test_small_entries_stay_plain_json(self, framing, scratch):
        _magic, newline, _sealed = FRAMINGS[framing]
        entry, blob = encoded(framing, small_entry(), scratch)
        text = castore.canonical_json(entry) + ("\n" if newline else "")
        assert blob == text.encode("utf-8")

    @framings
    def test_big_entries_deflate_only_with_a_magic(self, framing, scratch):
        magic, _newline, _sealed = FRAMINGS[framing]
        _entry, blob = encoded(framing, big_entry(), scratch)
        if magic is None:
            assert blob.startswith(b"{")
        else:
            assert blob.startswith(magic)
            assert len(blob) < castore.DEFLATE_MIN_BYTES

    def test_deflate_threshold_counts_the_newline(self, scratch):
        # One byte under the threshold without the newline, exactly on
        # it with: the three stores' historical files differ in this.
        pad = castore.DEFLATE_MIN_BYTES - 1 - len(
            castore.canonical_json({"pad": ""})
        )
        entry = {"pad": "x" * pad}
        magic = b"MAGIC\n"
        castore.write_entry(scratch, entry, magic, newline=False)
        assert scratch.read_bytes()[:1] == b"{"
        castore.write_entry(scratch, entry, magic, newline=True)
        assert scratch.read_bytes()[:6] == magic

    def test_plain_files_load_under_a_magic(self, scratch):
        # Stores written before compression landed are plain JSON.
        entry = castore.seal_entry(big_entry())
        castore.write_entry(scratch, entry, magic=None)
        assert scratch.read_bytes()[:1] == b"{"
        assert castore.read_entry(scratch, b"RSNAPZ1\n") == entry

    def test_seal_covers_every_other_key(self):
        entry = castore.seal_entry(small_entry())
        assert castore.entry_is_intact(entry)
        entry["name"] = "edited"
        assert not castore.entry_is_intact(entry)
        assert not castore.entry_is_intact(small_entry())  # unsealed
        assert not castore.entry_is_intact([1, 2, 3])


# ----------------------------------------------------------------------
# hardened reads: every defect is a miss, never an exception
# ----------------------------------------------------------------------


class TestCorruption:
    @framings
    @pytest.mark.parametrize("make", [small_entry, big_entry])
    def test_truncation_at_every_prefix(self, framing, make, scratch):
        entry, blob = encoded(framing, make(), scratch)
        complete = len(blob.rstrip(b"\n")) if blob[:1] == b"{" else len(blob)
        for cut in range(len(blob)):
            loaded = parse(framing, blob[:cut], scratch)
            if cut < complete:
                assert loaded is None, f"prefix of {cut} bytes was served"
            else:  # only the trailing newline is missing
                assert loaded == entry

    @framings
    @pytest.mark.parametrize("make", [small_entry, big_entry])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_flips(self, framing, make, scratch, data):
        _magic, _newline, sealed = FRAMINGS[framing]
        entry, blob = encoded(framing, make(), scratch)
        flipped = bytearray(blob)
        position = data.draw(st.integers(0, len(blob) - 1))
        flipped[position] ^= 1 << data.draw(st.integers(0, 7))
        loaded = parse(framing, bytes(flipped), scratch)
        if sealed:
            # The seal catches the flip, unless it landed somewhere
            # that decodes back to the identical entry (whitespace).
            assert loaded is None or loaded == entry
        else:
            assert loaded is None or isinstance(loaded, dict)

    @framings
    @given(garbage=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_garbage_after_a_valid_magic(self, framing, scratch, garbage):
        magic, _newline, _sealed = FRAMINGS[framing]
        loaded = parse(framing, (magic or b"") + garbage, scratch)
        assert loaded is None or (magic is None and isinstance(loaded, dict))

    @framings
    @given(
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.text(max_size=20),
            st.lists(st.integers(), max_size=5),
        ),
        deflate=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_wrong_top_level_json_type(
        self, framing, scratch, value, deflate
    ):
        magic, _newline, _sealed = FRAMINGS[framing]
        blob = json.dumps(value).encode("utf-8")
        if deflate and magic is not None:
            blob = magic + zlib.compress(blob)
        assert parse(framing, blob, scratch) is None

    @framings
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_never_crash(self, framing, literal, scratch):
        """``json`` parses them; rejecting a non-finite *measurement* is
        each store's own sanity check. Here: no crash, and an edit that
        bypassed the seal is still a miss."""
        _magic, _newline, sealed = FRAMINGS[framing]
        _entry, blob = encoded(framing, small_entry(), scratch)
        edited = blob.replace(b"2.5", literal.encode("ascii"))
        assert edited != blob
        loaded = parse(framing, edited, scratch)
        if sealed:
            assert loaded is None
        else:
            assert loaded["values"][1] != loaded["values"][1] or abs(
                loaded["values"][1]
            ) == float("inf")

    @framings
    @pytest.mark.parametrize("defect", sorted(FILE_DEFECTS))
    def test_each_defect_class_is_a_miss(self, framing, defect, scratch):
        magic, _newline, _sealed = FRAMINGS[framing]
        _entry, blob = encoded(framing, big_entry(), scratch)
        corrupt = FILE_DEFECTS[defect]
        assert parse(framing, corrupt(blob, magic), scratch) is None

    @framings
    def test_deep_nesting_below_the_parser_limit(self, framing, scratch):
        """Nesting the parser still accepts must not blow the stack in
        the seal check (which re-serialises the entry) either."""
        depth = sys.getrecursionlimit() - 50
        blob = b'{"a": ' + b"[" * depth + b"]" * depth + b"}"
        loaded = parse(framing, blob, scratch)
        assert loaded is None or isinstance(loaded, dict)

    def test_zip_bomb_allocation_is_bounded(self, scratch):
        """A file inflating to twice the ceiling is a miss that costs
        about the ceiling, not the bomb (unbounded ``zlib.decompress``
        on the snapshot store took ~2 GiB and ~8 s for a 1 MiB file)."""
        magic = b"RSNAPZ1\n"
        scratch.write_bytes(magic + zip_bomb())
        assert scratch.stat().st_size < 1 << 20
        tracemalloc.start()
        try:
            assert castore.read_entry(scratch, magic) is None
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # zlib joins its output blocks once: at most two copies of the
        # capped output, never the 2x-ceiling payload plus its copy.
        assert peak < 2 * castore.MAX_ENTRY_BYTES + (8 << 20)

    def test_missing_and_unreadable_paths_are_misses(self, tmp_path):
        assert castore.read_entry(tmp_path / "absent.json") is None
        assert castore.read_entry(tmp_path) is None  # a directory


class TestBoundedInflate:
    def test_limit_is_inclusive(self):
        packed = zlib.compress(b"x" * 1000)
        assert castore.bounded_inflate(packed, 1000) == b"x" * 1000
        with pytest.raises(ValueError):
            castore.bounded_inflate(packed, 999)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda packed: packed[:-1],  # truncated stream
            lambda packed: packed + b"x",  # trailing bytes
            lambda packed: b"\x00" + packed,  # not a zlib stream
            lambda packed: b"",
        ],
    )
    def test_malformed_streams_raise_value_error(self, mangle):
        with pytest.raises(ValueError):
            castore.bounded_inflate(mangle(zlib.compress(b"x" * 1000)), 4096)

    def test_socket_frames_use_the_same_guard(self):
        body = zlib.compress(b" " * (MAX_FRAME_BYTES + 1))
        frame = (len(body) | FRAME_DEFLATE_FLAG).to_bytes(4, "big") + body
        with pytest.raises(ProtocolError, match="expands past"):
            FrameDecoder().feed(frame)


# ----------------------------------------------------------------------
# atomic writes, touch
# ----------------------------------------------------------------------


class TestWrite:
    @framings
    def test_write_then_read(self, framing, tmp_path):
        magic, newline, _sealed = FRAMINGS[framing]
        path = tmp_path / "made" / "on" / "demand" / "entry.json"
        assert castore.write_entry(path, big_entry(), magic, newline) == path
        assert castore.read_entry(path, magic, sealed=False) == big_entry()
        assert castore.read_entry(path, magic) is None  # never sealed
        assert [p.name for p in path.parent.iterdir()] == ["entry.json"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "entry.json"
        castore.write_entry(path, big_entry())
        castore.write_entry(path, small_entry())
        assert castore.read_entry(path, sealed=False) == small_entry()

    def test_concurrent_writers_of_one_path(self, tmp_path):
        """Writers of one address must each rename their own temp file;
        a shared temp name loses the race with FileNotFoundError."""
        path = tmp_path / "entry.json"
        entry = castore.seal_entry(big_entry())
        errors = hammer(
            lambda: castore.write_entry(path, entry, b"RSNAPZ1\n"),
            writers=4,
            rounds=300,
        )
        assert errors == []
        assert castore.read_entry(path, b"RSNAPZ1\n") == entry
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_touch_bumps_mtime_and_tolerates_absence(self, tmp_path):
        path = castore.write_entry(tmp_path / "entry.json", small_entry())
        os.utime(path, (1_000_000, 1_000_000))
        castore.touch(path)
        assert path.stat().st_mtime > 1_000_000
        castore.touch(tmp_path / "absent.json")  # best-effort: no raise


# ----------------------------------------------------------------------
# size-cap GC
# ----------------------------------------------------------------------


class TestGc:
    PATTERN = "entry_*.json"

    def _fill(self, tmp_path, count, mtime=lambda index: 1_000_000 + index):
        paths = []
        for index in range(count):
            path = tmp_path / f"entry_{index:04d}.json"
            path.write_bytes(b"x" * 1000)
            os.utime(path, (mtime(index), mtime(index)))
            paths.append(path)
        return paths

    def test_evicts_oldest_accessed_first(self, tmp_path):
        paths = self._fill(tmp_path, 4)
        assert castore.gc(tmp_path, self.PATTERN, 2000) == 2
        assert [p.exists() for p in paths] == [False, False, True, True]

    def test_store_under_the_cap_is_untouched(self, tmp_path):
        paths = self._fill(tmp_path, 3)
        assert castore.gc(tmp_path, self.PATTERN, 3000) == 0
        assert all(p.exists() for p in paths)

    def test_newest_entry_survives_any_budget(self, tmp_path):
        paths = self._fill(tmp_path, 3)
        assert castore.gc(tmp_path, self.PATTERN, 0) == 2
        assert [p.exists() for p in paths] == [False, False, True]

    def test_touch_refreshes_eviction_rank(self, tmp_path):
        paths = self._fill(tmp_path, 3)
        castore.touch(paths[0])  # a read hit on the oldest entry
        castore.gc(tmp_path, self.PATTERN, 1000)
        assert [p.exists() for p in paths] == [True, False, False]

    def test_mtime_ties_break_by_name(self, tmp_path):
        """Coarse-mtime filesystems collapse timestamps: the rank falls
        back to the file name, so every host evicts the same files and
        the lexicographically greatest entry plays 'newest'."""
        paths = self._fill(tmp_path, 4, mtime=lambda index: 1_000_000)
        castore.gc(tmp_path, self.PATTERN, 1)
        assert [p.exists() for p in paths] == [False, False, False, True]

    def test_keep_pins_a_fresh_write_under_tied_mtimes(self, tmp_path):
        paths = self._fill(tmp_path, 3, mtime=lambda index: 1_000_000)
        # paths[0] sorts first by name, so without the pin it would be
        # the first eviction — what happened to fresh writes on coarse
        # filesystems before the keep parameter existed.
        castore.gc(tmp_path, self.PATTERN, 1, keep=(str(paths[0]),))
        assert [p.exists() for p in paths] == [True, False, True]

    def test_only_files_matching_the_pattern_count(self, tmp_path):
        paths = self._fill(tmp_path, 2)
        bystander = tmp_path / "other_0000.json"
        bystander.write_bytes(b"x" * 5000)
        leftover = tmp_path / "entry_0000.json.tmp1f-2e"
        leftover.write_bytes(b"x" * 5000)
        assert castore.gc(tmp_path, self.PATTERN, 2000) == 0
        assert castore.gc(tmp_path, self.PATTERN, 0) == 1
        assert bystander.exists() and leftover.exists()
        assert [p.exists() for p in paths] == [False, True]

    def test_negative_budget_is_a_configuration_error(self, tmp_path):
        self._fill(tmp_path, 2)
        with pytest.raises(ConfigurationError):
            castore.gc(tmp_path, self.PATTERN, -1)

    def test_unstatable_files_and_missing_dirs_are_skipped(self, tmp_path):
        paths = self._fill(tmp_path, 2)
        (tmp_path / "entry_9999.json").symlink_to(tmp_path / "vanished")
        assert castore.gc(tmp_path, self.PATTERN, 0) == 1
        assert [p.exists() for p in paths] == [False, True]
        assert castore.gc(tmp_path / "absent", self.PATTERN, 0) == 0


# ----------------------------------------------------------------------
# on-disk compatibility: entries written by the pre-castore stores
# ----------------------------------------------------------------------


class TestParentWrittenFixtures:
    """``tests/data/stores/`` holds one entry of each shape, written by
    the three stores *before* they were rebased onto this module
    (``git show 76232aa``). Each must load as a hit through the rebased
    public loader, and storing the same logical entry again must yield
    the same file name and the same bytes."""

    FIXTURES = Path(__file__).parent / "data" / "stores"
    BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)

    @pytest.fixture
    def stores(self, tmp_path):
        # Work on a copy: a hit bumps the entry's mtime.
        return Path(shutil.copytree(self.FIXTURES, tmp_path / "stores"))

    @staticmethod
    def _identical(written, original_dir):
        original = original_dir / written.name
        return written.read_bytes() == original.read_bytes()

    def test_trial_cache_entry(self, stores, tmp_path):
        spec = TrialSpec(
            scenario="static",
            protocol="ringcast",
            num_nodes=40,
            fanout=2,
            replicate=0,
            num_messages=2,
        )
        digest = config_fingerprint(self.BASE)
        result = load_cached_trial(stores / "trial_cache", spec, 5, digest)
        assert result is not None and result.spec == spec
        written = store_trial(tmp_path / "again", result, 5, digest)
        assert self._identical(written, self.FIXTURES / "trial_cache")

    @pytest.mark.parametrize(
        "num_nodes, overlay_seed, first_bytes",
        [
            (4, 1234, b"{\n"),  # under 4 KiB: plain JSON
            (40, None, b"RSNAPZ1\n"),  # deflated
        ],
        ids=["plain_json", "deflated"],
    )
    def test_snapshot_entry(
        self, stores, tmp_path, num_nodes, overlay_seed, first_bytes
    ):
        spec = TrialSpec(
            scenario="static",
            protocol="ringcast",
            num_nodes=num_nodes,
            fanout=2,
            replicate=0,
            num_messages=2,
        )
        config = trial_config(spec, self.BASE, 5)
        if overlay_seed is None:
            overlay_seed = child_seed(5, spec.key)
        fixture = snapshot_path(
            self.FIXTURES / "snapshots",
            snapshot_address(spec, config, overlay_seed),
        )
        assert fixture.read_bytes().startswith(first_bytes)
        loaded = load_snapshot_entry(
            stores / "snapshots", spec, config, overlay_seed
        )
        assert loaded is not None
        snapshot, extras = loaded
        assert snapshot.population == num_nodes
        written = store_snapshot_entry(
            tmp_path / "again", spec, config, overlay_seed, snapshot, extras
        )
        assert self._identical(written, self.FIXTURES / "snapshots")

    def test_history_entry(self, stores, tmp_path, monkeypatch):
        spec = SweepSpec(
            scenarios=("static",),
            protocols=("randcast", "ringcast"),
            num_nodes=(40,),
            fanouts=(2, 3),
            replicates=2,
            num_messages=2,
        )
        digest = config_fingerprint(self.BASE)
        hit = load_history_entry(
            stores / "history", spec, 5, digest, history_mode()
        )
        assert hit is not None and hit.created == 1700000000.25
        assert hit.path.read_bytes().startswith(b"RHISTZ1\n")
        assert [e.address for e in list_history(stores / "history")] == [
            hit.address
        ]
        monkeypatch.setattr(time, "time", lambda: hit.created)
        written = store_history_entry(
            tmp_path / "again", spec, hit.result, 5, digest, history_mode()
        )
        assert self._identical(written, self.FIXTURES / "history")
