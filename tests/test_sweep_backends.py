"""Tests for the pluggable sweep execution backends.

Covers the frame codec (framing, chunk-robust decoding, the hypothesis
round-trip property), backend selection, and the golden byte-identity
contract: inline, process pool, and a grid split into parts whose
trial caches are merged by copying all serialise to the same bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import scenario_names
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import flat_spec
from repro.common.errors import ProtocolError
from repro.experiments.sweep_backends import (
    FRAME_DEFLATE_FLAG,
    FrameDecoder,
    InlineBackend,
    ProcessPoolBackend,
    decode_frames,
    encode_frame,
    resolve_backend,
)
from repro.experiments.sweep_results import TrialSpec
from tests.conftest import run_split_and_merge

BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)

GRID = flat_spec(
    scenarios=("static",),
    protocols=("randcast", "ringcast"),
    num_nodes=(40,),
    fanouts=(2, 3),
    replicates=1,
    num_messages=2,
)


def sweep(**kwargs):
    return run_sweep(GRID, base_config=BASE, root_seed=5, **kwargs)


@pytest.fixture(scope="module")
def inline_json():
    """The serial reference bytes every backend must reproduce."""
    return sweep(backend="inline").to_json()


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------


class TestWireFormat:
    def test_frame_roundtrip(self):
        message = {"type": "hello", "format": 1}
        assert decode_frames(encode_frame(message)) == [message]

    def test_multiple_frames_in_one_buffer(self):
        messages = [{"n": i, "type": "trial"} for i in range(5)]
        data = b"".join(encode_frame(m) for m in messages)
        assert decode_frames(data) == messages

    def test_byte_at_a_time_feeding(self):
        messages = [{"type": "result", "job": 3}, {"type": "shutdown"}]
        data = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        decoded = []
        for i in range(len(data)):
            decoded.extend(decoder.feed(data[i : i + 1]))
        assert decoded == messages

    def test_trailing_bytes_rejected(self):
        data = encode_frame({"type": "shutdown"}) + b"\x00\x01"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frames(data)

    def test_oversized_frame_claim_rejected(self):
        # An HTTP client (or line noise) must fail fast, not allocate.
        with pytest.raises(ProtocolError, match="limit"):
            FrameDecoder().feed(b"\xff\xff\xff\xff")

    def test_non_object_body_rejected(self):
        import json
        import struct

        body = json.dumps([1, 2, 3]).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(ProtocolError, match="object"):
            decode_frames(frame)

    def test_parse_endpoint(self):
        # The endpoint parser now lives with the live network's wire
        # format; its host:port contract is unchanged.
        from repro.net.wire import parse_endpoint

        assert parse_endpoint("example.org:7777") == ("example.org", 7777)
        for bad in ("nohost", ":123", "host:", "host:abc", "host:70000"):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)


class TestDeflateFrames:
    """Opt-in zlib frame compression."""

    BIG = {"type": "trial", "blob": "x" * 20_000}

    def test_big_frames_compress_and_roundtrip(self):
        import struct

        frame = encode_frame(self.BIG, compress=True)
        (word,) = struct.unpack_from(">I", frame)
        assert word & FRAME_DEFLATE_FLAG
        assert len(frame) < 20_000
        assert decode_frames(frame) == [self.BIG]

    def test_small_frames_stay_plain(self):
        import struct

        frame = encode_frame({"type": "hello"}, compress=True)
        (word,) = struct.unpack_from(">I", frame)
        assert not (word & FRAME_DEFLATE_FLAG)

    def test_uncompressed_default_unchanged(self):
        assert encode_frame(self.BIG) == encode_frame(self.BIG, compress=False)
        assert decode_frames(encode_frame(self.BIG)) == [self.BIG]

    def test_chunked_feeding_of_compressed_frames(self):
        messages = [self.BIG, {"type": "shutdown"}]
        data = b"".join(encode_frame(m, compress=True) for m in messages)
        decoder = FrameDecoder()
        decoded = []
        step = 137
        for i in range(0, len(data), step):
            decoded.extend(decoder.feed(data[i : i + step]))
        assert decoded == messages

    def test_corrupt_deflate_body_rejected(self):
        import struct

        body = b"\x00definitely-not-zlib"
        frame = struct.pack(">I", len(body) | FRAME_DEFLATE_FLAG) + body
        with pytest.raises(ProtocolError, match="deflate"):
            decode_frames(frame)

    def test_truncated_deflate_stream_rejected(self):
        import struct
        import zlib

        body = zlib.compress(b"{}" * 4000)[:-4]  # valid prefix, no eof
        frame = struct.pack(">I", len(body) | FRAME_DEFLATE_FLAG) + body
        with pytest.raises(ProtocolError):
            decode_frames(frame)

    def test_zip_bomb_rejected(self):
        import struct
        import zlib

        from repro.experiments.sweep_backends import MAX_FRAME_BYTES

        bomb = zlib.compress(b"\x00" * (MAX_FRAME_BYTES + 1024), 9)
        frame = struct.pack(">I", len(bomb) | FRAME_DEFLATE_FLAG) + bomb
        with pytest.raises(ProtocolError, match="expands|limit"):
            decode_frames(frame)


_spec_strategy = st.builds(
    TrialSpec,
    scenario=st.sampled_from(scenario_names()),
    protocol=st.sampled_from(("randcast", "ringcast", "hararycast")),
    num_nodes=st.integers(min_value=3, max_value=10_000),
    fanout=st.integers(min_value=1, max_value=30),
    replicate=st.integers(min_value=0, max_value=99),
    num_messages=st.integers(min_value=1, max_value=50),
    kill_fraction=st.sampled_from((0.0, 0.01, 0.05, 0.25)),
    churn_rate=st.sampled_from((0.0, 0.002, 0.01)),
    concurrent_messages=st.integers(min_value=1, max_value=16),
    pulls_per_round=st.integers(min_value=1, max_value=8),
)


class TestWireProperties:
    """The frame round-trip is lossless and key-stable."""

    @settings(max_examples=80, deadline=None)
    @given(spec=_spec_strategy, data=st.data())
    def test_spec_roundtrip_lossless_under_any_chunking(
        self, spec, data
    ):
        message = {
            "type": "trial",
            "job": 7,
            "root_seed": 42,
            "spec": spec.to_dict(),
        }
        encoded = encode_frame(message)
        decoder = FrameDecoder()
        decoded = []
        cursor = 0
        while cursor < len(encoded):
            step = data.draw(
                st.integers(min_value=1, max_value=len(encoded) - cursor)
            )
            decoded.extend(decoder.feed(encoded[cursor : cursor + step]))
            cursor += step
        assert len(decoded) == 1
        received = TrialSpec.from_dict(decoded[0]["spec"])
        assert received == spec
        # Key stability is the determinism contract: a trial derives
        # its whole RNG universe from this string.
        assert received.key == spec.key

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(_spec_strategy, min_size=1, max_size=5))
    def test_frame_stream_preserves_order(self, specs):
        frames = b"".join(
            encode_frame({"job": i, "spec": s.to_dict(), "type": "trial"})
            for i, s in enumerate(specs)
        )
        decoded = decode_frames(frames)
        assert [m["job"] for m in decoded] == list(range(len(specs)))
        assert [
            TrialSpec.from_dict(m["spec"]).key for m in decoded
        ] == [s.key for s in specs]


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


class TestResolveBackend:
    def test_default_tracks_worker_count(self):
        assert isinstance(resolve_backend(None, workers=1), InlineBackend)
        pool = resolve_backend(None, workers=4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 4

    def test_names_resolve(self):
        assert isinstance(
            resolve_backend("inline", workers=8), InlineBackend
        )
        assert isinstance(
            resolve_backend("process", workers=2), ProcessPoolBackend
        )

    def test_instance_passthrough(self):
        backend = InlineBackend()
        assert resolve_backend(backend, workers=9) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            resolve_backend("carrier-pigeon")

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=-1)

# ----------------------------------------------------------------------
# golden cross-backend byte-identity
# ----------------------------------------------------------------------


class TestCrossBackendGolden:
    """ISSUE 3 acceptance: the same grid through every backend — and
    under an injected worker crash — serialises to identical bytes."""

    def test_process_backend_matches_inline(self, inline_json):
        assert sweep(workers=2, backend="process").to_json() == inline_json

    def test_split_by_protocol_merges_to_inline_bytes(
        self, tmp_path, inline_json
    ):
        # Each protocol runs into its own trial cache (as on two
        # machines); a whole-grid run over the copied-together caches
        # executes nothing and serialises to the inline bytes.
        parts = [
            flat_spec(
                scenarios=("static",),
                protocols=(protocol,),
                num_nodes=(40,),
                fanouts=(2, 3),
                replicates=1,
                num_messages=2,
            )
            for protocol in GRID.protocols
        ]
        merged = run_split_and_merge(
            GRID,
            parts,
            lambda grid, cache, progress: run_sweep(
                grid,
                base_config=BASE,
                root_seed=5,
                cache_dir=cache,
                progress=progress,
            ),
            tmp_path,
        )
        assert merged.to_json() == inline_json


# ----------------------------------------------------------------------
# run_sweep wiring
# ----------------------------------------------------------------------


class TestRunSweepBackendParam:
    def test_explicit_inline_with_many_workers_is_serial_and_identical(
        self, inline_json
    ):
        # backend="inline" wins over workers: the debugging path.
        assert sweep(workers=8, backend="inline").to_json() == inline_json

    def test_invalid_backend_name_raises(self):
        with pytest.raises(ConfigurationError, match="backend"):
            sweep(backend="quantum")

    def test_workers_zero_still_rejected_by_default_backends(self):
        with pytest.raises(ConfigurationError):
            sweep(workers=0)
