"""Tests for the pluggable sweep execution backends.

Covers the socket wire format (framing, chunk-robust decoding, the
hypothesis round-trip property), backend selection, the golden
cross-backend byte-identity contract (inline vs process vs socket,
including under an injected worker crash), worker join/leave/crash
re-dispatch driven deterministically by in-test fake workers, and error
propagation.
"""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import run_trial, scenario_names
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import flat_spec
from repro.experiments.sweep_backends import (
    DEFAULT_TRIAL_DEADLINE,
    FRAME_DEFLATE_FLAG,
    WIRE_FORMAT,
    FrameDecoder,
    InlineBackend,
    ProcessPoolBackend,
    ProtocolError,
    SocketWorkerBackend,
    SweepWorkerError,
    config_from_wire,
    config_to_wire,
    decode_frames,
    encode_frame,
    parse_endpoint,
    resolve_backend,
    run_worker,
)
from repro.experiments.sweep_results import TrialSpec

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


def free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------


class TestWireFormat:
    def test_frame_roundtrip(self):
        message = {"type": "hello", "format": WIRE_FORMAT}
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

    def test_config_wire_roundtrip(self):
        # Tuples become JSON lists and must come back as tuples, or
        # frozen-dataclass equality (and cache fingerprints) break.
        import json

        wire = json.loads(json.dumps(config_to_wire(BASE)))
        assert config_from_wire(wire) == BASE

    def test_parse_endpoint(self):
        assert parse_endpoint("example.org:7777") == ("example.org", 7777)
        for bad in ("nohost", ":123", "host:", "host:abc", "host:70000"):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)


class TestDeflateFrames:
    """Capability-negotiated zlib frame compression (ISSUE satellite)."""

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
    """The work-queue protocol round-trip is lossless and key-stable."""

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
            "config": config_to_wire(BASE),
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
        # Key stability is the determinism contract: the worker derives
        # the trial's whole RNG universe from this string.
        assert received.key == spec.key
        assert config_from_wire(decoded[0]["config"]) == BASE

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
        assert isinstance(
            resolve_backend("socket", workers=2), SocketWorkerBackend
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
            SocketWorkerBackend(workers=-1)

    def test_socket_without_workers_needs_fixed_port(self):
        # workers=0 on an ephemeral loopback port is a sweep nobody
        # can ever join.
        with pytest.raises(ConfigurationError, match="fixed listen"):
            SocketWorkerBackend(workers=0)
        SocketWorkerBackend(workers=0, listen=("0.0.0.0", 7777))

# ----------------------------------------------------------------------
# golden cross-backend byte-identity
# ----------------------------------------------------------------------


class TestCrossBackendGolden:
    """ISSUE 3 acceptance: the same grid through every backend — and
    under an injected worker crash — serialises to identical bytes."""

    def test_process_backend_matches_inline(self, inline_json):
        assert sweep(workers=2, backend="process").to_json() == inline_json

    def test_socket_backend_matches_inline(self, inline_json):
        result = sweep(workers=2, backend="socket")
        assert result.to_json() == inline_json

    def test_socket_backend_with_crashing_worker_matches_inline(
        self, inline_json
    ):
        # One injected worker hard-exits the moment it receives its
        # first trial; that trial must be re-dispatched to the two
        # healthy workers and the bytes must not change.
        backend = SocketWorkerBackend(
            workers=2,
            extra_worker_args=(("--crash-after", "0"),),
            idle_timeout=60.0,
        )
        assert sweep(backend=backend).to_json() == inline_json

    def test_socket_backend_streams_into_resume_cache(
        self, tmp_path, inline_json
    ):
        first = sweep(workers=2, backend="socket", cache_dir=tmp_path)
        assert first.to_json() == inline_json
        assert len(list(tmp_path.glob("trial_*.json"))) == len(
            GRID.expand()
        )
        # A later inline run resumes entirely from the socket run's
        # per-trial cache — the cache is backend-agnostic.
        events = []
        resumed = sweep(
            backend="inline",
            cache_dir=tmp_path,
            progress=lambda key, secs, cached: events.append(cached),
        )
        assert all(events) and len(events) == len(GRID.expand())
        assert resumed.to_json() == inline_json


# ----------------------------------------------------------------------
# deterministic worker churn, driven by in-test fake workers
# ----------------------------------------------------------------------


class _FakeWorker:
    """A scripted socket-backend worker living in a test thread."""

    def __init__(self, address):
        self.conn = socket.create_connection(address, timeout=30)
        self.conn.sendall(
            encode_frame({"type": "hello", "format": WIRE_FORMAT})
        )
        self.decoder = FrameDecoder()
        self.inbox = []

    def recv(self):
        while not self.inbox:
            data = self.conn.recv(65536)
            if not data:
                raise ConnectionError("server closed")
            self.inbox.extend(self.decoder.feed(data))
        return self.inbox.pop(0)

    def serve_one(self):
        """Handle one trial honestly; returns False on shutdown."""
        message = self.recv()
        if message["type"] != "trial":
            return False
        spec = TrialSpec.from_dict(message["spec"])
        config = config_from_wire(message["config"])
        result = run_trial(spec, config, int(message["root_seed"]))
        self.conn.sendall(
            encode_frame(
                {
                    "type": "result",
                    "job": message["job"],
                    "seconds": 0.01,
                    "result": result.to_dict(),
                }
            )
        )
        return True

    def close(self):
        self.conn.close()


def _external_backend(idle_timeout=30.0):
    return SocketWorkerBackend(
        workers=0,
        listen=("127.0.0.1", free_port()),
        idle_timeout=idle_timeout,
    )


def _run_in_thread(fn):
    errors = []

    def target():
        try:
            fn()
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, errors


class TestWorkerChurn:
    def test_crash_then_join_completes_with_identical_bytes(
        self, inline_json
    ):
        """A worker dies mid-trial; a replacement joins later and the
        requeued trial completes — scripted, so the crash is certain."""
        backend = _external_backend()

        def script():
            address = backend.wait_listening()
            # Worker 1 accepts a trial and dies without replying.
            crasher = _FakeWorker(address)
            message = crasher.recv()
            assert message["type"] == "trial"
            crasher.close()
            # Worker 2 joins afterwards and serves the whole queue,
            # including the re-dispatched trial.
            worker = _FakeWorker(address)
            while worker.serve_one():
                pass
            worker.close()

        thread, errors = _run_in_thread(script)
        result = sweep(backend=backend)
        thread.join(timeout=30)
        assert not errors, errors
        assert result.to_json() == inline_json

    def test_graceful_leave_mid_sweep(self, inline_json):
        """A worker leaving between trials loses nothing."""
        backend = _external_backend()

        def script():
            address = backend.wait_listening()
            quitter = _FakeWorker(address)
            assert quitter.serve_one()  # one honest trial, then leave
            quitter.close()
            worker = _FakeWorker(address)
            while worker.serve_one():
                pass
            worker.close()

        thread, errors = _run_in_thread(script)
        result = sweep(backend=backend)
        thread.join(timeout=30)
        assert not errors, errors
        assert result.to_json() == inline_json

    def test_worker_reported_error_aborts_sweep(self):
        backend = _external_backend()

        def script():
            address = backend.wait_listening()
            worker = _FakeWorker(address)
            message = worker.recv()
            worker.conn.sendall(
                encode_frame(
                    {
                        "type": "error",
                        "job": message["job"],
                        "error": "ValueError: boom",
                    }
                )
            )
            time.sleep(0.5)
            worker.close()

        thread, errors = _run_in_thread(script)
        with pytest.raises(SweepWorkerError, match="boom"):
            sweep(backend=backend)
        thread.join(timeout=30)
        assert not errors, errors

    def test_wire_format_mismatch_rejected_but_sweep_survives(
        self, inline_json
    ):
        backend = _external_backend()

        def script():
            address = backend.wait_listening()
            stale = socket.create_connection(address, timeout=30)
            stale.sendall(
                encode_frame({"type": "hello", "format": WIRE_FORMAT + 1})
            )
            decoder = FrameDecoder()
            inbox = []
            while not inbox:
                data = stale.recv(65536)
                if not data:
                    break
                inbox.extend(decoder.feed(data))
            assert inbox and inbox[0]["type"] == "reject"
            stale.close()
            worker = _FakeWorker(address)
            while worker.serve_one():
                pass
            worker.close()

        thread, errors = _run_in_thread(script)
        result = sweep(backend=backend)
        thread.join(timeout=30)
        assert not errors, errors
        assert result.to_json() == inline_json

    def test_no_workers_times_out(self):
        backend = _external_backend(idle_timeout=0.6)
        with pytest.raises(SweepWorkerError, match="no connected workers"):
            sweep(backend=backend)

    def test_silent_connection_does_not_count_as_a_worker(self):
        # A port scan / health probe that connects but never speaks
        # must not suppress the no-worker timeout as a phantom worker.
        backend = _external_backend(idle_timeout=1.5)
        probe = {}

        def script():
            address = backend.wait_listening()
            probe["conn"] = socket.create_connection(address, timeout=30)

        thread, errors = _run_in_thread(script)
        with pytest.raises(SweepWorkerError, match="no connected workers"):
            sweep(backend=backend)
        thread.join(timeout=30)
        assert not errors, errors
        probe["conn"].close()


# ----------------------------------------------------------------------
# the worker loop itself, against a scripted server
# ----------------------------------------------------------------------


class _FakeServer:
    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.address = self.sock.getsockname()[:2]

    def accept(self):
        conn, _addr = self.sock.accept()
        decoder = FrameDecoder()
        inbox = []

        def recv():
            while not inbox:
                data = conn.recv(65536)
                if not data:
                    raise ConnectionError("worker closed")
                inbox.extend(decoder.feed(data))
            return inbox.pop(0)

        return conn, recv

    def close(self):
        self.sock.close()


def _trial_message(job):
    spec = TrialSpec(
        scenario="static",
        protocol="ringcast",
        num_nodes=40,
        fanout=2,
        num_messages=1,
    )
    return {
        "type": "trial",
        "job": job,
        "root_seed": 5,
        "spec": spec.to_dict(),
        "config": config_to_wire(BASE),
    }


class TestRunWorker:
    def _drive(self, script, **worker_kwargs):
        from repro.experiments.sweep_backends import run_worker

        server = _FakeServer()
        outcome = {}

        def serve():
            conn, recv = server.accept()
            try:
                script(conn, recv, outcome)
            finally:
                conn.close()

        thread, errors = _run_in_thread(serve)
        completed = run_worker(
            f"127.0.0.1:{server.address[1]}", **worker_kwargs
        )
        thread.join(timeout=30)
        server.close()
        assert not errors, errors
        return completed, outcome

    def test_worker_runs_trial_and_obeys_shutdown(self):
        def script(conn, recv, outcome):
            hello = recv()
            # The worker advertises its capabilities so servers can
            # gate on them: snapshot shipping (overlay_reuse="grid"),
            # the array dissemination core, and deflated frames.
            assert hello == {
                "type": "hello",
                "format": WIRE_FORMAT,
                "snapshots": True,
                "array_core": True,
                "deflate": True,
            }
            conn.sendall(encode_frame(_trial_message(9)))
            reply = recv()
            outcome["reply"] = reply
            conn.sendall(encode_frame({"type": "shutdown"}))

        completed, outcome = self._drive(script)
        assert completed == 1
        reply = outcome["reply"]
        assert reply["type"] == "result" and reply["job"] == 9
        expected = run_trial(
            TrialSpec.from_dict(_trial_message(9)["spec"]), BASE, 5
        )
        assert reply["result"] == expected.to_dict()

    def test_worker_leaves_after_max_trials(self):
        def script(conn, recv, outcome):
            recv()  # hello
            conn.sendall(encode_frame(_trial_message(0)))
            outcome["reply"] = recv()
            # No shutdown: the worker must hang up on its own.

        completed, outcome = self._drive(script, max_trials=1)
        assert completed == 1
        assert outcome["reply"]["type"] == "result"

    def test_worker_reports_trial_error(self):
        def script(conn, recv, outcome):
            recv()  # hello
            message = _trial_message(0)
            message["spec"]["scenario"] = "no-such-scenario"
            conn.sendall(encode_frame(message))
            outcome["reply"] = recv()

        completed, outcome = self._drive(script)
        assert completed == 0
        assert outcome["reply"]["type"] == "error"
        assert "no-such-scenario" in outcome["reply"]["error"]

    @pytest.mark.parametrize("core", ["object", "array"])
    def test_worker_refuses_a_forced_core(self, core):
        # A pre-5.0 server forces a core with this key; the worker must
        # not run the trial under the population rule instead.
        def script(conn, recv, outcome):
            recv()  # hello
            message = _trial_message(0)
            message["core"] = core
            conn.sendall(encode_frame(message))
            outcome["reply"] = recv()

        completed, outcome = self._drive(script)
        assert completed == 0
        assert outcome["reply"]["type"] == "error"
        assert core in outcome["reply"]["error"]

    def test_worker_accepts_an_explicit_auto_core(self):
        def script(conn, recv, outcome):
            recv()  # hello
            message = _trial_message(0)
            message["core"] = "auto"
            conn.sendall(encode_frame(message))
            outcome["reply"] = recv()
            conn.sendall(encode_frame({"type": "shutdown"}))

        completed, outcome = self._drive(script)
        assert completed == 1
        assert outcome["reply"]["type"] == "result"


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

# ----------------------------------------------------------------------
# the per-trial deadline: live-but-silent workers must not stall a sweep
# ----------------------------------------------------------------------


class TestTrialDeadline:
    def test_deadline_validated(self):
        with pytest.raises(ConfigurationError, match="trial_deadline"):
            SocketWorkerBackend(workers=2, trial_deadline=0)

    def test_nan_deadline_rejected(self):
        # monotonic() + nan never passes: a NaN deadline would never
        # drop a stalled worker, and the sweep would hang.
        with pytest.raises(ConfigurationError, match="trial_deadline"):
            SocketWorkerBackend(workers=2, trial_deadline=float("nan"))
        with pytest.raises(ConfigurationError, match="trial_deadline"):
            resolve_backend(
                "socket", workers=2, trial_deadline=float("nan")
            )

    def test_resolve_backend_passes_deadline_through(self):
        backend = resolve_backend("socket", workers=2, trial_deadline=5.0)
        assert backend.trial_deadline == 5.0

    def test_resolve_backend_defaults_deadline(self):
        backend = resolve_backend("socket", workers=2)
        assert backend.trial_deadline == DEFAULT_TRIAL_DEADLINE

    def test_stalled_worker_dropped_and_trial_redispatched(
        self, inline_json
    ):
        """The ISSUE 7 stall: a worker completes its hello, accepts a
        trial, then goes silent *without closing the connection*. With
        a blocking recv the sweep would hang forever; the per-trial
        deadline must drop the staller, re-dispatch its trial to the
        honest worker, and still produce the reference bytes."""
        backend = SocketWorkerBackend(
            workers=0,
            listen=("127.0.0.1", free_port()),
            idle_timeout=60.0,
            trial_deadline=1.0,
        )

        def script():
            address = backend.wait_listening()
            staller = _FakeWorker(address)
            message = staller.recv()
            assert message["type"] == "trial"
            # ... and now: nothing. The connection stays open.
            worker = _FakeWorker(address)
            while worker.serve_one():
                pass
            worker.close()
            staller.close()

        thread, errors = _run_in_thread(script)
        start = time.monotonic()
        result = sweep(backend=backend)
        elapsed = time.monotonic() - start
        thread.join(timeout=60)
        assert not errors, errors
        assert result.to_json() == inline_json
        # The stall cost one deadline, not an idle_timeout / eternity.
        assert elapsed < 30.0


# ----------------------------------------------------------------------
# worker-side connect retry: workers may boot before the server
# ----------------------------------------------------------------------


class TestWorkerConnectRetry:
    def test_worker_waits_for_late_server(self):
        """`repro sweep-worker --connect` launched before the sweep
        server is up must retry instead of dying on the startup race."""
        port = free_port()

        def late_server():
            time.sleep(0.7)
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind(("127.0.0.1", port))
            server.listen()
            conn, _addr = server.accept()
            decoder = FrameDecoder()
            inbox = []
            while not inbox:
                data = conn.recv(65536)
                if not data:
                    raise ConnectionError("worker hung up early")
                inbox.extend(decoder.feed(data))
            assert inbox[0]["type"] == "hello"
            conn.sendall(encode_frame({"type": "shutdown"}))
            conn.close()
            server.close()

        thread, errors = _run_in_thread(late_server)
        completed = run_worker(f"127.0.0.1:{port}", connect_timeout=30.0)
        thread.join(timeout=30)
        assert not errors, errors
        assert completed == 0

    def test_connect_timeout_exhausted_raises(self):
        port = free_port()  # nothing ever listens here
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            run_worker(f"127.0.0.1:{port}", connect_timeout=0.5)
        assert time.monotonic() - start < 5.0
