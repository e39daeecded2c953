"""Tests for socket-backend frame authentication (shared-secret HMAC).

The wire contract: the hello frame always travels plain and carries an
HMAC proof when the worker holds a token; every post-hello frame is
MAC'd with a key derived from the token; rejects travel plain so a
mismatched worker learns why it was turned away instead of hanging.
Authenticated sweeps must stay byte-identical to inline runs.
"""

import socket
import threading

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_spec import flat_spec
from repro.experiments.sweep_backends import (
    AUTH_SCHEME,
    FrameDecoder,
    ProtocolError,
    SocketWorkerBackend,
    _frame_auth_key,
    _hello_proof,
    encode_frame,
    resolve_backend,
    run_worker,
)

BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)

GRID = flat_spec(
    scenarios=("static",),
    protocols=("randcast",),
    num_nodes=(40,),
    fanouts=(2, 3),
    replicates=1,
    num_messages=2,
)


def sweep(**kwargs):
    return run_sweep(GRID, base_config=BASE, root_seed=5, **kwargs)


def free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


KEY = _frame_auth_key("secret")


class TestAuthenticatedFrames:
    def test_roundtrip(self):
        decoder = FrameDecoder()
        decoder.auth_key = KEY
        message = {"type": "trial", "payload": "x" * 50}
        frames = decoder.feed(encode_frame(message, auth_key=KEY))
        assert frames == [message]

    def test_roundtrip_with_compression(self):
        decoder = FrameDecoder()
        decoder.auth_key = KEY
        message = {"type": "trial", "payload": "y" * 5000}
        encoded = encode_frame(message, compress=True, auth_key=KEY)
        assert decoder.feed(encoded) == [message]

    def test_tampered_body_rejected(self):
        decoder = FrameDecoder()
        decoder.auth_key = KEY
        encoded = bytearray(encode_frame({"type": "trial"}, auth_key=KEY))
        encoded[7] ^= 0x01
        with pytest.raises(ProtocolError):
            decoder.feed(bytes(encoded))

    def test_tampered_tag_rejected(self):
        decoder = FrameDecoder()
        decoder.auth_key = KEY
        encoded = bytearray(encode_frame({"type": "trial"}, auth_key=KEY))
        encoded[-1] ^= 0x01
        with pytest.raises(ProtocolError):
            decoder.feed(bytes(encoded))

    def test_plain_frame_rejected_when_key_expected(self):
        decoder = FrameDecoder()
        decoder.auth_key = KEY
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame({"type": "trial"}))

    def test_wrong_key_rejected(self):
        decoder = FrameDecoder()
        decoder.auth_key = _frame_auth_key("other")
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame({"type": "trial"}, auth_key=KEY))

    def test_plain_reject_passes_when_allowed(self):
        # A server that refused our token cannot MAC its terminal
        # control frames; those two types (and only those) may travel
        # plain toward a token-holding worker.
        decoder = FrameDecoder()
        decoder.auth_key = KEY
        decoder.allow_plain_reject = True
        reject = {"type": "reject", "reason": "auth token mismatch"}
        shutdown = {"type": "shutdown"}
        assert decoder.feed(encode_frame(reject)) == [reject]
        assert decoder.feed(encode_frame(shutdown)) == [shutdown]
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame({"type": "trial"}))

    def test_hello_proof_deterministic_and_token_bound(self):
        hello = {"type": "hello", "format": 1, "auth": {"scheme": AUTH_SCHEME}}
        proof = _hello_proof("secret", hello)
        assert proof == _hello_proof("secret", hello)
        assert proof != _hello_proof("other", hello)
        # The proof covers the hello minus its own auth block, so the
        # scheme field riding inside auth does not feed back into it.
        assert proof == _hello_proof("secret", {"type": "hello", "format": 1})


class TestAuthConfig:
    def test_token_requires_socket_backend(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("process", workers=2, auth_token="secret")
        with pytest.raises(ConfigurationError):
            resolve_backend("inline", auth_token="secret")
        backend = resolve_backend("socket", workers=1, auth_token="secret")
        assert isinstance(backend, SocketWorkerBackend)
        assert backend.auth_token == "secret"

    def test_facade_guard(self):
        with pytest.raises(ConfigurationError):
            sweep(backend="process", workers=2, auth_token="secret")


class TestAuthEndToEnd:
    def test_authenticated_sweep_matches_inline(self):
        inline = sweep(backend="inline").to_json()
        backend = SocketWorkerBackend(workers=2, auth_token="secret")
        assert sweep(backend=backend).to_json() == inline

    def _serve(self, auth_token):
        backend = SocketWorkerBackend(
            workers=0,
            listen=("127.0.0.1", free_port()),
            auth_token=auth_token,
        )
        box = {}

        def target():
            box["result"] = sweep(backend=backend)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        host, port = backend.wait_listening()
        return backend, thread, box, f"{host}:{port}"

    def test_mismatches_rejected_cleanly_then_sweep_completes(self):
        backend, thread, box, endpoint = self._serve("secret")
        # Each mismatch is turned away with a plain reject — the worker
        # returns 0 completed trials instead of hanging or crashing.
        assert run_worker(endpoint) == 0
        assert run_worker(endpoint, auth_token="wrong") == 0
        completed = run_worker(endpoint, auth_token="secret")
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert completed == len(GRID.expand())
        assert box["result"].to_json() == sweep(backend="inline").to_json()

    def test_token_worker_rejected_by_tokenless_server(self):
        backend, thread, box, endpoint = self._serve(None)
        assert run_worker(endpoint, auth_token="secret") == 0
        assert run_worker(endpoint) == len(GRID.expand())
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert "result" in box
