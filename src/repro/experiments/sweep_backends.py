"""Pluggable trial-execution backends for the sweep engine.

:func:`repro.experiments.sweep.run_sweep` expands a grid into
independent :class:`~repro.experiments.sweep_results.TrialSpec` cells;
*how* those cells execute is this module's job. Three backends share
one contract — run every pending trial exactly once and report each
result through a ``finish`` callback on the caller's thread:

* :class:`InlineBackend` — serial, in-process. The debugging and
  determinism baseline; no pickling, no subprocesses.
* :class:`ProcessPoolBackend` — a local
  :class:`~concurrent.futures.ProcessPoolExecutor`, one machine wide.
* :class:`SocketWorkerBackend` — a TCP work-queue server. Workers
  (``repro sweep-worker --connect host:port``) may live on any host;
  the server serialises trials to them over a length-prefixed
  canonical-JSON wire format, re-dispatches the in-flight trial of any
  worker that crashes or disconnects, and accepts workers joining and
  leaving mid-sweep.

Because every trial's outcome is a pure function of ``(root_seed,
spec, config)``, the backend choice — like the worker count and which
worker ran which trial — never changes a single byte of the sweep's
canonical JSON (``tests/test_sweep_backends.py`` pins this across all
three backends, including under an injected worker crash).

The socket wire format is deliberately JSON, not pickle: frames are
``4-byte big-endian length + canonical JSON``, so workers of any build
can validate what they run, and a hypothesis property test can pin the
encode → frame → decode round-trip as lossless and key-stable. Trial
frames serialise specs via ``TrialSpec.to_dict()``, which flattens the
generic ``params`` mapping into the payload — a scenario plugin's
declared parameters (``num_parts``, ...) cross the wire with no
backend changes, and frames for the five seed scenarios are
byte-identical to the pre-``params`` format.

One caveat for the socket backend: workers resolve scenarios by name
in their own process, so scenarios registered at runtime in the parent
(:func:`~repro.experiments.scenario_matrix.register_scenario`) must
also be importable/registered on the worker side. The inline and
process backends ship the resolved executor and have no such limit.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.castore import bounded_inflate
from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import (
    execute_trial,
    run_trial,
    trial_config,
)
from repro.experiments.snapshot_store import SnapshotProvider
from repro.experiments.sweep_results import (
    TrialResult,
    TrialSpec,
    canonical_json,
)

__all__ = [
    "AUTH_SCHEME",
    "BACKEND_NAMES",
    "DEFAULT_TRIAL_DEADLINE",
    "FRAME_DEFLATE_FLAG",
    "FrameDecoder",
    "InlineBackend",
    "ProcessPoolBackend",
    "ProtocolError",
    "SocketWorkerBackend",
    "SweepBackend",
    "SweepWorkerError",
    "WIRE_FORMAT",
    "config_from_wire",
    "config_to_wire",
    "decode_frames",
    "encode_frame",
    "group_pending_by_overlay",
    "parse_endpoint",
    "resolve_backend",
    "run_timed_trial_group",
    "run_worker",
]

# Bump when the socket message schema changes; mismatched workers are
# turned away at the handshake instead of mis-running trials.
WIRE_FORMAT = 1

BACKEND_NAMES = ("inline", "process", "socket")

# finish(index, spec, result, seconds) — invoked on the caller's
# thread, once per pending trial, in completion order.
FinishHook = Callable[[int, TrialSpec, TrialResult, float], None]
PendingTrials = Sequence[Tuple[int, TrialSpec]]
TrialExecutors = Mapping[str, Callable]

_HEADER = struct.Struct(">I")
# A trial message is a few KB; anything near this is protocol garbage
# (e.g. a stray HTTP client), not a sweep peer.
MAX_FRAME_BYTES = 8 * 1024 * 1024
# High bit of the length word tags a zlib-deflated frame body — the
# version tag of the compressed framing. Capability-negotiated (see
# the "deflate" hello/trial fields), so plain peers never see it; the
# real frame length stays far below the flag.
FRAME_DEFLATE_FLAG = 0x80000000
# Frames smaller than this ship uncompressed — zlib overhead would
# beat the savings on tiny control messages.
_DEFLATE_MIN_BYTES = 512
_RECV_CHUNK = 65536
_POLL_SECONDS = 0.2
# A worker that has held one trial longer than this is considered
# wedged (deadlocked, swapping, GC-of-doom) even though its TCP
# connection is alive; the trial is re-dispatched elsewhere. Generous:
# the largest in-repo sweep trial completes in well under a minute.
DEFAULT_TRIAL_DEADLINE = 900.0

# Optional shared-secret wire authentication. The worker proves token
# knowledge inside its hello (HMAC over the hello body), and once both
# sides agree, every later frame carries an HMAC-SHA256 tag over its
# (possibly deflated) body. Hello and reject frames stay plain so a
# mis-tokened peer can always be turned away with a readable reason
# instead of a hang.
AUTH_SCHEME = "hmac-sha256"
_AUTH_TAG_BYTES = 32
_AUTH_HELLO_CONTEXT = b"repro-sweep-hello:"
_AUTH_FRAME_CONTEXT = b"repro-sweep-frame:"


def _frame_auth_key(token: str) -> bytes:
    """The per-frame MAC key derived from the shared token."""
    return hashlib.sha256(
        _AUTH_FRAME_CONTEXT + token.encode("utf-8")
    ).digest()


def _hello_proof(token: str, hello: Mapping[str, Any]) -> str:
    """HMAC proof binding the token to the hello body (minus itself)."""
    body = {k: v for k, v in hello.items() if k != "auth"}
    return hmac.new(
        token.encode("utf-8"),
        _AUTH_HELLO_CONTEXT + canonical_json(body).encode("utf-8"),
        hashlib.sha256,
    ).hexdigest()


class ProtocolError(RuntimeError):
    """The socket wire format was violated (bad frame, bad message)."""


class _TrialStalled(ConnectionError):
    """A live-but-silent worker blew the per-trial deadline.

    Subclasses :class:`ConnectionError` so the dispatch loop's existing
    crash handler re-queues the in-flight trial and drops the worker —
    a stall is a crash that forgot to close the socket.
    """


class SweepWorkerError(RuntimeError):
    """A socket sweep could not complete (worker failure, no workers)."""


# ----------------------------------------------------------------------
# wire format: 4-byte big-endian length + canonical JSON
# ----------------------------------------------------------------------


def encode_frame(
    message: Mapping[str, Any],
    compress: bool = False,
    auth_key: Optional[bytes] = None,
) -> bytes:
    """Serialise one protocol message into a length-prefixed frame.

    With ``compress``, bodies big enough to benefit are zlib-deflated
    and the length word carries :data:`FRAME_DEFLATE_FLAG` — only send
    compressed frames to peers that advertised the ``deflate``
    capability; everyone decodes plain frames.

    With ``auth_key``, an HMAC-SHA256 tag over the final (possibly
    deflated) body is appended and covered by the length word — only
    for peers that negotiated authentication at hello time.
    """
    body = canonical_json(dict(message)).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    flags = 0
    if compress and len(body) >= _DEFLATE_MIN_BYTES:
        deflated = zlib.compress(body, 6)
        if len(deflated) < len(body):
            body = deflated
            flags = FRAME_DEFLATE_FLAG
    if auth_key is not None:
        body += hmac.new(auth_key, body, hashlib.sha256).digest()
    return _HEADER.pack(len(body) | flags) + body


class FrameDecoder:
    """Incremental frame parser: feed raw bytes, get whole messages.

    TCP has no message boundaries, so the decoder buffers partial
    frames across :meth:`feed` calls; any chunking of the byte stream
    decodes to the same message sequence (property-tested).

    Setting :attr:`auth_key` (after an authenticated hello exchange)
    makes every subsequent frame require a valid trailing HMAC tag.
    :attr:`allow_plain_reject` additionally lets an *unauthenticated*
    ``reject`` message through — the one server message a worker whose
    token the server refused can still legitimately receive.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.auth_key: Optional[bytes] = None
        self.allow_plain_reject = False

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every now-complete message."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while len(self._buffer) >= _HEADER.size:
            (word,) = _HEADER.unpack_from(self._buffer)
            deflated = bool(word & FRAME_DEFLATE_FLAG)
            length = word & ~FRAME_DEFLATE_FLAG
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame claims {length} bytes "
                    f"(limit {MAX_FRAME_BYTES}); peer is not speaking "
                    "the sweep protocol"
                )
            if len(self._buffer) < _HEADER.size + length:
                break
            body = bytes(
                self._buffer[_HEADER.size : _HEADER.size + length]
            )
            del self._buffer[: _HEADER.size + length]
            authenticated = True
            if self.auth_key is not None:
                stripped = self._strip_auth(body)
                if stripped is None:
                    authenticated = False
                else:
                    body = stripped
            if deflated:
                body = self._inflate(body)
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                if not authenticated:
                    raise ProtocolError("frame authentication failed")
                raise ProtocolError(f"undecodable frame body: {exc}")
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got "
                    f"{type(message).__name__}"
                )
            # A server that refused our token cannot MAC its terminal
            # control frames; letting them through plain only enables
            # what a bare connection reset already could.
            if not authenticated and not (
                self.allow_plain_reject
                and message.get("type") in ("reject", "shutdown")
            ):
                raise ProtocolError("frame authentication failed")
            messages.append(message)
        return messages

    def _strip_auth(self, body: bytes) -> Optional[bytes]:
        """``body`` minus a valid trailing tag, or ``None`` if invalid."""
        assert self.auth_key is not None
        if len(body) < _AUTH_TAG_BYTES:
            return None
        payload, tag = body[:-_AUTH_TAG_BYTES], body[-_AUTH_TAG_BYTES:]
        expected = hmac.new(self.auth_key, payload, hashlib.sha256)
        if not hmac.compare_digest(expected.digest(), tag):
            return None
        return payload

    @staticmethod
    def _inflate(body: bytes) -> bytes:
        """Decompress a deflated frame body, bounded against zip bombs:
        anything expanding past the frame limit (or not a complete
        zlib stream) is a protocol violation, not an allocation."""
        try:
            return bounded_inflate(body, MAX_FRAME_BYTES)
        except ValueError as exc:
            raise ProtocolError(f"undecodable deflated frame: {exc}")


def decode_frames(data: bytes) -> List[Dict[str, Any]]:
    """Decode a complete byte string of back-to-back frames."""
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    if decoder._buffer:
        raise ProtocolError(
            f"{len(decoder._buffer)} trailing bytes after the last "
            "complete frame"
        )
    return messages


def config_to_wire(config: ExperimentConfig) -> Dict[str, Any]:
    """An :class:`ExperimentConfig` as a JSON-safe mapping."""
    return asdict(config)


def config_from_wire(payload: Mapping[str, Any]) -> ExperimentConfig:
    """Rebuild a config from its wire form (JSON turned tuples into
    lists; coerce them back so frozen-dataclass equality holds)."""
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    return ExperimentConfig(**coerced)


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv4 / hostname)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"endpoint {text!r} is not of the form host:port"
        )
    try:
        number = int(port)
    except ValueError:
        raise ConfigurationError(
            f"endpoint {text!r} has a non-numeric port"
        ) from None
    if not 0 <= number <= 65535:
        raise ConfigurationError(f"port {number} out of range")
    return host, number


def _recv_message(
    conn: socket.socket,
    decoder: FrameDecoder,
    inbox: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Block until one whole message is available on ``conn``."""
    while not inbox:
        data = conn.recv(_RECV_CHUNK)
        if not data:
            raise ConnectionError("peer closed the connection")
        inbox.extend(decoder.feed(data))
    return inbox.pop(0)


def _enable_keepalive(conn: socket.socket) -> None:
    """Make a vanished peer (power loss, partition — no FIN/RST) error
    out of ``recv`` in ~a minute instead of the kernel-default hours,
    so its in-flight trial gets re-dispatched rather than hanging the
    sweep. The tuning knobs are Linux-specific; elsewhere plain
    keepalive still applies."""
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for name, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 3),
    ):
        if hasattr(socket, name):
            try:
                conn.setsockopt(
                    socket.IPPROTO_TCP, getattr(socket, name), value
                )
            except OSError:
                pass


# ----------------------------------------------------------------------
# the backend contract
# ----------------------------------------------------------------------


def run_timed_trial(
    spec: TrialSpec,
    config: ExperimentConfig,
    root_seed: int,
    executor: Callable,
    provider: Optional[SnapshotProvider] = None,
) -> Tuple[TrialResult, float]:
    """Run one trial with the given executor, timing it where it runs."""
    started = time.perf_counter()
    result = execute_trial(
        executor,
        spec,
        config,
        root_seed,
        overlay_provider=provider,
    )
    return result, time.perf_counter() - started


def run_timed_trial_group(
    items: Sequence[Tuple[int, TrialSpec]],
    config: ExperimentConfig,
    root_seed: int,
    executors: TrialExecutors,
    provider: Optional[SnapshotProvider],
) -> List[Tuple[int, TrialResult, float]]:
    """Run trials sharing one overlay sequentially in this process.

    The sweep engine groups pending trials by snapshot address so a
    whole group lands on one pool worker: the first member builds (or
    loads) the overlay, the rest hit the provider's in-process memo —
    one warm-up per overlay instead of one per trial.
    """
    out: List[Tuple[int, TrialResult, float]] = []
    for index, spec in items:
        result, seconds = run_timed_trial(
            spec,
            config,
            root_seed,
            executors[spec.scenario],
            provider,
        )
        out.append((index, result, seconds))
    return out


def group_pending_by_overlay(
    pending: PendingTrials,
    config: ExperimentConfig,
    root_seed: int,
    provider: SnapshotProvider,
) -> List[List[Tuple[int, TrialSpec]]]:
    """Partition pending trials into overlay-sharing groups.

    Groups preserve first-occurrence order and members keep grid order,
    so scheduling stays deterministic; under the default ``trial``
    overlay-reuse mode every group is a singleton (per-trial overlay
    universes never collide) and grouping degenerates to the legacy
    per-trial dispatch.
    """
    groups: Dict[str, List[Tuple[int, TrialSpec]]] = {}
    order: List[str] = []
    for index, spec in pending:
        address = provider.address_for(
            spec, trial_config(spec, config, root_seed), root_seed
        )
        if address not in groups:
            groups[address] = []
            order.append(address)
        groups[address].append((index, spec))
    return [groups[address] for address in order]


class SweepBackend(ABC):
    """How a sweep's pending trials get executed.

    Implementations must call ``finish(index, spec, result, seconds)``
    exactly once per pending trial, from the caller's thread — the
    sweep engine does cache writes and progress narration inside it.
    Completion *order* is free; the engine reassembles grid order.

    ``provider`` (a
    :class:`~repro.experiments.snapshot_store.SnapshotProvider`, or
    ``None`` when the overlay snapshot store / overlay reuse is off)
    is threaded to the trial executors so warm-ups can be skipped.
    """

    name: str = "abstract"

    @abstractmethod
    def run_trials(
        self,
        pending: PendingTrials,
        config: ExperimentConfig,
        root_seed: int,
        executors: TrialExecutors,
        finish: FinishHook,
        provider: Optional[SnapshotProvider] = None,
    ) -> None:
        """Execute every ``(index, spec)`` pair and report via ``finish``."""


class InlineBackend(SweepBackend):
    """Serial in-process execution — no pickling, no subprocesses."""

    name = "inline"

    def run_trials(
        self,
        pending,
        config,
        root_seed,
        executors,
        finish,
        provider=None,
    ) -> None:
        for index, spec in pending:
            result, seconds = run_timed_trial(
                spec,
                config,
                root_seed,
                executors[spec.scenario],
                provider,
            )
            finish(index, spec, result, seconds)


class ProcessPoolBackend(SweepBackend):
    """A local process pool — one machine, ``workers`` cores."""

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = workers

    def run_trials(
        self,
        pending,
        config,
        root_seed,
        executors,
        finish,
        provider=None,
    ) -> None:
        """Overlay-aware dispatch: each shared overlay is built by
        exactly one worker. Without a provider, and under
        ``overlay_reuse="trial"``, every trial is its own group.

        When there are at least as many overlay groups as workers, one
        pool task per group keeps every core busy. When groups are
        *fewer* than workers (one protocol, many fanouts) and the
        provider has an on-disk store, whole-group tasks would idle
        most of the pool — so instead each group's first trial runs
        alone (building and persisting the overlay), and the remaining
        trials then fan out individually at full width, loading the
        stored overlay. Without a disk store the sibling processes
        could not share the build, so grouped dispatch is kept there.
        """
        if self.workers == 1 or len(pending) <= 1:
            # A one-wide pool is pure overhead; run inline.
            InlineBackend().run_trials(
                pending, config, root_seed, executors, finish, provider
            )
            return
        groups = (
            group_pending_by_overlay(pending, config, root_seed, provider)
            if provider is not None
            else [[item] for item in pending]
        )
        specs_by_index = {index: spec for index, spec in pending}
        width = min(self.workers, len(pending))

        def executors_for(items):
            return {
                scenario: executors[scenario]
                for scenario in {spec.scenario for _idx, spec in items}
            }

        # Singleton groups (always the case without a provider) never
        # leave the pool short of work.
        if len(groups) >= width or provider.store_dir is None:
            with ProcessPoolExecutor(
                max_workers=min(width, len(groups))
            ) as pool:
                futures = [
                    pool.submit(
                        run_timed_trial_group,
                        group,
                        config,
                        root_seed,
                        executors_for(group),
                        provider,
                    )
                    for group in groups
                ]
                for future in as_completed(futures):
                    for index, result, seconds in future.result():
                        finish(
                            index, specs_by_index[index], result, seconds
                        )
            return

        leaders = [group[0] for group in groups]
        followers = [item for group in groups for item in group[1:]]
        with ProcessPoolExecutor(max_workers=width) as pool:
            for phase in (leaders, followers):
                # The phase boundary is what guarantees followers find
                # their overlay already persisted instead of rebuilding
                # it; results are identical either way, this is purely
                # scheduling.
                futures = {
                    pool.submit(
                        run_timed_trial,
                        spec,
                        config,
                        root_seed,
                        executors[spec.scenario],
                        provider,
                    ): (index, spec)
                    for index, spec in phase
                }
                for future in as_completed(futures):
                    index, spec = futures[future]
                    result, seconds = future.result()
                    finish(index, spec, result, seconds)


# ----------------------------------------------------------------------
# socket work-queue backend
# ----------------------------------------------------------------------


class _ServerState:
    """Shared state between the acceptor/handler threads and the
    collecting main thread."""

    def __init__(
        self,
        pending: PendingTrials,
        config: ExperimentConfig,
        root_seed: int,
        provider: Optional[SnapshotProvider] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        self.auth_token = auth_token
        self.jobs: "queue.Queue[Tuple[int, TrialSpec]]" = queue.Queue()
        for item in pending:
            self.jobs.put(item)
        self.results: "queue.Queue[Tuple]" = queue.Queue()
        self.stop = threading.Event()
        self.config = config
        self.config_wire = config_to_wire(config)
        self.root_seed = root_seed
        self.provider = provider
        # Whether any pending trial could run on the array dissemination
        # core: a worker predating the array core would run such a trial
        # on the object core — silently different numbers depending on
        # who got the trial — so it must be turned away at the handshake.
        from repro.arraysim import uses_array_core

        self.needs_array_core = any(
            uses_array_core(spec.num_nodes) for _index, spec in pending
        )
        self.connections_seen = 0
        self.active_handlers = 0
        self.lock = threading.Lock()


class SocketWorkerBackend(SweepBackend):
    """A TCP work-queue server distributing trials to worker processes.

    Args:
        workers: Local worker processes to spawn (``repro sweep-worker``
            subprocesses connecting over loopback). ``0`` spawns none —
            the sweep then waits for external workers to connect to
            ``listen``.
        listen: ``(host, port)`` to bind; port ``0`` picks a free one.
            Use ``("0.0.0.0", fixed_port)`` to accept workers from
            other hosts.
        extra_worker_args: Extra argument tuples, one additional local
            worker spawned per entry with those flags appended (tests
            use this to inject ``--crash-after`` workers).
        idle_timeout: Seconds without any connected worker and without
            progress before the sweep gives up (prevents a server with
            no workers from hanging forever).
        max_respawns: Crash-respawn budget for the spawned local
            workers (default ``2 * workers``). Injected
            ``extra_worker_args`` workers are never respawned.
        trial_deadline: Seconds a single dispatched trial may remain
            unanswered before the worker is declared stalled, its
            connection dropped, and the trial re-dispatched — the
            live-but-stuck counterpart of the crash re-dispatch path.
        auth_token: Optional shared secret. Workers must prove token
            knowledge in their hello (HMAC-SHA256) and every post-hello
            frame in both directions then carries an HMAC tag;
            mis-tokened workers are turned away with a plain ``reject``
            instead of hanging. Spawned local workers inherit the token
            through the ``REPRO_SWEEP_AUTH`` environment variable.

    Workers may join and leave at any time; a worker that disconnects
    with a trial in flight gets that trial re-dispatched to another
    worker, and a worker that stays connected but silent past
    ``trial_deadline`` is treated the same way. A worker *reporting a
    trial exception* aborts the sweep — trials are deterministic, so
    retrying elsewhere cannot help.

    The bound address is published as :attr:`address` once the server
    is listening (see :meth:`wait_listening`) so external workers and
    tests can find an ephemeral port.
    """

    name = "socket"

    def __init__(
        self,
        workers: int = 2,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        extra_worker_args: Sequence[Sequence[str]] = (),
        idle_timeout: float = 120.0,
        max_respawns: Optional[int] = None,
        trial_deadline: float = DEFAULT_TRIAL_DEADLINE,
        auth_token: Optional[str] = None,
    ) -> None:
        if not trial_deadline > 0:  # also rejects NaN
            raise ConfigurationError(
                f"trial_deadline must be > 0, got {trial_deadline}"
            )
        if workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {workers}"
            )
        if workers == 0 and not extra_worker_args:
            # Valid — external workers only — but keep the obvious
            # misconfiguration (no workers at all, loopback ephemeral
            # port nobody can discover) from hanging until timeout.
            host, port = listen
            if port == 0:
                raise ConfigurationError(
                    "socket backend with workers=0 needs a fixed listen "
                    "port for external workers to connect to"
                )
        self.workers = workers
        self.listen_address = (listen[0], int(listen[1]))
        self.extra_worker_args = tuple(
            tuple(args) for args in extra_worker_args
        )
        self.idle_timeout = idle_timeout
        self.max_respawns = (
            max_respawns if max_respawns is not None else 2 * workers
        )
        self.trial_deadline = trial_deadline
        self.auth_token = auth_token
        self.address: Optional[Tuple[str, int]] = None
        self._listening = threading.Event()

    def wait_listening(
        self, timeout: float = 10.0
    ) -> Tuple[str, int]:
        """Block until the server socket is bound; return its address."""
        if not self._listening.wait(timeout):
            raise SweepWorkerError(
                "socket backend did not start listening in time"
            )
        assert self.address is not None
        return self.address

    # -- worker process management ------------------------------------

    def _worker_command(self, extra: Sequence[str]) -> List[str]:
        assert self.address is not None
        host, port = self.address
        connect_host = "127.0.0.1" if host in ("0.0.0.0", "") else host
        return [
            sys.executable,
            "-m",
            "repro",
            "sweep-worker",
            "--connect",
            f"{connect_host}:{port}",
            *extra,
        ]

    def _spawn_worker(
        self, extra: Sequence[str] = ()
    ) -> "subprocess.Popen":
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (package_root, env.get("PYTHONPATH", ""))
            if part
        )
        if self.auth_token is not None:
            # Environment, not argv: tokens must not show up in `ps`.
            env["REPRO_SWEEP_AUTH"] = self.auth_token
        return subprocess.Popen(
            self._worker_command(extra),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    # -- server threads ------------------------------------------------

    def _accept_loop(
        self, server: socket.socket, state: _ServerState
    ) -> None:
        server.settimeout(_POLL_SECONDS)
        handlers: List[threading.Thread] = []
        while not state.stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with state.lock:
                state.connections_seen += 1
            thread = threading.Thread(
                target=self._serve_worker,
                args=(conn, state),
                daemon=True,
            )
            handlers.append(thread)
            thread.start()
        for thread in handlers:
            thread.join(timeout=2.0)

    def _serve_worker(
        self, conn: socket.socket, state: _ServerState
    ) -> None:
        """One connected worker: handshake, then job/result round-trips.

        Any connection failure with a trial in flight puts the trial
        back on the queue — re-dispatch is the crash story.
        """
        registered = False
        decoder = FrameDecoder()
        inbox: List[Dict[str, Any]] = []
        auth_key: Optional[bytes] = None
        try:
            _enable_keepalive(conn)
            # Handshake deadline: a stray connection that never speaks
            # (port scan, health probe) must not become a phantom
            # worker that suppresses the idle-timeout.
            conn.settimeout(10.0)
            hello = _recv_message(conn, decoder, inbox)
            if (
                hello.get("type") != "hello"
                or hello.get("format") != WIRE_FORMAT
            ):
                conn.sendall(
                    encode_frame(
                        {
                            "type": "reject",
                            "reason": (
                                f"wire format {hello.get('format')!r} "
                                f"!= {WIRE_FORMAT}"
                            ),
                        }
                    )
                )
                return
            # Authentication is negotiated strictly: a token on exactly
            # one side is a deployment error surfaced as a readable
            # reject, never a hang or a silently-unauthenticated sweep.
            auth = hello.get("auth")
            if state.auth_token is None:
                if auth is not None:
                    conn.sendall(
                        encode_frame(
                            {
                                "type": "reject",
                                "reason": (
                                    "worker sent an auth token but this "
                                    "sweep runs without --auth-token"
                                ),
                            }
                        )
                    )
                    return
            else:
                if (
                    not isinstance(auth, dict)
                    or auth.get("scheme") != AUTH_SCHEME
                ):
                    conn.sendall(
                        encode_frame(
                            {
                                "type": "reject",
                                "reason": (
                                    "this sweep requires --auth-token "
                                    f"({AUTH_SCHEME})"
                                ),
                            }
                        )
                    )
                    return
                expected = _hello_proof(state.auth_token, hello)
                if not hmac.compare_digest(
                    str(auth.get("proof", "")), expected
                ):
                    conn.sendall(
                        encode_frame(
                            {"type": "reject", "reason": "auth token mismatch"}
                        )
                    )
                    return
                auth_key = _frame_auth_key(state.auth_token)
                decoder.auth_key = auth_key
            if state.needs_array_core and not hello.get("array_core"):
                # A core-oblivious worker would run array-core trials
                # on the object core — different numbers depending on
                # which worker drew the trial. Turn it away.
                conn.sendall(
                    encode_frame(
                        {
                            "type": "reject",
                            "reason": (
                                "this sweep selects the array "
                                "dissemination core and needs "
                                "core-aware workers"
                            ),
                        }
                    )
                )
                return
            if (
                state.provider is not None
                and state.provider.mode != "trial"
                and not hello.get("snapshots")
            ):
                # A pre-snapshot worker would build overlays in the
                # legacy per-trial universes — silently different
                # results under overlay_reuse="grid". Turn it away.
                conn.sendall(
                    encode_frame(
                        {
                            "type": "reject",
                            "reason": (
                                "this sweep runs overlay_reuse="
                                f"{state.provider.mode!r} and needs "
                                "snapshot-capable workers"
                            ),
                        }
                    )
                )
                return
            # Blocking (no-timeout) sends — large snapshot frames to a
            # slow-draining worker must not be clipped by the receive
            # poll interval. Receives go through _await_reply, which
            # narrows the timeout while it waits.
            conn.settimeout(None)
            # Compress frames only toward peers that advertised the
            # capability; plain workers keep receiving plain frames.
            deflate = bool(hello.get("deflate"))
            with state.lock:
                state.active_handlers += 1
            registered = True
            while not state.stop.is_set():
                try:
                    job = state.jobs.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    continue
                index, spec = job
                message: Dict[str, Any] = {
                    "type": "trial",
                    "job": index,
                    "root_seed": state.root_seed,
                    "spec": spec.to_dict(),
                    "config": state.config_wire,
                }
                if deflate:
                    # Tells the worker it may deflate its result
                    # frames back to us.
                    message["deflate"] = True
                if state.provider is not None:
                    message["overlay"] = {"mode": state.provider.mode}
                    entry = state.provider.entry_for(
                        spec,
                        trial_config(spec, state.config, state.root_seed),
                        state.root_seed,
                    )
                    if entry is not None:
                        message["snapshot_entry"] = entry
                try:
                    try:
                        frame = encode_frame(
                            message, compress=deflate, auth_key=auth_key
                        )
                    except ProtocolError:
                        # Snapshot too large for a frame: ship the bare
                        # trial; the worker just rebuilds the overlay.
                        message.pop("snapshot_entry", None)
                        frame = encode_frame(
                            message, compress=deflate, auth_key=auth_key
                        )
                    conn.sendall(frame)
                    reply = self._await_reply(conn, decoder, inbox, state)
                except (OSError, ConnectionError, ProtocolError):
                    state.jobs.put(job)  # crashed/stalled: re-dispatch
                    return
                if (
                    reply.get("type") == "result"
                    and reply.get("job") == index
                ):
                    try:
                        seconds = float(reply.get("seconds", 0.0))
                    except (TypeError, ValueError):
                        seconds = 0.0  # garbage timing isn't worth a crash
                    if state.provider is not None:
                        built = reply.get("snapshot_entries", ())
                        if isinstance(built, list):
                            for entry in built:
                                # Validated like a disk read; a stale or
                                # corrupt entry is simply not absorbed.
                                state.provider.preload_entry(
                                    entry,
                                    spec,
                                    trial_config(
                                        spec, state.config, state.root_seed
                                    ),
                                    state.root_seed,
                                )
                    state.results.put(
                        ("done", index, spec, reply.get("result"), seconds)
                    )
                elif reply.get("type") == "error":
                    state.results.put(
                        (
                            "fatal",
                            f"worker failed trial {spec.key}: "
                            f"{reply.get('error')}",
                        )
                    )
                    return
                else:
                    # Protocol violation == crash: reclaim the trial.
                    state.jobs.put(job)
                    return
        except (OSError, ConnectionError, ProtocolError):
            return  # handshake/idle disconnect; nothing in flight
        finally:
            if registered:
                with state.lock:
                    state.active_handlers -= 1
            try:
                conn.sendall(
                    encode_frame({"type": "shutdown"}, auth_key=auth_key)
                )
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _await_reply(
        self,
        conn: socket.socket,
        decoder: FrameDecoder,
        inbox: List[Dict[str, Any]],
        state: _ServerState,
    ) -> Dict[str, Any]:
        """Wait for the in-flight trial's reply, with a deadline.

        A plain blocking ``recv`` here once let a live-but-stuck worker
        stall the sweep forever: TCP keepalive only detects *vanished*
        peers, not connected processes that stopped computing. Polling
        with a ``time.monotonic`` deadline converts that stall into
        :class:`_TrialStalled`, which the caller's crash handler turns
        into a re-dispatch. Also honours ``state.stop`` so shutdown is
        not held up by a silent worker.
        """
        deadline = time.monotonic() + self.trial_deadline
        conn.settimeout(_POLL_SECONDS)
        try:
            while not inbox:
                if state.stop.is_set():
                    raise _TrialStalled(
                        "sweep is stopping with a trial in flight"
                    )
                if time.monotonic() > deadline:
                    raise _TrialStalled(
                        f"worker held a trial past the "
                        f"{self.trial_deadline:.0f}s deadline; "
                        "re-dispatching"
                    )
                try:
                    data = conn.recv(_RECV_CHUNK)
                except socket.timeout:
                    continue  # poll tick: re-check stop + deadline
                if not data:
                    raise ConnectionError("peer closed the connection")
                inbox.extend(decoder.feed(data))
            return inbox.pop(0)
        finally:
            conn.settimeout(None)

    # -- the collecting main loop --------------------------------------

    def run_trials(
        self,
        pending,
        config,
        root_seed,
        executors,
        finish,
        provider=None,
    ) -> None:
        if not pending:
            return
        state = _ServerState(
            pending, config, root_seed, provider,
            auth_token=self.auth_token,
        )
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind(self.listen_address)
        except OSError:
            server.close()
            raise
        server.listen()
        self.address = server.getsockname()[:2]
        self._listening.set()
        acceptor = threading.Thread(
            target=self._accept_loop, args=(server, state), daemon=True
        )
        acceptor.start()

        spawned: List["subprocess.Popen"] = []
        injected: List["subprocess.Popen"] = []
        respawns_used = 0
        try:
            # Injected (test) workers first so they reliably see jobs.
            for extra in self.extra_worker_args:
                injected.append(self._spawn_worker(extra))
            for _ in range(self.workers):
                spawned.append(self._spawn_worker())

            done = set()
            total = len(pending)
            # The idle clock measures how long we've been *worker-less*,
            # not how long since the last finished trial — a crash after
            # a minutes-long trial must still grant replacements the
            # full idle_timeout window to join.
            idle_since: Optional[float] = time.monotonic()
            while len(done) < total:
                try:
                    item = state.results.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    respawns_used += self._revive_workers(
                        spawned, respawns_used
                    )
                    idle_since = self._check_liveness(state, idle_since)
                    continue
                if item[0] == "fatal":
                    raise SweepWorkerError(item[1])
                _tag, index, spec, payload, seconds = item
                if index in done:
                    continue  # duplicate report; first result stands
                try:
                    result = TrialResult.from_dict(payload)
                except Exception as exc:
                    raise SweepWorkerError(
                        f"worker returned an undecodable result for "
                        f"{spec.key}: {exc}"
                    )
                if result.spec != spec:
                    raise SweepWorkerError(
                        f"worker returned a result for {result.spec.key}"
                        f" when asked for {spec.key}"
                    )
                done.add(index)
                finish(index, spec, result, seconds)
        finally:
            state.stop.set()
            try:
                server.close()
            except OSError:
                pass
            acceptor.join(timeout=5.0)
            self._reap_workers(spawned + injected)
            self._listening.clear()
            self.address = None

    def _revive_workers(
        self, spawned: List["subprocess.Popen"], used: int
    ) -> int:
        """Respawn crashed local workers within the budget; return how
        many were replaced this round."""
        revived = 0
        for position, proc in enumerate(spawned):
            if proc.poll() is None:
                continue
            if used + revived >= self.max_respawns:
                break
            spawned[position] = self._spawn_worker()
            revived += 1
        return revived

    def _check_liveness(
        self, state: _ServerState, idle_since: Optional[float]
    ) -> Optional[float]:
        """Advance the worker-less clock; raise once it runs out.

        Returns the new ``idle_since``: ``None`` while any worker is
        connected, otherwise the instant the server last became
        worker-less.
        """
        with state.lock:
            active = state.active_handlers
        if active > 0:
            return None  # workers are computing (or connected and idle)
        if idle_since is None:
            return time.monotonic()  # just lost the last worker
        if time.monotonic() - idle_since > self.idle_timeout:
            raise SweepWorkerError(
                f"no connected workers for {self.idle_timeout:.0f}s; "
                "start workers with 'repro sweep-worker --connect "
                "HOST:PORT' or raise workers="
            )
        return idle_since

    def _reap_workers(
        self, procs: Sequence["subprocess.Popen"]
    ) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# the worker process loop
# ----------------------------------------------------------------------


def _connect_with_retry(
    endpoint: Tuple[str, int], connect_timeout: float
) -> socket.socket:
    """Connect to the sweep server, retrying refused connections.

    Workers are routinely started alongside (or fractionally before)
    the server — an orchestration script, a CI job matrix — and a
    one-shot ``ConnectionRefusedError`` in that startup race used to
    kill the worker outright. Retry with bounded exponential backoff
    for up to ``connect_timeout`` seconds; other socket errors (bad
    host, unreachable network) still fail immediately.
    """
    delay = 0.2
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            return socket.create_connection(endpoint)
        except ConnectionRefusedError:
            if time.monotonic() + delay > deadline:
                raise
            time.sleep(delay)
            delay = min(delay * 2.0, 2.0)


def run_worker(
    connect: Union[str, Tuple[str, int]],
    max_trials: Optional[int] = None,
    crash_after: Optional[int] = None,
    progress: Optional[Callable[[str, float], None]] = None,
    connect_timeout: float = 10.0,
    auth_token: Optional[str] = None,
) -> int:
    """Serve one sweep as a worker: connect, run trials, report results.

    Used by ``repro sweep-worker --connect host:port``. Returns the
    number of trials completed. ``max_trials`` makes the worker leave
    gracefully after that many results (capacity-limited hosts);
    ``crash_after`` hard-exits the process upon *receiving* the next
    trial after that many completions — a test hook that simulates a
    worker dying with a trial in flight. ``connect_timeout`` bounds
    the retry window for a server that is not listening *yet*
    (startup race); see :func:`_connect_with_retry`.

    Scenarios are resolved by name in this process
    (:func:`~repro.experiments.scenario_matrix.run_trial`), so custom
    scenarios must be registered/importable on the worker side.

    When the server runs with the overlay snapshot store, trial frames
    may carry a serialized pre-built overlay (``snapshot_entry``); the
    worker then skips the warm-up entirely. Overlays the worker does
    build itself are shipped back with the result
    (``snapshot_entries``) so the server can hand them to the trial's
    siblings.

    With ``auth_token`` the hello carries an HMAC-SHA256 proof of the
    shared secret and every post-hello frame in both directions is
    tagged. A server refusing the token (or running without one) sends
    a plain ``reject``, which the worker honours as a graceful exit —
    mismatched tokens never hang either side.
    """
    endpoint = (
        parse_endpoint(connect) if isinstance(connect, str) else connect
    )
    completed = 0
    # One provider per overlay-reuse mode, persistent across trials:
    # sibling trials dispatched to this worker reuse the in-memory
    # overlay even when the server never ships one.
    providers: Dict[str, SnapshotProvider] = {}
    with _connect_with_retry(endpoint, connect_timeout) as conn:
        # Symmetric to the server side: if the server host vanishes
        # without a FIN, exit within ~a minute instead of holding the
        # process in recv for the kernel-default hours.
        _enable_keepalive(conn)
        hello: Dict[str, Any] = {
            "type": "hello",
            "format": WIRE_FORMAT,
            "snapshots": True,
            "array_core": True,
            "deflate": True,
        }
        auth_key: Optional[bytes] = None
        if auth_token is not None:
            hello["auth"] = {
                "scheme": AUTH_SCHEME,
                "proof": _hello_proof(auth_token, hello),
            }
            auth_key = _frame_auth_key(auth_token)
        # The hello itself is always plain — the server can only verify
        # tags after reading the proof inside it.
        conn.sendall(encode_frame(hello))
        decoder = FrameDecoder()
        if auth_key is not None:
            decoder.auth_key = auth_key
            # The one legitimate unauthenticated server message left is
            # a terminal reject/shutdown (token refused before the
            # server had a key to MAC with).
            decoder.allow_plain_reject = True
        inbox: List[Dict[str, Any]] = []
        while True:
            try:
                message = _recv_message(conn, decoder, inbox)
            except (OSError, ConnectionError):
                return completed  # server went away: sweep is over
            kind = message.get("type")
            if kind in ("shutdown", "reject"):
                return completed
            if kind != "trial":
                continue  # ignore unknown message types (forward compat)
            if crash_after is not None and completed >= crash_after:
                # Simulated crash: die with the trial in flight, no
                # reply, no cleanup — the server must re-dispatch.
                os._exit(17)
            spec = TrialSpec.from_dict(message["spec"])
            config = config_from_wire(message["config"])
            root_seed = int(message["root_seed"])
            # The server deflates frames to us only after our hello;
            # symmetrically, deflate replies only when the server
            # says (per trial) that it decodes them.
            deflate = bool(message.get("deflate"))
            started = time.perf_counter()
            try:
                # A pre-5.0 server sends ``core`` only to force a core
                # the threshold rule would not pick; running the trial
                # anyway would cache numbers under the other core's
                # digest, so it is a trial error, like an unknown mode.
                if message.get("core", "auto") != "auto":
                    raise ConfigurationError(
                        f"trial frame forces core {message['core']!r}; "
                        "this worker picks the core from the population"
                    )
                provider = None
                overlay = message.get("overlay")
                if isinstance(overlay, dict):
                    mode = overlay.get("mode", "trial")
                    provider = providers.get(mode)
                    if provider is None:
                        # Raises on a mode this build does not know —
                        # reported as a trial error, which aborts the
                        # sweep instead of mis-running it. collect_built
                        # because this worker drains + ships the built
                        # entries with each result.
                        provider = SnapshotProvider(
                            mode=mode, collect_built=True
                        )
                        providers[mode] = provider
                    entry = message.get("snapshot_entry")
                    if isinstance(entry, dict):
                        provider.preload_entry(
                            entry,
                            spec,
                            trial_config(spec, config, root_seed),
                            root_seed,
                        )
                result = run_trial(
                    spec,
                    config,
                    root_seed,
                    overlay_provider=provider,
                )
            except Exception as exc:  # deterministic: report, don't retry
                conn.sendall(
                    encode_frame(
                        {
                            "type": "error",
                            "job": message["job"],
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                        auth_key=auth_key,
                    )
                )
                return completed
            seconds = time.perf_counter() - started
            payload: Dict[str, Any] = {
                "type": "result",
                "job": message["job"],
                "seconds": seconds,
                "result": result.to_dict(),
            }
            if provider is not None:
                built = provider.drain_built_entries()
                if built:
                    payload["snapshot_entries"] = built
            try:
                frame = encode_frame(
                    payload, compress=deflate, auth_key=auth_key
                )
            except ProtocolError:
                # Overlay too large for a frame: still report the
                # result; siblings will rebuild instead of reusing.
                payload.pop("snapshot_entries", None)
                frame = encode_frame(
                    payload, compress=deflate, auth_key=auth_key
                )
            conn.sendall(frame)
            completed += 1
            if progress is not None:
                progress(spec.key, seconds)
            if max_trials is not None and completed >= max_trials:
                return completed


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


def resolve_backend(
    backend: Union[str, SweepBackend, None] = None,
    workers: int = 1,
    listen: Optional[Tuple[str, int]] = None,
    trial_deadline: Optional[float] = None,
    auth_token: Optional[str] = None,
) -> SweepBackend:
    """Turn a backend name (or ``None`` for the historical default)
    into a configured :class:`SweepBackend` instance.

    ``None`` preserves the pre-backend behaviour: inline at
    ``workers=1``, a local process pool otherwise. ``listen``,
    ``trial_deadline`` and ``auth_token`` only apply to the socket
    backend; a token with any other backend is a configuration error
    (silently ignoring it would fake security).
    """
    if isinstance(backend, SweepBackend):
        if auth_token is not None and not isinstance(
            backend, SocketWorkerBackend
        ):
            raise ConfigurationError(
                "auth_token only applies to the socket backend"
            )
        return backend
    if backend is None:
        backend = "inline" if workers == 1 else "process"
    if auth_token is not None and backend != "socket":
        raise ConfigurationError(
            "auth_token only applies to the socket backend, got "
            f"backend={backend!r}"
        )
    if backend == "inline":
        return InlineBackend()
    if backend == "process":
        return ProcessPoolBackend(workers=workers)
    if backend == "socket":
        return SocketWorkerBackend(
            workers=workers,
            listen=listen if listen is not None else ("127.0.0.1", 0),
            trial_deadline=(
                trial_deadline
                if trial_deadline is not None
                else DEFAULT_TRIAL_DEADLINE
            ),
            auth_token=auth_token,
        )
    raise ConfigurationError(
        f"unknown sweep backend {backend!r}; expected one of "
        f"{BACKEND_NAMES}"
    )
