"""Pluggable trial-execution backends for the sweep engine.

:func:`repro.experiments.sweep.run_sweep` expands a grid into
independent :class:`~repro.experiments.sweep_results.TrialSpec` cells;
*how* those cells execute is this module's job. Two backends share one
contract — run every pending trial exactly once and report each result
through a ``finish`` callback on the caller's thread:

* :class:`InlineBackend` — serial, in-process. The debugging and
  determinism baseline; no pickling, no subprocesses.
* :class:`ProcessPoolBackend` — a local
  :class:`~concurrent.futures.ProcessPoolExecutor`, one machine wide.

Because every trial's outcome is a pure function of ``(root_seed,
spec, config)``, the backend choice — like the worker count and which
process ran which trial — never changes a single byte of the sweep's
canonical JSON (``tests/test_sweep_backends.py`` pins this).

A sweep spreads over several machines through its trial cache, not
through a backend: a trial's cache file is addressed by the root seed,
its spec key and its effective config, none of which depends on the
rest of the grid. Split the grid along any axis, run each part with its
own ``--cache`` on its own host, copy the cache directories together,
and a final run over the merged cache executes no trial and writes the
same bytes as one inline run (``docs/distributed_sweeps.md``).
"""

from __future__ import annotations

import json
import struct
import time
import zlib
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
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
from repro.common.errors import ConfigurationError, ProtocolError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario_matrix import execute_trial, trial_config
from repro.experiments.snapshot_store import SnapshotProvider
from repro.experiments.sweep_results import (
    TrialResult,
    TrialSpec,
    canonical_json,
)

__all__ = [
    "BACKEND_NAMES",
    "FRAME_DEFLATE_FLAG",
    "FrameDecoder",
    "InlineBackend",
    "MAX_FRAME_BYTES",
    "ProcessPoolBackend",
    "SweepBackend",
    "decode_frames",
    "encode_frame",
    "group_pending_by_overlay",
    "resolve_backend",
    "run_timed_trial_group",
]

BACKEND_NAMES = ("inline", "process")

# finish(index, spec, result, seconds) — invoked on the caller's
# thread, once per pending trial, in completion order.
FinishHook = Callable[[int, TrialSpec, TrialResult, float], None]
PendingTrials = Sequence[Tuple[int, TrialSpec]]
TrialExecutors = Mapping[str, Callable]


# ----------------------------------------------------------------------
# frame codec: 4-byte big-endian length + canonical JSON
# ----------------------------------------------------------------------

# Kept only because bench/benchlib/sweeps.py times it (frame_codec_us).
_HEADER = struct.Struct(">I")
# A frame is a few KB; anything near this is garbage, not a frame.
MAX_FRAME_BYTES = 8 * 1024 * 1024
# High bit of the length word tags a zlib-deflated frame body; the
# real frame length stays far below the flag.
FRAME_DEFLATE_FLAG = 0x80000000
# Frames smaller than this ship uncompressed — zlib overhead would
# beat the savings on tiny messages.
_DEFLATE_MIN_BYTES = 512


def encode_frame(message: Mapping[str, Any], compress: bool = False) -> bytes:
    """Serialise one message into a length-prefixed frame.

    With ``compress``, bodies big enough to benefit are zlib-deflated
    and the length word carries :data:`FRAME_DEFLATE_FLAG`.
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
    return _HEADER.pack(len(body) | flags) + body


class FrameDecoder:
    """Incremental frame parser: feed raw bytes, get whole messages.

    The decoder buffers partial frames across :meth:`feed` calls; any
    chunking of the byte stream decodes to the same message sequence
    (property-tested).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every now-complete message."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while len(self._buffer) >= _HEADER.size:
            (word,) = _HEADER.unpack_from(self._buffer)
            length = word & ~FRAME_DEFLATE_FLAG
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame claims {length} bytes "
                    f"(limit {MAX_FRAME_BYTES})"
                )
            if len(self._buffer) < _HEADER.size + length:
                break
            body = bytes(
                self._buffer[_HEADER.size : _HEADER.size + length]
            )
            del self._buffer[: _HEADER.size + length]
            if word & FRAME_DEFLATE_FLAG:
                body = self._inflate(body)
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"undecodable frame body: {exc}")
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got "
                    f"{type(message).__name__}"
                )
            messages.append(message)
        return messages

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
# backend selection
# ----------------------------------------------------------------------


def resolve_backend(
    backend: Union[str, SweepBackend, None] = None,
    workers: int = 1,
) -> SweepBackend:
    """Turn a backend name (or ``None`` for the default) into a
    configured :class:`SweepBackend` instance.

    ``None`` means inline at ``workers=1`` and a local process pool
    otherwise.
    """
    if isinstance(backend, SweepBackend):
        return backend
    if backend is None:
        backend = "inline" if workers == 1 else "process"
    if backend == "inline":
        return InlineBackend()
    if backend == "process":
        return ProcessPoolBackend(workers=workers)
    raise ConfigurationError(
        f"unknown sweep backend {backend!r}; expected one of "
        f"{BACKEND_NAMES}"
    )
