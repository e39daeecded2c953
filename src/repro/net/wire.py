"""UDP wire format for the live-network runtime.

One protocol message per datagram, encoded as canonical JSON (sorted
keys, no whitespace) with a ``"t"`` tag — human-readable on the wire,
deterministic to golden-test, and far below the loopback MTU for the
view sizes this runtime targets.

Two layers of vocabulary share the format:

* the **core messages** of :mod:`repro.core.messages` (shuffles,
  vicinity exchanges, gossip, pulls), converted via their
  ``to_payload`` / :func:`repro.core.messages.message_from_payload`;
* **runtime control datagrams** owned by this package: ``join`` /
  ``welcome`` (bootstrap handshake), ``ping`` / ``pong`` (liveness),
  and ``publish`` / ``publish_ack`` (message injection by
  ``repro net-send``).

Descriptors on the wire carry the subject's UDP address, so membership
gossip doubles as address discovery; every node keeps what it has
learned in an :class:`AddressBook`.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.common.errors import ProtocolError

__all__ = [
    "AddressBook",
    "MAX_DATAGRAM_BYTES",
    "decode_datagram",
    "encode_datagram",
    "send_publish",
]

MAX_DATAGRAM_BYTES = 60000
"""Refuse to send datagrams larger than this (fragmentation guard)."""

Address = Tuple[str, int]


def encode_datagram(obj: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes for one wire message."""
    data = json.dumps(
        obj, separators=(",", ":"), sort_keys=True, ensure_ascii=True
    ).encode("ascii")
    if len(data) > MAX_DATAGRAM_BYTES:
        raise ProtocolError(
            f"datagram of {len(data)} bytes exceeds {MAX_DATAGRAM_BYTES}"
        )
    return data


def decode_datagram(data: bytes) -> Dict[str, Any]:
    """Parse one datagram; raises :class:`ProtocolError` on junk."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable datagram: {data[:64]!r}") from exc
    if not isinstance(obj, dict) or "t" not in obj:
        raise ProtocolError(f"datagram is not a tagged object: {data[:64]!r}")
    return obj


def send_publish(
    endpoint: Address,
    payload: Any,
    timeout: float = 2.0,
    retries: int = 5,
    jitter: float = 0.25,
    rng: Optional[random.Random] = None,
) -> str:
    """Inject a message into a running node (``repro net-send``).

    Sends a ``publish`` datagram and waits for the ``publish_ack``
    carrying the assigned message ID. Retries on a lost datagram;
    note that a retry after a *lost ack* makes the node originate a
    second message — harmless for smoke runs, but keep ``retries`` at
    1 when exact message counts matter.

    Each retry waits an extra random ``[0, jitter * timeout)`` seconds
    — under loss, many senders retrying on the same fixed cadence
    would otherwise synchronize into bursts that keep colliding.
    """
    if rng is None:
        rng = random.Random()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        datagram = encode_datagram({"t": "publish", "payload": payload})
        attempts = max(1, retries)
        for attempt in range(attempts):
            if attempt and jitter > 0:
                time.sleep(rng.uniform(0.0, jitter * timeout))
            sock.sendto(datagram, endpoint)
            try:
                data, _addr = sock.recvfrom(65536)
            except socket.timeout:
                continue
            try:
                obj = decode_datagram(data)
            except ProtocolError:
                continue
            if obj.get("t") == "publish_ack":
                return str(obj.get("msg_id"))
        raise ProtocolError(
            f"no publish_ack from {endpoint[0]}:{endpoint[1]} after "
            f"{attempts} attempts"
        )


class AddressBook:
    """Node-ID → UDP address mapping learned from descriptors.

    The live counterpart of the simulator's central node registry: a
    node can only message peers whose addresses have travelled to it
    inside gossiped descriptors (or the bootstrap handshake).

    Every entry carries the timestamp of its last (re-)learning, so
    the runtime can evict addresses of long-gone nodes instead of
    accumulating them forever under churn (:meth:`stale_ids`).
    Timestamps are whatever clock the caller passes to :meth:`learn`
    — the book itself never reads a clock.
    """

    __slots__ = ("_addrs", "_stamps")

    def __init__(self) -> None:
        self._addrs: Dict[int, Address] = {}
        self._stamps: Dict[int, float] = {}

    def learn(self, node_id: int, addr: Address, now: float = 0.0) -> None:
        self._addrs[node_id] = (addr[0], addr[1])
        self._stamps[node_id] = now

    def learn_all(
        self, addrs: Dict[int, Address], now: float = 0.0
    ) -> None:
        for node_id, addr in addrs.items():
            self.learn(node_id, addr, now)

    def get(self, node_id: int) -> Optional[Address]:
        return self._addrs.get(node_id)

    def last_seen(self, node_id: int) -> Optional[float]:
        """When ``node_id``'s address was last learned, or ``None``."""
        return self._stamps.get(node_id)

    def stale_ids(
        self, cutoff: float, protect: Iterable[int] = ()
    ) -> Tuple[int, ...]:
        """IDs whose address was last learned before ``cutoff``.

        ``protect`` lists IDs that must survive regardless of age —
        callers pass their current view members and in-flight shuffle
        partners, whose addresses are load-bearing even when gossip
        has not refreshed them lately.
        """
        protected = frozenset(protect)
        return tuple(
            node_id
            for node_id, stamp in self._stamps.items()
            if stamp < cutoff and node_id not in protected
        )

    def forget(self, node_id: int) -> None:
        self._addrs.pop(node_id, None)
        self._stamps.pop(node_id, None)

    def known_ids(self) -> Tuple[int, ...]:
        return tuple(self._addrs)

    def __len__(self) -> int:
        return len(self._addrs)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._addrs
