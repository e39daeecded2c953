"""Per-node dissemination state machine (push gossip + pull recovery).

A :class:`DisseminationCore` implements the paper's generic
dissemination algorithm (Fig. 1a) from one node's perspective: deliver
a message on first receipt, forward to targets chosen by the protocol's
policy (shared with the simulator via :mod:`repro.core.targets`), and
drop duplicates. The same core answers anti-entropy pull polls —
the §5 recovery mechanism — from its buffer of delivered messages.

Unlike the simulator's hop-synchronous executor, which walks a frozen
:class:`~repro.dissemination.snapshot.OverlaySnapshot`, this core is
fed its *current* links on every call, because on a live node the
overlay keeps evolving underneath the dissemination.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.messages import (
    GossipMessage,
    PullRequest,
    PullResponse,
)
from repro.core.targets import (
    check_fanout,
    flooding_targets,
    randcast_targets,
    ringcast_targets,
)

__all__ = ["Delivery", "DisseminationCore"]

PROTOCOLS = ("ringcast", "randcast", "flooding")

Outgoing = List[Tuple[int, object]]


class Delivery:
    """One first-time delivery: ``hop`` is ``None`` for pull recovery."""

    __slots__ = ("msg_id", "origin", "payload", "hop", "via")

    def __init__(
        self,
        msg_id: str,
        origin: int,
        payload: Any,
        hop: Optional[int],
        via: str,
    ) -> None:
        self.msg_id = msg_id
        self.origin = origin
        self.payload = payload
        self.hop = hop
        self.via = via

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Delivery({self.msg_id!r}, origin={self.origin}, "
            f"hop={self.hop}, via={self.via!r})"
        )


class DisseminationCore:
    """One node's dissemination state for a single protocol flavour."""

    def __init__(
        self, node_id: int, protocol: str = "ringcast", fanout: int = 3
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown dissemination protocol {protocol!r} "
                f"(expected one of {PROTOCOLS})"
            )
        check_fanout(fanout, 0)
        self.node_id = node_id
        self.protocol = protocol
        self.fanout = fanout
        # msg_id -> hop at first receipt (0 = published here, None =
        # recovered by pull); doubles as the dedup set.
        self.seen: Dict[str, Optional[int]] = {}
        # msg_id -> (origin, payload): the buffer pull polls answer from.
        self.store: Dict[str, Tuple[int, Any]] = {}

    # ------------------------------------------------------------------
    # driver hooks
    # ------------------------------------------------------------------

    def publish(
        self,
        msg_id: str,
        payload: Any,
        rlinks: Sequence[int],
        dlinks: Sequence[int],
        rng: random.Random,
    ) -> Outgoing:
        """Originate a message: deliver locally, push to hop-1 targets."""
        if msg_id in self.seen:
            raise ProtocolError(f"message {msg_id!r} already published")
        self.seen[msg_id] = 0
        self.store[msg_id] = (self.node_id, payload)
        targets = self._targets(rlinks, dlinks, None, rng)
        forward = GossipMessage(
            sender=self.node_id,
            msg_id=msg_id,
            origin=self.node_id,
            hop=1,
            payload=payload,
        )
        return [(target, forward) for target in targets]

    def handle_message(
        self,
        message,
        rlinks: Sequence[int],
        dlinks: Sequence[int],
        rng: random.Random,
    ) -> Tuple[List[Delivery], Outgoing]:
        """Advance by one received message.

        Returns ``(deliveries, outgoing)``: the messages delivered to
        the application for the first time, and the ``(destination,
        message)`` pairs to transmit.
        """
        if isinstance(message, GossipMessage):
            if message.msg_id in self.seen:
                return [], []
            self.seen[message.msg_id] = message.hop
            self.store[message.msg_id] = (message.origin, message.payload)
            delivery = Delivery(
                message.msg_id,
                message.origin,
                message.payload,
                message.hop,
                "push",
            )
            targets = self._targets(rlinks, dlinks, message.sender, rng)
            forward = GossipMessage(
                sender=self.node_id,
                msg_id=message.msg_id,
                origin=message.origin,
                hop=message.hop + 1,
                payload=message.payload,
            )
            return [delivery], [(target, forward) for target in targets]

        if isinstance(message, PullRequest):
            known = set(message.known)
            missing = [
                (msg_id, origin, payload)
                for msg_id, (origin, payload) in self.store.items()
                if msg_id not in known
            ]
            response = PullResponse(sender=self.node_id, messages=missing)
            return [], [(message.sender, response)]

        if isinstance(message, PullResponse):
            deliveries: List[Delivery] = []
            for msg_id, origin, payload in message.messages:
                if msg_id in self.seen:
                    continue
                self.seen[msg_id] = None
                self.store[msg_id] = (origin, payload)
                deliveries.append(
                    Delivery(msg_id, origin, payload, None, "pull")
                )
            return deliveries, []

        raise ProtocolError(
            f"dissemination core cannot handle {type(message).__name__}"
        )

    def make_poll(self) -> PullRequest:
        """A pull poll advertising everything this node has seen."""
        return PullRequest(sender=self.node_id, known=tuple(self.seen))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _targets(
        self,
        rlinks: Sequence[int],
        dlinks: Sequence[int],
        sender_id: Optional[int],
        rng: random.Random,
    ) -> List[int]:
        if self.protocol == "ringcast":
            return ringcast_targets(
                dlinks, rlinks, sender_id, self.fanout, rng
            )
        if self.protocol == "randcast":
            return randcast_targets(rlinks, sender_id, self.fanout, rng)
        # flooding: every distinct outgoing link (d-links ∪ r-links).
        links = list(dict.fromkeys(tuple(dlinks) + tuple(rlinks)))
        return flooding_targets(links, sender_id)

    def __repr__(self) -> str:
        return (
            f"DisseminationCore(node={self.node_id}, "
            f"protocol={self.protocol!r}, fanout={self.fanout}, "
            f"seen={len(self.seen)})"
        )
