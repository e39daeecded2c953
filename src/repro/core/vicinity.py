"""Transport-agnostic VICINITY state machine.

One :class:`VicinityCore` converges a node's view to the peers closest
under a pluggable proximity function, following the two-layered design
of the VICINITY paper: candidates are fed from an optional
:class:`~repro.core.cyclon.CyclonCore` running on the same node, the
shipped entries are those closest to the *partner*, and view selection
keeps the entries closest to *self*. The driver picks the partner
(oldest entry, falling back to a random CYCLON neighbor) and routes
request/response messages through :meth:`handle_message`.

Proximity selection is deterministic, so unlike CYCLON no RNG is
threaded through the message handlers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.cyclon import CyclonCore
from repro.core.messages import VicinityRequest, VicinityResponse
from repro.core.views import NodeDescriptor, PartialView, merge_unique
from repro.sim.node import NodeProfile

__all__ = ["VicinityCore"]

Outgoing = List[Tuple[int, object]]


class VicinityCore:
    """One node's VICINITY protocol state (d-link substrate)."""

    def __init__(
        self,
        node_id: int,
        profile: NodeProfile,
        proximity,
        view_size: int = 20,
        gossip_length: int = 10,
        cyclon: Optional[CyclonCore] = None,
    ) -> None:
        if gossip_length < 1:
            raise ConfigurationError(
                f"gossip_length must be >= 1, got {gossip_length}"
            )
        self.node_id = node_id
        self.profile = profile
        self.proximity = proximity
        self.view = PartialView(owner_id=node_id, capacity=view_size)
        self.gossip_length = gossip_length
        self.cyclon = cyclon
        self.exchanges_initiated = 0
        self.exchanges_received = 0

    # ------------------------------------------------------------------
    # driver hooks
    # ------------------------------------------------------------------

    def begin_cycle(self) -> None:
        """Age every view entry by one cycle."""
        self.view.increment_ages()

    def oldest_peer(self) -> Optional[int]:
        """The exchange partner VICINITY would pick now."""
        oldest = self.view.oldest()
        return None if oldest is None else oldest.node_id

    def discard_peer(self, peer_id: int) -> bool:
        """Drop a peer found dead; returns whether it was in the view."""
        return self.view.remove(peer_id)

    def fallback_candidates(self) -> Tuple[int, ...]:
        """CYCLON neighbors usable as partners while the view is empty."""
        if self.cyclon is None:
            return ()
        return self.cyclon.view.ids()

    def peer_profile(self, peer_id: int) -> Optional[NodeProfile]:
        """The profile recorded for ``peer_id``, searching both layers."""
        entry = self.view.get(peer_id)
        if entry is None and self.cyclon is not None:
            entry = self.cyclon.view.get(peer_id)
        return None if entry is None else entry.profile

    def start_exchange(
        self, partner_id: int, partner_profile: NodeProfile
    ) -> VicinityRequest:
        """Open an exchange: ship the entries closest to the partner."""
        payload = self._entries_for(partner_profile, exclude_id=partner_id)
        return VicinityRequest(
            sender=self.node_id,
            initiator=self._self_descriptor(),
            entries=payload,
        )

    def handle_message(self, message) -> Outgoing:
        """Advance the protocol by one received message."""
        if isinstance(message, VicinityRequest):
            reply = self._entries_for(
                message.initiator.profile, exclude_id=message.initiator.node_id
            )
            self._merge(list(message.entries) + [message.initiator])
            self.exchanges_received += 1
            return [
                (
                    message.sender,
                    VicinityResponse(sender=self.node_id, entries=reply),
                )
            ]
        if isinstance(message, VicinityResponse):
            self._merge(list(message.entries))
            self.exchanges_initiated += 1
            return []
        raise ProtocolError(
            f"vicinity core cannot handle {type(message).__name__}"
        )

    # ------------------------------------------------------------------
    # d-links
    # ------------------------------------------------------------------

    def ring_neighbors(self) -> Tuple[Optional[int], Optional[int]]:
        """The node's two d-links: (successor, predecessor) IDs."""
        return self.proximity.ring_neighbors(
            self.profile, self.view.descriptors()
        )

    def closest_ids(self, count: int) -> List[int]:
        """The ``count`` view entries closest to self (Harary d-links)."""
        chosen = self.proximity.select(
            self.profile, self.view.descriptors(), count
        )
        return [d.node_id for d in chosen]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _self_descriptor(self) -> NodeDescriptor:
        return NodeDescriptor(self.node_id, 0, self.profile)

    def _candidates(self) -> List[NodeDescriptor]:
        """Own view ∪ CYCLON view (the two-layer feed), deduplicated."""
        batches = [self.view.descriptors()]
        if self.cyclon is not None:
            batches.append(self.cyclon.view.descriptors())
        return merge_unique(batches, exclude_id=self.node_id)

    def _entries_for(
        self, target_profile: NodeProfile, exclude_id: int
    ) -> List[NodeDescriptor]:
        """The shipped payload: candidates closest to the target."""
        pool = [d for d in self._candidates() if d.node_id != exclude_id]
        pool.append(self._self_descriptor())
        chosen = self.proximity.select(
            target_profile, pool, self.gossip_length
        )
        return [d.copy() for d in chosen]

    def _merge(self, received: Sequence[NodeDescriptor]) -> None:
        """View selection: keep the ``vic`` candidates closest to self.

        Candidates from the CYCLON view enter as that view's live
        descriptor objects, not copies, so a chosen one is shared by the
        two views and aged by both (see :mod:`repro.core.views`).
        """
        batches = [self.view.descriptors(), received]
        if self.cyclon is not None:
            batches.append(self.cyclon.view.descriptors())
        pool = merge_unique(batches, exclude_id=self.node_id)
        chosen = self.proximity.select(self.profile, pool, self.view.capacity)
        self.view.clear()
        for descriptor in chosen:
            self.view.add(descriptor)

    def __repr__(self) -> str:
        return (
            f"VicinityCore(node={self.node_id}, view={self.view.size}/"
            f"{self.view.capacity})"
        )
