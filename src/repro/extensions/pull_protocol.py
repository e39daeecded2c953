"""Periodic pull-based (anti-entropy) dissemination — the paper's §8
future work, implemented as a full gossip protocol.

Where :mod:`repro.extensions.pull_recovery` runs pulls as a one-shot
post-pass over a single push result, :class:`PullDissemination` is the
real protocol: every node periodically polls random peers with a digest
of the message IDs it has seen; polled peers reply with the messages the
poller lacks. Coverage grows roughly geometrically (an uninformed node
learns a message with probability ≈ its current coverage each cycle),
so pull reaches everyone with probability 1 given connectivity — but
with the higher latency the paper warns about: "the periodic nature of
pull-based gossiping results in relatively long latency … significantly
longer than reactive push-based approaches" (§1).

The push-vs-pull bench quantifies exactly that trade-off.

Polls and answers are :class:`repro.core.dissemination.DisseminationCore`'s
— the state machine a live UDP node answers pull polls with; this class
is its cycle-driver adapter, as :class:`~repro.membership.cyclon.Cyclon`
is :class:`~repro.core.cyclon.CyclonCore`'s.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.common.errors import ConfigurationError
from repro.core.dissemination import DisseminationCore
from repro.core.messages import PullRequest, PullResponse
from repro.dissemination.message import Message
from repro.membership.cyclon import Cyclon
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.protocol import GossipProtocol

__all__ = ["PullDissemination"]


class PullDissemination(GossipProtocol):
    """One node's anti-entropy agent.

    Args:
        node: Owning node.
        cyclon: The node's peer-sampling layer (poll targets come from
            its view, like RANDCAST's push targets).
        pull_fanout: Peers polled per cycle (the pull frequency knob).
    """

    name = "pull"

    def __init__(
        self, node: Node, cyclon: Cyclon, pull_fanout: int = 1
    ) -> None:
        if pull_fanout < 1:
            raise ConfigurationError(
                f"pull_fanout must be >= 1, got {pull_fanout}"
            )
        self.node_id = node.node_id
        self.cyclon = cyclon
        self.pull_fanout = pull_fanout
        # Pull only: with a push fanout of 0 and no links handed in, the
        # core never forwards and never draws from a random stream.
        self.core = DisseminationCore(node.node_id, "randcast", fanout=0)
        self.polls_sent = 0
        self.polls_answered = 0
        self.messages_fetched = 0
        self.messages_served = 0

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    def publish(self, message: Message) -> None:
        """Inject a locally generated message into the buffer."""
        self.core.publish(
            str(message.message_id), message.payload, (), (), None
        )

    def knows(self, message_id: int) -> bool:
        """``True`` iff the node has the message."""
        return str(message_id) in self.core.seen

    # ------------------------------------------------------------------
    # GossipProtocol interface
    # ------------------------------------------------------------------

    def execute_cycle(
        self, node: Node, network: Network, rng: random.Random
    ) -> None:
        """Poll ``pull_fanout`` random alive peers for missing messages."""
        candidates = [
            peer_id
            for peer_id in self.cyclon.view.ids()
            if network.is_alive(peer_id)
        ]
        if not candidates:
            return
        count = min(self.pull_fanout, len(candidates))
        for peer_id in rng.sample(candidates, count):
            peer_node = network.node(peer_id)
            peer: PullDissemination = peer_node.protocol(self.name)  # type: ignore[assignment]
            poll = self.core.make_poll()
            network.record_gossip(len(poll.known))
            node.messages_sent += 1
            response = peer.handle_poll(poll, rng)
            network.record_gossip(len(response.messages))
            peer_node.messages_sent += 1
            node.messages_received += 1
            peer_node.messages_received += 1
            self.polls_sent += 1
            fetched, _ = self.core.handle_message(response, (), (), rng)
            self.messages_fetched += len(fetched)

    def handle_poll(
        self, poll: PullRequest, rng: random.Random
    ) -> PullResponse:
        """Responder side: return messages the poller lacks."""
        _, outgoing = self.core.handle_message(poll, (), (), rng)
        (_, response), = outgoing
        self.polls_answered += 1
        self.messages_served += len(response.messages)
        return response

    def neighbor_ids(self) -> Tuple[int, ...]:
        """Pull targets come from the peer-sampling view."""
        return self.cyclon.view.ids()

    def __repr__(self) -> str:
        return (
            f"PullDissemination(node={self.node_id}, "
            f"store={len(self.core.store)}, fetched={self.messages_fetched})"
        )
