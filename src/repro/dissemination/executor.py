"""The one forwarding loop — the paper's evaluation model (§7).

"The generation of a message is marked hop 0. At hop 1, the message
reaches F neighbors of the origin node. At hop 2, it further reaches
the neighbors' neighbors, and so on." First-time receivers forward
according to the target policy; duplicates and deliveries to dead nodes
are counted but go nowhere (Fig. 1a).

That receive / dedup / count / forward step is written once, in
:func:`_forward_rounds`, and every simulator driver is an entry point
over it that differs in two seams only:

* the *schedule* decides which of the messages in flight arrive next.
  A round hands it one ``(sender, targets)`` entry per forwarding
  holder, in holder order, and takes back the arrivals in the same
  shape: one target list per holder.
  :func:`disseminate` counts hops — everything sent in one round
  arrives together in the next, so the entries pass through unchanged
  — which is the unit-latency case of the timed schedule of
  :func:`~repro.dissemination.event_executor.disseminate_event_driven`
  (§7.1: varying the forwarding time had "no effect whatsoever");
* the *overlay provider* decides what a round reads: the frozen
  snapshot here, or the still-gossiping population of
  :func:`~repro.dissemination.live.disseminate_live`.

A :class:`DisseminationResult` carries exactly the quantities the
paper's figures plot: hit/miss ratio and completeness (Figs. 6, 9, 11),
the per-hop not-yet-reached series (Figs. 7, 10), virgin vs. redundant
message counts (Fig. 8), the missed nodes for lifetime analysis
(Fig. 13), and optional per-node load (the §2 load-distribution
criterion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.core.targets import check_fanout
from repro.dissemination.policies import TargetPolicy
from repro.dissemination.snapshot import OverlaySnapshot

__all__ = ["DisseminationResult", "disseminate"]


@dataclass(frozen=True)
class DisseminationResult:
    """Outcome of one message dissemination over a frozen overlay.

    Attributes:
        origin: Node the message originated at.
        fanout: The F parameter used.
        population: Alive nodes at dissemination time (hit denominator).
        notified: Number of alive nodes that received the message
            (including the origin).
        hops: Hop count at which the last virgin delivery happened
            (0 when the origin reaches nobody).
        per_hop_new: Newly notified nodes per hop; index 0 is the origin.
        msgs_virgin: Deliveries to not-yet-notified alive nodes.
        msgs_redundant: Deliveries to already-notified nodes.
        msgs_to_dead: Sends addressed to crashed nodes (lost).
        missed_ids: Alive nodes the message never reached.
        sent_per_node / received_per_node: Per-node load, populated only
            when the executor ran with ``collect_load=True``.
        delivery_times: Virtual time of each node's first receipt (the
            origin at 0.0), populated only by the event-driven driver;
            ``hops`` and ``per_hop_new`` then count forwarding depth.
    """

    origin: int
    fanout: int
    population: int
    notified: int
    hops: int
    per_hop_new: Tuple[int, ...]
    msgs_virgin: int
    msgs_redundant: int
    msgs_to_dead: int
    missed_ids: Tuple[int, ...]
    sent_per_node: Dict[int, int] = field(default_factory=dict)
    received_per_node: Dict[int, int] = field(default_factory=dict)
    delivery_times: Dict[int, float] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        """Fraction of the alive population reached (paper §2)."""
        return self.notified / self.population

    @property
    def miss_ratio(self) -> float:
        """``1 - hit_ratio`` — what Figs. 6/9/11 plot (log scale)."""
        return 1.0 - self.hit_ratio

    @property
    def complete(self) -> bool:
        """``True`` iff every alive node was reached."""
        return self.notified == self.population

    @property
    def total_messages(self) -> int:
        """Every point-to-point send, including those lost to dead nodes."""
        return self.msgs_virgin + self.msgs_redundant + self.msgs_to_dead

    @property
    def completion_time(self) -> float:
        """Virtual time of the last first-time delivery.

        Without ``delivery_times`` the run counted hops, which is unit
        latency: the last delivery happened at time ``hops``.
        """
        return max(self.delivery_times.values(), default=float(self.hops))

    def not_reached_series(self) -> List[float]:
        """Percent of nodes not yet reached after each hop (Fig. 7 axes).

        Index h is the state after hop h completed; index 0 reflects
        only the origin having the message.
        """
        remaining = self.population
        series: List[float] = []
        for new in self.per_hop_new:
            remaining -= new
            series.append(100.0 * remaining / self.population)
        return series


#: A node holding a fresh copy, and who sent it (``None`` at the origin).
_Holder = Tuple[int, Optional[int]]
#: One holder's forwarding step: ``(sender, targets)``.
_Sends = Tuple[int, List[int]]


def _same_round(sends: List[_Sends]) -> List[_Sends]:
    """The hop schedule: everything sent this round arrives together."""
    return sends


def _forward_rounds(
    overlay: Callable[[List[_Holder]], Tuple[OverlaySnapshot, List[_Holder]]],
    schedule: Callable[[List[_Sends]], List[_Sends]],
    population_ids: Callable[[], Sequence[int]],
    policy: TargetPolicy,
    fanout: int,
    origin: int,
    rng: random.Random,
    collect_load: bool = False,
) -> Tuple[DisseminationResult, List[List[_Holder]]]:
    """Fig. 1a for one message, under any schedule and overlay provider.

    A round starts from the nodes holding a fresh copy. ``overlay``
    maps them to the snapshot this round reads and the holders still
    able to forward; each holder's policy targets become one
    ``(sender, targets)`` entry, in holder order; ``schedule`` takes
    those and returns, in the same shape, the sends that arrive next
    (none ends the run). Every arrival is lost to a dead node, dropped
    as a duplicate, or a first receipt that makes its receiver a holder
    of the next round. ``population_ids`` is asked for the hit-ratio
    denominator once the flight is over.

    Returns the result, its hops counted in rounds, and each round's
    first receipts as ``(node, sender)`` in arrival order.
    """
    select = policy.select_targets
    notified = {origin}
    notify = notified.add
    holders: List[_Holder] = [(origin, None)]
    rounds: List[List[_Holder]] = []
    msgs_virgin = 0
    msgs_redundant = 0
    msgs_to_dead = 0
    sent_per_node: Dict[int, int] = {}
    received_per_node: Dict[int, int] = {}

    while True:
        sends: List[_Sends] = []
        if holders:
            snapshot, holders = overlay(holders)
            alive = snapshot.alive_set
            for node_id, sender_id in holders:
                targets = select(snapshot, node_id, sender_id, fanout, rng)
                sends.append((node_id, targets))
                if collect_load:
                    sent_per_node[node_id] = (
                        sent_per_node.get(node_id, 0) + len(targets)
                    )
        arrivals = schedule(sends)
        if not arrivals:
            break
        holders = []
        hold = holders.append
        for sender, targets in arrivals:
            for target in targets:
                # Liveness first: a live overlay may see a notified
                # node die, and a send to it is lost, not redundant.
                if target not in alive:
                    msgs_to_dead += 1
                    continue
                if collect_load:
                    received_per_node[target] = (
                        received_per_node.get(target, 0) + 1
                    )
                if target in notified:
                    msgs_redundant += 1
                    continue
                notify(target)
                msgs_virgin += 1
                hold((target, sender))
        rounds.append(holders)

    population = population_ids()
    missed = tuple(i for i in population if i not in notified)
    per_hop_new = (1, *[len(new) for new in rounds if new])
    result = DisseminationResult(
        origin=origin,
        fanout=fanout,
        population=len(population),
        notified=len(population) - len(missed),
        hops=len(per_hop_new) - 1,
        per_hop_new=per_hop_new,
        msgs_virgin=msgs_virgin,
        msgs_redundant=msgs_redundant,
        msgs_to_dead=msgs_to_dead,
        missed_ids=missed,
        sent_per_node=sent_per_node,
        received_per_node=received_per_node,
    )
    return result, rounds


def disseminate(
    snapshot: OverlaySnapshot,
    policy: TargetPolicy,
    fanout: int,
    origin: int,
    rng: random.Random,
    collect_load: bool = False,
) -> DisseminationResult:
    """Run one hop-synchronous dissemination and measure it.

    Args:
        snapshot: The frozen overlay to disseminate over.
        policy: Target selection strategy (the protocol under test).
        fanout: System-wide fanout F.
        origin: Alive node that generates the message.
        rng: Random stream for target sampling.
        collect_load: Also record per-node sent/received counters
            (slower; only the load-distribution bench needs it).

    Raises:
        ConfigurationError: For a fanout that is not a positive
            integer.
        SimulationError: When ``origin`` is not alive in the snapshot.
    """
    check_fanout(fanout, 1)
    if not snapshot.is_alive(origin):
        raise SimulationError(f"origin {origin} is not alive")
    result, _ = _forward_rounds(
        lambda holders: (snapshot, holders),
        _same_round,
        lambda: snapshot.alive_ids,
        policy,
        fanout,
        origin,
        rng,
        collect_load,
    )
    return result
