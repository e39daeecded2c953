"""Dissemination over a *live* (still-gossiping) overlay.

The paper freezes gossip before disseminating only after checking that
it is safe: "We varied the message forwarding time from zero to several
times the gossiping period. We recorded no effect whatsoever on the
macroscopic behavior of disseminations" (§7.1). This module reproduces
that experiment: the overlay keeps gossiping — ``cycles_per_hop``
gossip cycles elapse per dissemination hop, i.e. the message forwarding
time equals that many gossip periods — and every hop's forwarding
decisions read the *current* views: the one forwarding loop under the
hop schedule, with an overlay provider that gossips and re-freezes
before each round.

Used by ``bench_ablation_live_gossip`` to compare against the frozen
executor; works under churn adapters too, in which case nodes may die
mid-dissemination.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.targets import check_fanout
from repro.dissemination.executor import (
    DisseminationResult,
    _Holder,
    _forward_rounds,
    _same_round,
)
from repro.dissemination.policies import TargetPolicy, policy_for_snapshot

__all__ = ["disseminate_live"]


def disseminate_live(
    population,
    fanout: int,
    origin: int,
    rng: random.Random,
    policy: Optional[TargetPolicy] = None,
    cycles_per_hop: int = 1,
) -> DisseminationResult:
    """Hop-synchronous dissemination with gossip running between hops.

    Args:
        population: A warmed-up
            :class:`~repro.experiments.builder.Population`.
        fanout: System-wide fanout F.
        origin: Alive origin node.
        rng: Random stream for target selection.
        policy: Target policy; defaults to the population's overlay kind.
        cycles_per_hop: Gossip cycles executed between consecutive
            dissemination hops (message forwarding time expressed in
            gossip periods). 0 keeps the overlay still — equivalent to
            the frozen executor.

    The hit-ratio denominator is the population alive when the message
    was generated *and* still alive when dissemination ended — nodes
    that die mid-flight are excluded, nodes that join mid-flight are
    not counted against the protocol.

    Raises:
        ConfigurationError: For a fanout that is not a positive
            integer, or a negative ``cycles_per_hop``.
        SimulationError: When ``origin`` is not alive, or churn left no
            node alive at both ends of the flight (an empty
            denominator).
    """
    from repro.experiments.builder import freeze_overlay

    check_fanout(fanout, 1)
    if cycles_per_hop < 0:
        raise ConfigurationError(
            f"cycles_per_hop must be >= 0, got {cycles_per_hop}"
        )
    network = population.network
    if not network.is_alive(origin):
        raise SimulationError(f"origin {origin} is not alive")
    if policy is None:
        policy = policy_for_snapshot(freeze_overlay(population))
    initial_alive = set(network.alive_ids())

    def gossiping_overlay(holders: List[_Holder]):
        population.driver.run(cycles_per_hop)
        snapshot = freeze_overlay(population)
        # A holder that died before forwarding loses its copy.
        alive = snapshot.alive_set
        return snapshot, [held for held in holders if held[0] in alive]

    def survivors() -> List[int]:
        alive_throughout = initial_alive.intersection(network.alive_ids())
        if not alive_throughout:
            raise SimulationError(
                "no node was alive both when the message was generated "
                "and when dissemination ended; the hit ratio has no "
                "denominator"
            )
        return sorted(alive_throughout)

    result, _ = _forward_rounds(
        gossiping_overlay,
        _same_round,
        survivors,
        policy,
        fanout,
        origin,
        rng,
    )
    return result
