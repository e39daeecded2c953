"""The Peer Sampling Service abstraction (Jelasity et al. [10]).

Both dissemination protocols obtain their random gossip targets from a
peer-sampling service: "The choice of random nodes to forward messages
to can be easily handled by a PEER SAMPLING SERVICE" (paper §4). The
abstract interface below is what the dissemination layer programs
against; :class:`repro.membership.cyclon.Cyclon` is the production
implementation, and :class:`OraclePeerSampling` is an idealised
implementation (true uniform sampling over the alive population) used
as a baseline oracle in tests and ablation benches.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Tuple

from repro.core.targets import draw_sample
from repro.sim.network import Network

__all__ = ["OraclePeerSampling", "PeerSamplingService"]


class PeerSamplingService(ABC):
    """Supplies (approximately) uniform random peers to its owner."""

    @abstractmethod
    def sample_ids(
        self, count: int, rng: random.Random, exclude: Tuple[int, ...] = ()
    ) -> List[int]:
        """Up to ``count`` distinct peer IDs, excluding ``exclude``."""

    @abstractmethod
    def known_ids(self) -> Tuple[int, ...]:
        """Every peer ID currently known to the service."""


class OraclePeerSampling(PeerSamplingService):
    """Idealised sampling straight from the global alive population.

    A real deployment cannot implement this — it exists to measure how
    much CYCLON's approximation of uniform sampling costs. The owner is
    never returned.
    """

    def __init__(self, owner_id: int, network: Network) -> None:
        self.owner_id = owner_id
        self.network = network

    def sample_ids(
        self, count: int, rng: random.Random, exclude: Tuple[int, ...] = ()
    ) -> List[int]:
        excluded = set(exclude)
        excluded.add(self.owner_id)
        pool = [i for i in self.network.alive_ids() if i not in excluded]
        if count >= len(pool):
            return pool
        return draw_sample(pool, count, rng)

    def known_ids(self) -> Tuple[int, ...]:
        return tuple(
            i for i in self.network.alive_ids() if i != self.owner_id
        )
