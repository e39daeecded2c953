"""Gossip target selection — where the three protocols differ.

Each policy implements ``select_targets(snapshot, node, sender, fanout,
rng)`` and returns the nodes one forwarding step sends to. The shared
rules of the generic algorithm (paper Fig. 1a) — forward only on first
receipt, never back to the sender — are split between the executor
(first-receipt) and the policies (sender exclusion).

The selection logic itself lives in :mod:`repro.core.targets`; each
policy adapts it to a frozen :class:`OverlaySnapshot`, while the live
runtime feeds the same functions a node's current views.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.core.targets import (
    flooding_targets,
    randcast_targets,
    ring_targets,
)
from repro.dissemination.snapshot import OverlaySnapshot

__all__ = [
    "FloodingPolicy",
    "RandCastPolicy",
    "RingCastPolicy",
    "TargetPolicy",
    "policy_for_snapshot",
]


class TargetPolicy(ABC):
    """Strategy object choosing forwarding targets for one node."""

    #: Human-readable protocol name (used in reports).
    name: str = "policy"

    @abstractmethod
    def select_targets(
        self,
        snapshot: OverlaySnapshot,
        node_id: int,
        sender_id: Optional[int],
        fanout: int,
        rng: random.Random,
    ) -> List[int]:
        """Targets for ``node_id`` forwarding a message from ``sender_id``.

        ``sender_id`` is ``None`` when ``node_id`` is the origin.
        """


class FloodingPolicy(TargetPolicy):
    """Deterministic flooding (paper Fig. 1b): every outgoing link.

    The fanout parameter is ignored — flooding's redundancy is fixed by
    the overlay's degree, which is the point of the §3 overlay family.
    """

    name = "flooding"

    def select_targets(
        self,
        snapshot: OverlaySnapshot,
        node_id: int,
        sender_id: Optional[int],
        fanout: int,
        rng: random.Random,
    ) -> List[int]:
        return flooding_targets(snapshot.out_links(node_id), sender_id)


class RandCastPolicy(TargetPolicy):
    """RANDCAST (paper Fig. 2): up to F random peers from the r-link view."""

    name = "randcast"

    def select_targets(
        self,
        snapshot: OverlaySnapshot,
        node_id: int,
        sender_id: Optional[int],
        fanout: int,
        rng: random.Random,
    ) -> List[int]:
        return randcast_targets(
            snapshot.rlinks.get(node_id, ()), sender_id, fanout, rng
        )


class RingCastPolicy(TargetPolicy):
    """RINGCAST (paper Fig. 5): ring neighbors first, random fill after.

    Both d-links are always included (unless one is the sender), then
    the remaining budget of ``fanout - len(d-targets)`` is filled with
    random r-links. Random fill excludes peers already chosen as
    d-links, so the selection is a set of exactly ``fanout`` distinct
    targets whenever the views allow (the pseudocode's set-union
    semantics). With ``fanout < 2`` the d-links still win: a node may
    forward up to 2 messages — the behaviour behind the paper's
    complete disseminations at F=1.

    The same policy drives the multi-ring and Harary-graph extensions:
    their snapshots simply carry 2k (or t) d-links per node, all of
    which are forwarded across.
    """

    name = "ringcast"

    def select_targets(
        self,
        snapshot: OverlaySnapshot,
        node_id: int,
        sender_id: Optional[int],
        fanout: int,
        rng: random.Random,
    ) -> List[int]:
        # ringcast_targets over the snapshot's memoised fill pool, read
        # only when the d-links leave a budget.
        targets = ring_targets(snapshot.dlinks.get(node_id, ()), sender_id)
        budget = fanout - len(targets)
        if budget > 0:
            targets += randcast_targets(
                snapshot.ring_fill(node_id), sender_id, budget, rng
            )
        return targets


def policy_for_snapshot(snapshot: OverlaySnapshot) -> TargetPolicy:
    """The default policy matching a snapshot's ``kind``."""
    kind = snapshot.kind
    if kind == "randcast":
        return RandCastPolicy()
    if kind in ("ringcast", "multiring", "hararycast", "domain_ring"):
        return RingCastPolicy()
    if kind == "flooding":
        return FloodingPolicy()
    raise ConfigurationError(f"no default policy for overlay kind {kind!r}")
