"""Partial views: the bounded neighbor tables of gossip protocols.

This module lives in :mod:`repro.core` so the transport-agnostic
protocol cores depend only on core data structures;
:mod:`repro.membership.views` re-exports it for compatibility.

A view holds at most ``capacity`` :class:`NodeDescriptor` entries, each
pointing at another node and carrying an *age* (cycles since the entry
was created at its subject) plus the subject's immutable profile.
Descriptors are copied on every exchange, so views of *different*
nodes never share a descriptor — on a real wire every message carries
its own serialized copy. The two views of *one* node can: VICINITY's
view selection (:meth:`repro.core.vicinity.VicinityCore._merge`) keeps
candidates taken from the node's CYCLON view as the live objects, not
copies, and such an entry is then aged by both protocols — twice per
cycle — for as long as both views hold it. That holds in the simulator
and in :mod:`repro.net` alike, every ringcast golden depends on it, and
``tests/test_vicinity.py::TestSharedDescriptors`` pins it; see
ROADMAP.md's carry-over notes before changing it.

Invariants enforced here (and property-tested in
``tests/test_views.py``):

* a view never contains its owner,
* a view never contains two entries for the same node,
* a view never exceeds its capacity.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.targets import draw_sample
from repro.sim.node import NodeProfile

__all__ = ["NodeDescriptor", "PartialView", "merge_unique"]


class NodeDescriptor:
    """One view entry: a pointer to ``node_id`` with gossip metadata."""

    __slots__ = ("node_id", "age", "profile")

    def __init__(self, node_id: int, age: int, profile: NodeProfile) -> None:
        self.node_id = node_id
        self.age = age
        self.profile = profile

    def copy(self) -> "NodeDescriptor":
        """A detached copy carrying the same age (wire serialization)."""
        return NodeDescriptor(self.node_id, self.age, self.profile)

    def fresh_copy(self) -> "NodeDescriptor":
        """A detached copy with age reset to 0 (self-announcements)."""
        return NodeDescriptor(self.node_id, 0, self.profile)

    def __repr__(self) -> str:
        return f"NodeDescriptor(id={self.node_id}, age={self.age})"


class PartialView:
    """A bounded, owner-aware table of :class:`NodeDescriptor` entries."""

    __slots__ = ("owner_id", "capacity", "_entries")

    def __init__(self, owner_id: int, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.owner_id = owner_id
        self.capacity = capacity
        self._entries: Dict[int, NodeDescriptor] = {}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of entries currently held."""
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """``True`` when no empty slot remains."""
        return len(self._entries) >= self.capacity

    def contains(self, node_id: int) -> bool:
        """``True`` iff an entry for ``node_id`` is present."""
        return node_id in self._entries

    def get(self, node_id: int) -> Optional[NodeDescriptor]:
        """The entry for ``node_id``, or ``None``."""
        return self._entries.get(node_id)

    def ids(self) -> Tuple[int, ...]:
        """IDs of all entries, in insertion order."""
        return tuple(self._entries)

    def descriptors(self) -> List[NodeDescriptor]:
        """All entries (the live objects, not copies), insertion order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, descriptor: NodeDescriptor) -> None:
        """Insert ``descriptor``; every view invariant is enforced.

        Raises :class:`ProtocolError` on self-entries, duplicates, or
        overflow — all three indicate protocol-logic bugs, not runtime
        conditions.
        """
        if descriptor.node_id == self.owner_id:
            raise ProtocolError(
                f"view of {self.owner_id} cannot contain its owner"
            )
        if descriptor.node_id in self._entries:
            raise ProtocolError(
                f"duplicate entry for {descriptor.node_id} "
                f"in view of {self.owner_id}"
            )
        if self.is_full:
            raise ProtocolError(f"view of {self.owner_id} is full")
        self._entries[descriptor.node_id] = descriptor

    def remove(self, node_id: int) -> bool:
        """Drop the entry for ``node_id``. Returns whether it existed."""
        return self._entries.pop(node_id, None) is not None

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def increment_ages(self) -> None:
        """Age every entry by one cycle."""
        for descriptor in self._entries.values():
            descriptor.age += 1

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------

    def oldest(self) -> Optional[NodeDescriptor]:
        """The entry with the highest age (insertion order breaks ties)."""
        best: Optional[NodeDescriptor] = None
        for descriptor in self._entries.values():
            if best is None or descriptor.age > best.age:
                best = descriptor
        return best

    def random_descriptors(
        self,
        count: int,
        rng: random.Random,
        exclude: Sequence[int] = (),
    ) -> List[NodeDescriptor]:
        """Up to ``count`` uniformly random entries, skipping ``exclude``."""
        excluded = set(exclude)
        pool = [
            descriptor
            for node_id, descriptor in self._entries.items()
            if node_id not in excluded
        ]
        if count >= len(pool):
            return pool
        return draw_sample(pool, count, rng)

    def random_ids(
        self,
        count: int,
        rng: random.Random,
        exclude: Sequence[int] = (),
    ) -> List[int]:
        """Up to ``count`` uniformly random entry IDs, skipping ``exclude``."""
        return [d.node_id for d in self.random_descriptors(count, rng, exclude)]

    def __repr__(self) -> str:
        return (
            f"PartialView(owner={self.owner_id}, "
            f"{self.size}/{self.capacity} entries)"
        )


def merge_unique(
    batches: Iterable[Iterable[NodeDescriptor]], exclude_id: int
) -> List[NodeDescriptor]:
    """Merge descriptor batches, deduplicating by node ID.

    On duplicates the entry with the *lowest* age (freshest information)
    wins. Entries pointing at ``exclude_id`` are dropped — callers pass
    their own node ID so self-pointers never survive a merge.
    """
    best: Dict[int, NodeDescriptor] = {}
    for batch in batches:
        for descriptor in batch:
            if descriptor.node_id == exclude_id:
                continue
            current = best.get(descriptor.node_id)
            if current is None or descriptor.age < current.age:
                best[descriptor.node_id] = descriptor
    return list(best.values())
