"""Ring identity space and proximity functions for VICINITY.

RINGCAST organizes nodes in a bidirectional ring ordered by arbitrary
random *sequence IDs* (paper §6). Proximity between two nodes is the
circular distance between their IDs; a node's d-links are the peers
with the just-higher and just-lower sequence ID.

Two proximity flavours are provided:

* :class:`RingProximity` — numeric circular distance over the 2^32 ID
  space; the paper's construction.
* :class:`OrderedRingProximity` — rank-based proximity over any totally
  ordered key (used by the domain-name extension of §8, where IDs are
  reversed-domain strings and no numeric distance exists). Selection
  keeps a balanced set of nearest successors and predecessors in the
  circular sort order.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.membership.views import NodeDescriptor
from repro.sim.node import RING_ID_SPACE, NodeProfile

__all__ = [
    "OrderedRingProximity",
    "RingProximity",
    "circular_distance",
    "clockwise_distance",
    "closest_indices",
]


def clockwise_distance(src: int, dst: int, space: int = RING_ID_SPACE) -> int:
    """Distance from ``src`` to ``dst`` walking clockwise (increasing IDs).

    >>> clockwise_distance(10, 12, space=16)
    2
    >>> clockwise_distance(12, 10, space=16)
    14
    """
    return (dst - src) % space


def circular_distance(a: int, b: int, space: int = RING_ID_SPACE) -> int:
    """Shortest circular distance between two IDs (symmetric).

    >>> circular_distance(1, 15, space=16)
    2
    """
    forward = (b - a) % space
    return min(forward, space - forward)


def closest_indices(
    keys: Iterable[int], ref: int, count: int, space: int = RING_ID_SPACE
) -> List[int]:
    """Positions of the ``count`` keys circularly closest to ``ref``.

    Closest first; equal distances keep their order in ``keys`` (a
    stable sort), which is the tie rule every RINGCAST overlay and
    golden depends on. This is the one place it lives:
    :meth:`RingProximity.select` wraps it for descriptors and the flat
    warm-up kernel (:mod:`repro.sim.flat_warmup`) calls it on bare keys.

    >>> closest_indices([3, 15, 1, 8], ref=0, count=3, space=16)
    [1, 2, 0]
    """
    if count <= 0:
        return []
    half = space // 2
    # min(forward, space - forward), one modulo per key.
    dist = [
        ahead if (ahead := (key - ref) % space) <= half else space - ahead
        for key in keys
    ]
    return sorted(range(len(dist)), key=dist.__getitem__)[:count]


class RingProximity:
    """Numeric ring proximity over one of a profile's sequence IDs.

    ``ring_index`` selects which of the profile's ring IDs to use —
    always 0 for the paper's single-ring RINGCAST, and 0..k-1 for the
    multi-ring extension's independent rings.
    """

    def __init__(self, ring_index: int = 0, space: int = RING_ID_SPACE) -> None:
        if ring_index < 0:
            raise ConfigurationError(f"ring_index must be >= 0: {ring_index}")
        self.ring_index = ring_index
        self.space = space

    def key(self, profile: NodeProfile) -> int:
        """The sequence ID this proximity instance compares on."""
        return profile.ring_ids[self.ring_index]

    def distance(self, a: NodeProfile, b: NodeProfile) -> int:
        """Circular distance between two profiles' sequence IDs."""
        return circular_distance(self.key(a), self.key(b), self.space)

    def select(
        self,
        reference: NodeProfile,
        candidates: Sequence[NodeDescriptor],
        count: int,
    ) -> List[NodeDescriptor]:
        """The ``count`` candidates circularly closest to ``reference``.

        This is VICINITY's view-selection function: applied to a node's
        own profile it keeps the best view; applied to a gossip
        partner's profile it picks the most useful entries to ship.
        """
        idx = self.ring_index
        chosen = closest_indices(
            [descriptor.profile.ring_ids[idx] for descriptor in candidates],
            self.key(reference),
            count,
            self.space,
        )
        return [candidates[i] for i in chosen]

    def ring_neighbors(
        self,
        reference: NodeProfile,
        candidates: Sequence[NodeDescriptor],
    ) -> Tuple[Optional[int], Optional[int]]:
        """(successor, predecessor) node IDs among ``candidates``.

        The successor minimises clockwise distance from the reference,
        the predecessor minimises counter-clockwise distance. With a
        single candidate both roles fall on it; with none, ``(None,
        None)``.
        """
        ref = self.key(reference)
        space = self.space
        successor: Optional[int] = None
        predecessor: Optional[int] = None
        best_cw = space
        best_ccw = space
        for descriptor in candidates:
            other = descriptor.profile.ring_ids[self.ring_index]
            cw = (other - ref) % space
            ccw = (ref - other) % space
            if 0 < cw < best_cw:
                best_cw = cw
                successor = descriptor.node_id
            if 0 < ccw < best_ccw:
                best_ccw = ccw
                predecessor = descriptor.node_id
        return successor, predecessor

    def sort_key(self, profile: NodeProfile):
        """Total-order key used to compute ground-truth rings."""
        return self.key(profile)


class OrderedRingProximity:
    """Rank-based ring proximity over any totally ordered profile key.

    Used by the domain-proximity extension: keys are ``(reversed-domain,
    sequence-ID)`` tuples, so nodes self-organize into a ring sorted by
    domain name with random tie-breaking — exactly the paper's §8
    construction. Numeric distance between string keys does not exist,
    so *selection* keeps the ⌈k/2⌉ nearest successors and ⌊k/2⌋ nearest
    predecessors in circular key order instead of the k numerically
    closest.
    """

    def __init__(
        self, key_fn: Callable[[NodeProfile], object] = NodeProfile.domain_key
    ) -> None:
        self.key_fn = key_fn

    def key(self, profile: NodeProfile):
        """The comparison key for ``profile``."""
        return self.key_fn(profile)

    def select(
        self,
        reference: NodeProfile,
        candidates: Sequence[NodeDescriptor],
        count: int,
    ) -> List[NodeDescriptor]:
        """Balanced nearest successors + predecessors in key order."""
        if count <= 0 or not candidates:
            return []
        key_fn = self.key_fn
        ref = key_fn(reference)
        above: List[Tuple[object, int, NodeDescriptor]] = []
        below: List[Tuple[object, int, NodeDescriptor]] = []
        for index, descriptor in enumerate(candidates):
            key = key_fn(descriptor.profile)
            if key > ref:
                above.append((key, index, descriptor))
            elif key < ref:
                below.append((key, index, descriptor))
        # The selection loop below never looks past the ``count``
        # nearest entries of either circular direction, so partial heap
        # selection (O(n log count)) replaces the two full sorts the
        # seed code paid per exchange. The index decoration reproduces
        # the stable sorts' tie order *and* the reversed-list tie order
        # exactly — byte-identical overlays, pinned by the
        # overlay-equivalence tests:
        #   successors  = above asc (ties: first wins)
        #               + wrapped below, i.e. reversed stable-desc
        #                 (key asc, ties: last wins)
        #   predecessors = below stable-desc (key desc, ties: first wins)
        #               + reversed above (key desc, ties: last wins)
        successors = [
            entry[2]
            for entry in heapq.nsmallest(
                count, above, key=lambda e: (e[0], e[1])
            )
        ] + [
            entry[2]
            for entry in heapq.nsmallest(
                count, below, key=lambda e: (e[0], -e[1])
            )
        ]
        predecessors = [
            entry[2]
            for entry in heapq.nlargest(
                count, below, key=lambda e: (e[0], -e[1])
            )
        ] + [
            entry[2]
            for entry in heapq.nlargest(
                count, above, key=lambda e: (e[0], e[1])
            )
        ]
        want_succ = (count + 1) // 2
        chosen: List[NodeDescriptor] = []
        seen: set = set()
        for descriptor in successors[:want_succ]:
            chosen.append(descriptor)
            seen.add(descriptor.node_id)
        for descriptor in predecessors:
            if len(chosen) >= count:
                break
            if descriptor.node_id not in seen:
                chosen.append(descriptor)
                seen.add(descriptor.node_id)
        for descriptor in successors[want_succ:]:
            if len(chosen) >= count:
                break
            if descriptor.node_id not in seen:
                chosen.append(descriptor)
                seen.add(descriptor.node_id)
        return chosen

    def ring_neighbors(
        self,
        reference: NodeProfile,
        candidates: Sequence[NodeDescriptor],
    ) -> Tuple[Optional[int], Optional[int]]:
        """(successor, predecessor) in circular key order."""
        if not candidates:
            return None, None
        ref = self.key_fn(reference)
        above = [d for d in candidates if self.key_fn(d.profile) > ref]
        below = [d for d in candidates if self.key_fn(d.profile) < ref]
        if above:
            successor = min(above, key=lambda d: self.key_fn(d.profile))
        elif below:
            successor = min(below, key=lambda d: self.key_fn(d.profile))
        else:
            return None, None
        if below:
            predecessor = max(below, key=lambda d: self.key_fn(d.profile))
        else:
            predecessor = max(above, key=lambda d: self.key_fn(d.profile))
        return successor.node_id, predecessor.node_id

    def sort_key(self, profile: NodeProfile):
        """Total-order key used to compute ground-truth rings."""
        return self.key_fn(profile)
