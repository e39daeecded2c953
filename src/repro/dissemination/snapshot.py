"""Frozen overlay snapshots.

The paper's methodology (§7.1): let the membership layer self-organise,
then *freeze* gossip and disseminate over the fixed overlay — having
first verified that ongoing gossip does not change macroscopic
behaviour. An :class:`OverlaySnapshot` is that frozen state: every
node's r-links (CYCLON view) and d-links (ring neighbors from
VICINITY), plus the liveness set, ring IDs and join cycles the
evaluation layer needs.

Snapshots are immutable; failure injection (:meth:`kill_fraction`)
returns a *new* snapshot with a smaller alive set and unchanged link
tables — dead nodes keep appearing in their old neighbors' views,
exactly like a real crash with gossip stalled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.core import targets

__all__ = ["OverlaySnapshot"]

LinkTable = Dict[int, Tuple[int, ...]]


@dataclass(frozen=True)
class OverlaySnapshot:
    """Immutable picture of the overlay at freeze time.

    Attributes:
        kind: Which protocol family built this overlay — ``"randcast"``,
            ``"ringcast"``, ``"flooding"``, or an extension name. Used
            to pick the default target policy.
        rlinks: Random links per node (CYCLON view at freeze).
        dlinks: Deterministic links per node (ring successor/predecessor
            at freeze; empty tuples for pure RANDCAST overlays).
        alive_ids: Alive node IDs, sorted (determinism of sampling).
        ring_ids: Primary ring sequence ID per node, for ring analysis.
        join_cycles: Cycle each node joined at, for lifetime analysis.
        frozen_at_cycle: The gossip cycle the overlay was frozen at.
    """

    kind: str
    rlinks: LinkTable
    dlinks: LinkTable
    alive_ids: Tuple[int, ...]
    ring_ids: Dict[int, int] = field(default_factory=dict)
    join_cycles: Dict[int, int] = field(default_factory=dict)
    frozen_at_cycle: int = 0
    alive_set: FrozenSet[int] = field(default=frozenset())

    def __post_init__(self) -> None:
        # Precomputed once: membership tests, uniform sampling and the
        # per-node link unions and fill pools are all hot-path reads
        # during dissemination, so none of them may rebuild per call.
        object.__setattr__(self, "alive_set", frozenset(self.alive_ids))
        object.__setattr__(self, "_out_links_cache", {})
        object.__setattr__(self, "_ring_fill_cache", {})
        object.__setattr__(self, "_d_graph_cache", None)
        if not self.alive_ids:
            raise ConfigurationError("snapshot has no alive nodes")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_network(
        cls,
        network,
        kind: str,
        vicinity_name: Optional[str] = "vicinity",
        dlink_picker=None,
    ) -> "OverlaySnapshot":
        """Freeze a live :class:`~repro.sim.network.Network`.

        R-links come from each node's CYCLON view. D-links come from
        ``dlink_picker(node) -> tuple`` when given; otherwise from the
        ``vicinity_name`` protocol's :meth:`ring_neighbors` (duplicates
        and ``None`` are dropped); otherwise empty.
        """
        rlinks: LinkTable = {}
        dlinks: LinkTable = {}
        ring_ids: Dict[int, int] = {}
        join_cycles: Dict[int, int] = {}
        for node in network.alive_nodes():
            node_id = node.node_id
            cyclon = node.protocol("cyclon")
            rlinks[node_id] = tuple(cyclon.neighbor_ids())
            if dlink_picker is not None:
                dlinks[node_id] = tuple(dlink_picker(node))
            elif vicinity_name is not None and vicinity_name in node.protocols:
                vicinity = node.protocols[vicinity_name]
                succ, pred = vicinity.ring_neighbors()
                links = []
                for link in (succ, pred):
                    if link is not None and link not in links:
                        links.append(link)
                dlinks[node_id] = tuple(links)
            else:
                dlinks[node_id] = ()
            ring_ids[node_id] = node.profile.ring_id
            join_cycles[node_id] = node.join_cycle
        return cls(
            kind=kind,
            rlinks=rlinks,
            dlinks=dlinks,
            alive_ids=tuple(sorted(rlinks)),
            ring_ids=ring_ids,
            join_cycles=join_cycles,
            frozen_at_cycle=network.current_cycle,
        )

    @classmethod
    def from_graph(
        cls, adjacency: Mapping[int, Sequence[int]], kind: str = "flooding"
    ) -> "OverlaySnapshot":
        """Wrap a static overlay graph (all links become d-links)."""
        dlinks = {node: tuple(links) for node, links in adjacency.items()}
        return cls(
            kind=kind,
            rlinks={node: () for node in dlinks},
            dlinks=dlinks,
            alive_ids=tuple(sorted(dlinks)),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def population(self) -> int:
        """Number of alive nodes."""
        return len(self.alive_ids)

    def is_alive(self, node_id: int) -> bool:
        """``True`` iff ``node_id`` is alive in this snapshot."""
        return node_id in self.alive_set

    def random_alive(self, rng: random.Random) -> int:
        """A uniformly random alive node.

        O(1): ``alive_ids`` is materialised once at construction (and
        once per ``kill_*`` derivation), never per draw — and the draw
        itself is a single ``rng.choice`` so the consumed randomness is
        independent of the population's history.
        """
        return rng.choice(self.alive_ids)

    def out_links(self, node_id: int) -> Tuple[int, ...]:
        """All outgoing links of ``node_id`` (d-links first, deduplicated).

        Memoised per node: flooding asks for the same union on every
        forwarding step, and link tables are immutable after freeze.
        """
        cached = self._out_links_cache.get(node_id)
        if cached is not None:
            return cached
        seen: list = []
        for link in self.dlinks.get(node_id, ()) + self.rlinks.get(node_id, ()):
            if link not in seen:
                seen.append(link)
        links = tuple(seen)
        self._out_links_cache[node_id] = links
        return links

    def ring_fill(self, node_id: int) -> Tuple[int, ...]:
        """RINGCAST's fill pool: the node's r-links that are not d-links.

        Memoised per node like :meth:`out_links`: the pool is
        :func:`repro.core.targets.ring_fill`, which does not depend on
        the sender, so every forwarding step of a node shares it.
        """
        cached = self._ring_fill_cache.get(node_id)
        if cached is not None:
            return cached
        fill = tuple(
            targets.ring_fill(
                self.dlinks.get(node_id, ()), self.rlinks.get(node_id, ())
            )
        )
        self._ring_fill_cache[node_id] = fill
        return fill

    def lifetime_of(self, node_id: int) -> int:
        """Cycles between the node's join and the freeze."""
        return self.frozen_at_cycle - self.join_cycles.get(node_id, 0)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def kill_fraction(
        self, fraction: float, rng: random.Random
    ) -> "OverlaySnapshot":
        """A new snapshot with ``fraction`` of the alive nodes crashed.

        Link tables are untouched: survivors keep pointing at the dead,
        and messages forwarded to them are lost — the paper's worst-case
        "no self-healing allowed" setup (§7.2).
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(
                f"kill fraction must be in [0, 1), got {fraction}"
            )
        casualties = int(round(fraction * self.population))
        return self.kill_count(casualties, rng)

    def kill_count(self, count: int, rng: random.Random) -> "OverlaySnapshot":
        """A new snapshot with exactly ``count`` random nodes crashed."""
        if count < 0 or count >= self.population:
            raise ConfigurationError(
                f"cannot kill {count} of {self.population} nodes"
            )
        if count == 0:
            return self
        dead = set(rng.sample(self.alive_ids, count))
        survivors = tuple(i for i in self.alive_ids if i not in dead)
        killed = OverlaySnapshot(
            kind=self.kind,
            rlinks=self.rlinks,
            dlinks=self.dlinks,
            alive_ids=survivors,
            ring_ids=self.ring_ids,
            join_cycles=self.join_cycles,
            frozen_at_cycle=self.frozen_at_cycle,
        )
        # Same link tables, so the per-node link memos carry over.
        object.__setattr__(killed, "_out_links_cache", self._out_links_cache)
        object.__setattr__(killed, "_ring_fill_cache", self._ring_fill_cache)
        return killed

    def d_graph(self) -> Dict[int, Tuple[int, ...]]:
        """The d-link subgraph restricted to alive nodes.

        This is the graph whose strong connectivity the hybrid class
        requires (§5); exposed for analysis and tests. Computed once —
        the snapshot is immutable — and returned as a fresh shallow
        copy so callers may annotate their dict without corrupting the
        cache.
        """
        if self._d_graph_cache is None:
            object.__setattr__(
                self,
                "_d_graph_cache",
                {
                    node_id: tuple(
                        link
                        for link in self.dlinks.get(node_id, ())
                        if link in self.alive_set
                    )
                    for node_id in self.alive_ids
                },
            )
        return dict(self._d_graph_cache)

    def __repr__(self) -> str:
        return (
            f"OverlaySnapshot(kind={self.kind!r}, alive={self.population}, "
            f"frozen_at={self.frozen_at_cycle})"
        )
