"""Graph analysis used to validate overlays.

These helpers serve the evaluation layer: checking that the set of
d-links actually forms a strongly connected graph (the hybrid-class
requirement of paper §5), that CYCLON's overlay resembles a random
graph, and that the VICINITY layer converged to the ground-truth ring.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

__all__ = [
    "degree_histogram",
    "indegree_map",
    "is_strongly_connected",
    "reachable_from",
    "ring_agreement",
    "ring_neighbor_sets",
    "sampled_average_path_length",
]

Adjacency = Mapping[int, Tuple[int, ...]]


def reachable_from(adjacency: Adjacency, origin: int) -> Set[int]:
    """All nodes reachable from ``origin`` by directed BFS (incl. origin)."""
    seen = {origin}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def is_strongly_connected(adjacency: Adjacency) -> bool:
    """``True`` iff there is a directed path between every ordered pair.

    Checked with two BFS passes (forward and on the transposed graph)
    from an arbitrary root — O(V + E).
    """
    if not adjacency:
        return True
    nodes = list(adjacency)
    root = nodes[0]
    if len(reachable_from(adjacency, root)) != len(nodes):
        return False
    transposed: Dict[int, List[int]] = {node: [] for node in nodes}
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            transposed.setdefault(neighbor, []).append(node)
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in transposed.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return len(seen) == len(nodes)


def indegree_map(adjacency: Adjacency) -> Dict[int, int]:
    """Indegree of every node appearing in the adjacency."""
    indegrees: Dict[int, int] = {node: 0 for node in adjacency}
    for neighbors in adjacency.values():
        for neighbor in neighbors:
            indegrees[neighbor] = indegrees.get(neighbor, 0) + 1
    return indegrees


def degree_histogram(degrees: Iterable[int]) -> Dict[int, int]:
    """Histogram ``{degree: count}`` of a degree sequence."""
    return dict(Counter(degrees))


def sampled_average_path_length(
    adjacency: Adjacency, rng: random.Random, samples: int = 50
) -> float:
    """Average shortest-path length from ``samples`` random sources.

    Unreachable pairs are ignored; returns 0.0 for graphs with fewer
    than two nodes. Sampling keeps this usable on 10k-node overlays.
    """
    nodes = list(adjacency)
    if len(nodes) < 2:
        return 0.0
    total = 0
    count = 0
    for _ in range(min(samples, len(nodes))):
        origin = rng.choice(nodes)
        distances = {origin: 0}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    queue.append(neighbor)
        total += sum(distances.values())
        count += len(distances) - 1
    return total / count if count else 0.0


def ring_neighbor_sets(true_ring: Sequence[int]) -> Dict[int, Set[int]]:
    """Each node's correct d-links on the ground-truth ring.

    ``true_ring`` is the alive population sorted by sequence ID; node
    ``i``'s correct neighbors are its predecessor and successor in that
    circular order (one neighbor on a two-node ring, none alone).
    """
    n = len(true_ring)
    expected: Dict[int, Set[int]] = {}
    for i, node in enumerate(true_ring):
        neighbors = {true_ring[(i + 1) % n], true_ring[(i - 1) % n]}
        expected[node] = neighbors - {node}
    return expected


def ring_agreement(
    dlinks: Mapping[int, Sequence[int]], true_ring: Sequence[int]
) -> float:
    """Fraction of nodes whose d-links match the ground-truth ring.

    Exact match against :func:`ring_neighbor_sets`. Returns 1.0 when
    the gossip-built ring is perfect (or the population is empty).
    """
    n = len(true_ring)
    if n == 0:
        return 1.0
    expected = ring_neighbor_sets(true_ring)
    correct = 0
    for node in true_ring:
        if set(dlinks.get(node, ())) == expected[node]:
            correct += 1
    return correct / n
