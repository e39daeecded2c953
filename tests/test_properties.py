"""Property-based tests (hypothesis) for core invariants.

These cover the properties the paper's correctness argument leans on:
Harary/ring connectivity, flooding completeness on strongly connected
graphs, view-merge invariants under arbitrary operation sequences, the
circular-distance metric, and executor accounting identities.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dissemination.executor import disseminate
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
)
from repro.dissemination.snapshot import OverlaySnapshot
from repro.graphs.analysis import is_strongly_connected
from repro.graphs.generators import bidirectional_ring, harary_graph
from repro.membership.ring_ids import (
    RingProximity,
    circular_distance,
    clockwise_distance,
)
from repro.membership.views import NodeDescriptor, PartialView
from repro.sim.node import NodeProfile

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# circular distance metric
# ----------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=2**32 - 1)


@SETTINGS
@given(a=ids, b=ids)
def test_circular_distance_symmetric(a, b):
    assert circular_distance(a, b) == circular_distance(b, a)


@SETTINGS
@given(a=ids)
def test_circular_distance_identity(a):
    assert circular_distance(a, a) == 0


@SETTINGS
@given(a=ids, b=ids)
def test_circular_distance_bounded_by_half_space(a, b):
    assert 0 <= circular_distance(a, b) <= 2**31


@SETTINGS
@given(a=ids, b=ids, c=ids)
def test_circular_distance_triangle_inequality(a, b, c):
    assert circular_distance(a, c) <= (
        circular_distance(a, b) + circular_distance(b, c)
    )


@SETTINGS
@given(a=ids, b=ids)
def test_clockwise_distances_complement(a, b):
    if a != b:
        assert (
            clockwise_distance(a, b) + clockwise_distance(b, a) == 2**32
        )


# ----------------------------------------------------------------------
# Harary graphs
# ----------------------------------------------------------------------


@SETTINGS
@given(
    n=st.integers(min_value=5, max_value=40),
    t=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_harary_survives_t_minus_1_failures(n, t, seed):
    if t >= n:
        return
    adjacency = harary_graph(list(range(n)), t)
    rng = random.Random(seed)
    victims = set(rng.sample(range(n), t - 1))
    survivors = {
        node: tuple(x for x in links if x not in victims)
        for node, links in adjacency.items()
        if node not in victims
    }
    assert is_strongly_connected(survivors)


@SETTINGS
@given(
    n=st.integers(min_value=5, max_value=60),
    t=st.integers(min_value=2, max_value=6),
)
def test_harary_degrees_t_or_t_plus_1(n, t):
    if t >= n:
        return
    adjacency = harary_graph(list(range(n)), t)
    assert all(t <= len(links) <= t + 1 for links in adjacency.values())


# ----------------------------------------------------------------------
# flooding completeness
# ----------------------------------------------------------------------


@st.composite
def strongly_connected_digraph(draw):
    """A random digraph guaranteed strongly connected: a directed cycle
    backbone plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=30))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=60,
        )
    )
    adjacency = {i: {(i + 1) % n} for i in range(n)}
    for src, dst in extra:
        if src != dst:
            adjacency[src].add(dst)
    return {node: tuple(links) for node, links in adjacency.items()}


@SETTINGS
@given(adjacency=strongly_connected_digraph(), seed=st.integers(0, 999))
def test_flooding_reaches_all_on_strongly_connected(adjacency, seed):
    snapshot = OverlaySnapshot.from_graph(adjacency)
    origin = random.Random(seed).choice(snapshot.alive_ids)
    result = disseminate(
        snapshot, FloodingPolicy(), 1, origin, random.Random(seed)
    )
    assert result.complete


@SETTINGS
@given(
    n=st.integers(min_value=3, max_value=60),
    origin_index=st.integers(min_value=0),
    seed=st.integers(0, 999),
)
def test_ringcast_complete_on_perfect_ring_any_fanout(
    n, origin_index, seed
):
    """On a perfect ring with arbitrary r-links RINGCAST always completes."""
    ids_list = list(range(n))
    ring = bidirectional_ring(ids_list)
    rng = random.Random(seed)
    rlinks = {
        i: tuple(
            rng.sample([x for x in ids_list if x != i], min(5, n - 1))
        )
        for i in ids_list
    }
    snapshot = OverlaySnapshot(
        kind="ringcast",
        rlinks=rlinks,
        dlinks=ring,
        alive_ids=tuple(ids_list),
    )
    fanout = 1 + seed % 6
    result = disseminate(
        snapshot,
        RingCastPolicy(),
        fanout,
        ids_list[origin_index % n],
        rng,
    )
    assert result.complete


# ----------------------------------------------------------------------
# executor accounting
# ----------------------------------------------------------------------


@SETTINGS
@given(
    seed=st.integers(0, 9999),
    fanout=st.integers(min_value=1, max_value=8),
    kill=st.integers(min_value=0, max_value=20),
)
def test_executor_accounting_identities(seed, fanout, kill):
    rng = random.Random(seed)
    n = 60
    ids_list = list(range(n))
    ring = bidirectional_ring(ids_list)
    rlinks = {
        i: tuple(rng.sample([x for x in ids_list if x != i], 8))
        for i in ids_list
    }
    snapshot = OverlaySnapshot(
        kind="ringcast",
        rlinks=rlinks,
        dlinks=ring,
        alive_ids=tuple(ids_list),
    )
    if kill:
        snapshot = snapshot.kill_count(kill, rng)
    origin = snapshot.random_alive(rng)
    result = disseminate(snapshot, RingCastPolicy(), fanout, origin, rng)
    assert result.notified == result.msgs_virgin + 1
    assert sum(result.per_hop_new) == result.notified
    assert (
        result.total_messages
        == result.msgs_virgin + result.msgs_redundant + result.msgs_to_dead
    )
    assert len(result.missed_ids) == result.population - result.notified
    assert 0.0 <= result.hit_ratio <= 1.0


@SETTINGS
@given(seed=st.integers(0, 9999), fanout=st.integers(1, 10))
def test_randcast_never_exceeds_fanout_messages_per_node(seed, fanout):
    rng = random.Random(seed)
    n = 50
    ids_list = list(range(n))
    rlinks = {
        i: tuple(rng.sample([x for x in ids_list if x != i], 10))
        for i in ids_list
    }
    snapshot = OverlaySnapshot(
        kind="randcast",
        rlinks=rlinks,
        dlinks={i: () for i in ids_list},
        alive_ids=tuple(ids_list),
    )
    result = disseminate(
        snapshot,
        RandCastPolicy(),
        fanout,
        0,
        rng,
        collect_load=True,
    )
    assert all(v <= fanout for v in result.sent_per_node.values())


# ----------------------------------------------------------------------
# view merge invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "age"]),
            st.integers(min_value=1, max_value=12),
        ),
        max_size=60,
    )
)
def test_view_invariants_under_operation_sequences(operations):
    view = PartialView(owner_id=0, capacity=5)
    for op, node_id in operations:
        if op == "add":
            if not view.contains(node_id) and not view.is_full:
                view.add(
                    NodeDescriptor(
                        node_id, 0, NodeProfile(ring_ids=(node_id,))
                    )
                )
        elif op == "remove":
            view.remove(node_id)
        else:
            view.increment_ages()
        assert view.size <= view.capacity
        assert not view.contains(0)
        ids_now = view.ids()
        assert len(set(ids_now)) == len(ids_now)


@SETTINGS
@given(
    ring_ids=st.lists(
        st.integers(min_value=0, max_value=999),
        min_size=2,
        max_size=30,
        unique=True,
    ),
    me=st.integers(min_value=0, max_value=999),
    k=st.integers(min_value=1, max_value=10),
)
def test_ring_proximity_select_returns_k_closest(ring_ids, me, k):
    proximity = RingProximity(space=1000)
    if me in ring_ids:
        ring_ids = [r for r in ring_ids if r != me]
    if not ring_ids:
        return
    candidates = [
        NodeDescriptor(i, 0, NodeProfile(ring_ids=(rid,)))
        for i, rid in enumerate(ring_ids)
    ]
    my_profile = NodeProfile(ring_ids=(me,))
    chosen = proximity.select(my_profile, candidates, k)
    assert len(chosen) == min(k, len(candidates))
    chosen_distances = {
        circular_distance(me, d.profile.ring_id, 1000) for d in chosen
    }
    rest = [d for d in candidates if d not in chosen]
    if rest and chosen_distances:
        best_unchosen = min(
            circular_distance(me, d.profile.ring_id, 1000) for d in rest
        )
        assert max(chosen_distances) <= best_unchosen


@SETTINGS
@given(
    ring_ids=st.lists(
        st.integers(min_value=0, max_value=999),
        min_size=1,
        max_size=30,
        unique=True,
    ),
    me=st.integers(min_value=0, max_value=999),
)
def test_ring_neighbors_are_true_successor_predecessor(ring_ids, me):
    proximity = RingProximity(space=1000)
    ring_ids = [r for r in ring_ids if r != me]
    if not ring_ids:
        return
    candidates = [
        NodeDescriptor(i, 0, NodeProfile(ring_ids=(rid,)))
        for i, rid in enumerate(ring_ids)
    ]
    my_profile = NodeProfile(ring_ids=(me,))
    succ, pred = proximity.ring_neighbors(my_profile, candidates)
    expected_succ = min(
        range(len(ring_ids)),
        key=lambda i: clockwise_distance(me, ring_ids[i], 1000),
    )
    expected_pred = min(
        range(len(ring_ids)),
        key=lambda i: clockwise_distance(ring_ids[i], me, 1000),
    )
    assert succ == expected_succ
    assert pred == expected_pred


# ----------------------------------------------------------------------
# snapshot failure injection
# ----------------------------------------------------------------------


@SETTINGS
@given(
    n=st.integers(min_value=5, max_value=80),
    fraction_pct=st.integers(min_value=0, max_value=90),
    seed=st.integers(0, 999),
)
def test_kill_fraction_population_arithmetic(n, fraction_pct, seed):
    ids_list = list(range(n))
    snapshot = OverlaySnapshot(
        kind="ringcast",
        rlinks={i: () for i in ids_list},
        dlinks=bidirectional_ring(ids_list),
        alive_ids=tuple(ids_list),
    )
    fraction = fraction_pct / 100.0
    expected_killed = int(round(fraction * n))
    if expected_killed >= n:
        return
    damaged = snapshot.kill_fraction(fraction, random.Random(seed))
    assert damaged.population == n - expected_killed
    assert set(damaged.alive_ids) <= set(snapshot.alive_ids)
