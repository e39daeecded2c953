"""Tests for the VICINITY proximity layer.

The critical property: fed by CYCLON, ring-proximity VICINITY converges
every node's d-links to the true ring successor/predecessor — the
foundation of RINGCAST's zero miss ratio.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.analysis import is_strongly_connected, ring_agreement
from repro.membership.bootstrap import star_bootstrap
from repro.membership.cyclon import Cyclon
from repro.membership.ring_ids import (
    OrderedRingProximity,
    RingProximity,
    circular_distance,
    closest_indices,
)
from repro.membership.vicinity import Vicinity
from repro.sim.cycle import CycleDriver
from repro.sim.network import Network


def build_stack(rng, count=80, view_size=10, domain_ring=False, domains=4):
    network = Network(rng)
    nodes = []
    for i in range(count):
        domain = f"com.example.d{i % domains}" if domain_ring else None
        node = network.create_node(domain=domain)
        cyclon = Cyclon(node, view_size=view_size, shuffle_length=4)
        node.attach("cyclon", cyclon)
        proximity = (
            OrderedRingProximity() if domain_ring else RingProximity()
        )
        node.attach(
            "vicinity",
            Vicinity(
                node,
                proximity=proximity,
                view_size=view_size,
                gossip_length=5,
                cyclon=cyclon,
            ),
        )
        nodes.append(node)
    star_bootstrap(nodes)
    return network, nodes


def dlinks_of(network):
    result = {}
    for node in network.alive_nodes():
        succ, pred = node.protocol("vicinity").ring_neighbors()
        links = [l for l in (succ, pred) if l is not None]
        result[node.node_id] = tuple(dict.fromkeys(links))
    return result


class TestConvergence:
    def test_converges_to_perfect_ring(self, rng):
        network, _nodes = build_stack(rng, count=80)
        CycleDriver(network, rng).run(60)
        agreement = ring_agreement(dlinks_of(network), network.sorted_ring())
        assert agreement == 1.0

    def test_converged_dgraph_strongly_connected(self, rng):
        network, _nodes = build_stack(rng, count=60)
        CycleDriver(network, rng).run(60)
        assert is_strongly_connected(dlinks_of(network))

    def test_partial_convergence_early(self, rng):
        network, _nodes = build_stack(rng, count=80)
        driver = CycleDriver(network, rng)
        driver.run(3)
        early = ring_agreement(dlinks_of(network), network.sorted_ring())
        driver.run(57)
        late = ring_agreement(dlinks_of(network), network.sorted_ring())
        assert late == 1.0
        assert early < late

    def test_convergence_deterministic(self):
        def run(seed):
            rng = random.Random(seed)
            network, _ = build_stack(rng, count=40)
            CycleDriver(network, rng).run(40)
            return dlinks_of(network)

        assert run(8) == run(8)

    def test_domain_ring_converges_in_key_order(self, rng):
        network, _nodes = build_stack(rng, count=60, domain_ring=True)
        CycleDriver(network, rng).run(80)
        proximity = OrderedRingProximity()
        true_ring = [
            n.node_id
            for n in sorted(
                network.alive_nodes(),
                key=lambda n: proximity.sort_key(n.profile),
            )
        ]
        assert ring_agreement(dlinks_of(network), true_ring) == 1.0


class TestViewMaintenance:
    def test_views_capped(self, rng):
        network, _nodes = build_stack(rng, count=60, view_size=6)
        CycleDriver(network, rng).run(30)
        for node in network.alive_nodes():
            assert node.protocol("vicinity").view.size <= 6

    def test_views_never_contain_self(self, rng):
        network, _nodes = build_stack(rng, count=40)
        CycleDriver(network, rng).run(30)
        for node in network.alive_nodes():
            assert not node.protocol("vicinity").view.contains(node.node_id)

    def test_view_entries_are_nearest_ids(self, rng):
        network, _nodes = build_stack(rng, count=80, view_size=10)
        CycleDriver(network, rng).run(60)
        ring = network.sorted_ring()
        position = {nid: i for i, nid in enumerate(ring)}
        n = len(ring)
        for node in network.alive_nodes():
            my_pos = position[node.node_id]
            for entry in node.protocol("vicinity").view.descriptors():
                distance = abs(position[entry.node_id] - my_pos)
                ring_distance = min(distance, n - distance)
                # A converged view of 10 should hold peers within ~5
                # positions per side; allow slack for ties.
                assert ring_distance <= 10

    def test_empty_view_ring_neighbors(self, rng):
        network = Network(rng)
        node = network.create_node()
        cyclon = Cyclon(node, view_size=4, shuffle_length=2)
        node.attach("cyclon", cyclon)
        vicinity = Vicinity(
            node, proximity=RingProximity(), view_size=4, cyclon=cyclon
        )
        assert vicinity.ring_neighbors() == (None, None)

    def test_closest_ids_ordering(self, rng):
        network, _nodes = build_stack(rng, count=60)
        CycleDriver(network, rng).run(50)
        node = network.alive_nodes()[0]
        vicinity = node.protocol("vicinity")
        closest_two = set(vicinity.closest_ids(2))
        succ, pred = vicinity.ring_neighbors()
        assert closest_two <= set(vicinity.view.ids())
        assert {succ, pred} <= set(vicinity.view.ids())


class TestFailureHandling:
    def test_dead_vicinity_partner_pruned_on_contact(self, rng):
        network, nodes = build_stack(rng, count=30)
        CycleDriver(network, rng).run(30)
        victim = nodes[7].node_id
        network.kill_node(victim)
        CycleDriver(network, rng).run(40)
        for node in network.alive_nodes():
            succ, pred = node.protocol("vicinity").ring_neighbors()
            assert victim not in (succ, pred)

    def test_ring_reheals_after_failure(self, rng):
        network, nodes = build_stack(rng, count=60)
        CycleDriver(network, rng).run(60)
        for victim in [n.node_id for n in nodes[5:10]]:
            network.kill_node(victim)
        CycleDriver(network, rng).run(60)
        agreement = ring_agreement(dlinks_of(network), network.sorted_ring())
        assert agreement == 1.0

    def test_new_node_acquires_ring_position(self, rng):
        network, _nodes = build_stack(rng, count=60)
        driver = CycleDriver(network, rng)
        driver.run(60)
        joiner = network.create_node()
        cyclon = Cyclon(joiner, view_size=10, shuffle_length=4)
        joiner.attach("cyclon", cyclon)
        joiner.attach(
            "vicinity",
            Vicinity(
                joiner,
                proximity=RingProximity(),
                view_size=10,
                gossip_length=5,
                cyclon=cyclon,
            ),
        )
        from repro.membership.bootstrap import join_with_contact

        join_with_contact(joiner, network, rng)
        driver.run(30)
        agreement = ring_agreement(dlinks_of(network), network.sorted_ring())
        assert agreement == 1.0


class TestExchangeMechanics:
    def test_exchange_counters_balance(self, rng):
        network, _nodes = build_stack(rng, count=20)
        CycleDriver(network, rng).run(10)
        initiated = sum(
            n.protocol("vicinity").exchanges_initiated
            for n in network.alive_nodes()
        )
        received = sum(
            n.protocol("vicinity").exchanges_received
            for n in network.alive_nodes()
        )
        assert initiated == received
        assert initiated > 0

    def test_gossip_length_respected(self, rng):
        network, nodes = build_stack(rng, count=30, view_size=10)
        CycleDriver(network, rng).run(20)
        vicinity = nodes[0].protocol("vicinity")
        payload = vicinity._entries_for(
            nodes[1].profile, exclude_id=nodes[1].node_id
        )
        assert len(payload) <= vicinity.gossip_length
        assert all(d.node_id != nodes[1].node_id for d in payload)

    def test_payload_contains_self_when_relevant(self, rng):
        # A node gossiping with its direct ring neighbor should offer
        # its own descriptor (it is among the closest to the target).
        network, _nodes = build_stack(rng, count=40)
        CycleDriver(network, rng).run(50)
        node = network.alive_nodes()[0]
        vicinity = node.protocol("vicinity")
        succ, _pred = vicinity.ring_neighbors()
        succ_profile = network.node(succ).profile
        payload = vicinity._entries_for(succ_profile, exclude_id=succ)
        assert any(d.node_id == node.node_id for d in payload)


def shared_entries(node):
    """VICINITY entries that *are* the CYCLON view's descriptor object."""
    cyclon_view = node.protocol("cyclon").view
    return [
        descriptor
        for descriptor in node.protocol("vicinity").view.descriptors()
        if cyclon_view.get(descriptor.node_id) is descriptor
    ]


class TestSharedDescriptors:
    """Characterisation, not endorsement: view selection keeps the CYCLON
    view's *live* descriptors, so a node's two views can hold one object
    and that entry ages twice per cycle. Every ringcast golden and the
    benchmark's pinned digests depend on it; the flat warm-up kernel
    replays it. A fix must change these tests on purpose."""

    def test_view_selection_keeps_the_cyclon_object(self, rng):
        _network, nodes = build_stack(rng, count=3)
        spoke = nodes[1]  # star bootstrap: its CYCLON view holds the hub
        hub = spoke.protocol("cyclon").view.get(nodes[0].node_id)
        assert hub is not None
        spoke.protocol("vicinity").core._merge([])
        assert spoke.protocol("vicinity").view.get(hub.node_id) is hub

    def test_shared_entry_ages_twice_per_cycle(self, rng):
        network, _nodes = build_stack(rng, count=60)
        CycleDriver(network, rng).run(30)
        sharing = [n for n in network.alive_nodes() if shared_entries(n)]
        assert sharing, "warm-up no longer shares descriptors across views"
        node = sharing[0]
        shared = shared_entries(node)
        vicinity_view = node.protocol("vicinity").view
        own = [d for d in vicinity_view.descriptors() if d not in shared]
        before = {id(d): d.age for d in shared + own}
        # What the two execute_cycle calls of one cycle do first.
        node.protocol("cyclon").core.begin_cycle()
        node.protocol("vicinity").core.begin_cycle()
        assert all(d.age == before[id(d)] + 2 for d in shared)
        assert all(d.age == before[id(d)] + 1 for d in own)

    def test_shipped_entries_are_copies(self, rng):
        network, _nodes = build_stack(rng, count=40)
        CycleDriver(network, rng).run(20)
        held = {
            id(d)
            for n in network.alive_nodes()
            for name in ("cyclon", "vicinity")
            for d in n.protocol(name).view.descriptors()
        }
        node, other = network.alive_nodes()[:2]
        payload = node.protocol("vicinity")._entries_for(
            other.profile, exclude_id=other.node_id
        )
        assert payload and not any(id(d) in held for d in payload)


@st.composite
def selections(draw):
    """A view selected from some pool, then peers from outside it, in an
    ID space small enough that equal distances are everywhere."""
    space = draw(st.integers(2, 24))
    keys = st.integers(0, space - 1)
    ref = draw(keys)
    pool = draw(st.lists(keys, min_size=1, max_size=12))
    count = draw(st.integers(1, len(pool)))
    view = [pool[i] for i in closest_indices(pool, ref, count, space)]
    outsiders = draw(st.lists(keys, max_size=8))
    return space, ref, view, outsiders


def select_on_ints_and_floats(keys, ref, count, space):
    """``closest_indices`` on int keys, which the same keys as floats
    (what the flat warm-up kernel ranks on) must agree with."""
    chosen = closest_indices(keys, ref, count, space)
    assert chosen == closest_indices(
        map(float, keys), float(ref), count, float(space)
    )
    return chosen


class TestSelectionLeavesASettledViewAlone:
    """What lets the flat warm-up kernel skip a ranking, stated on
    ``closest_indices`` alone: a closest-first view placed ahead of the
    newcomers comes back as it stands exactly when no newcomer is
    *strictly* closer than its farthest entry."""

    @given(selections())
    def test_a_full_view_changes_iff_an_outsider_is_strictly_closer(
        self, selection
    ):
        space, ref, view, outsiders = selection
        farthest = circular_distance(ref, view[-1], space)
        closer = any(
            circular_distance(ref, key, space) < farthest for key in outsiders
        )
        chosen = select_on_ints_and_floats(
            view + outsiders, ref, len(view), space
        )
        assert (chosen == list(range(len(view)))) == (not closer)

    @given(selections(), st.integers(1, 4))
    def test_a_view_with_room_changes_iff_there_is_an_outsider(
        self, selection, room
    ):
        space, ref, view, outsiders = selection
        chosen = select_on_ints_and_floats(
            view + outsiders, ref, len(view) + room, space
        )
        assert (chosen == list(range(len(view)))) == (not outsiders)
