"""Tests for the periodic pull-dissemination protocol."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.dissemination.message import Message
from repro.extensions.pull_protocol import PullDissemination
from repro.membership.bootstrap import star_bootstrap
from repro.membership.cyclon import Cyclon
from repro.sim.cycle import CycleDriver
from repro.sim.network import Network


def build_pull_network(rng, count=60, pull_fanout=1):
    network = Network(rng)
    nodes = []
    for _ in range(count):
        node = network.create_node()
        cyclon = Cyclon(node, view_size=8, shuffle_length=4)
        node.attach("cyclon", cyclon)
        node.attach(
            "pull",
            PullDissemination(node, cyclon, pull_fanout=pull_fanout),
        )
        nodes.append(node)
    star_bootstrap(nodes)
    driver = CycleDriver(network, rng)
    driver.run(30)  # let CYCLON mix before measuring pulls
    return network, nodes, driver


def coverage(network, message_id):
    holders = sum(
        1
        for node in network.alive_nodes()
        if node.protocol("pull").knows(message_id)
    )
    return holders / network.size


class TestPullDissemination:
    def test_validation(self, rng):
        network = Network(rng)
        node = network.create_node()
        cyclon = Cyclon(node)
        with pytest.raises(ConfigurationError):
            PullDissemination(node, cyclon, pull_fanout=0)
        # Removed in 3.0.0 with ``MessageStore``: the bounded digest
        # and expiry land in ``DisseminationCore``, for sim and UDP.
        for removed in ("store_capacity", "batch_limit"):
            with pytest.raises(TypeError):
                PullDissemination(node, cyclon, **{removed: 1})

    def test_message_spreads_to_everyone(self, rng):
        network, nodes, driver = build_pull_network(rng)
        message = Message(origin=nodes[0].node_id, payload="x")
        nodes[0].protocol("pull").publish(message)
        driver.run(40)
        assert coverage(network, message.message_id) == 1.0

    def test_coverage_monotone_nondecreasing(self, rng):
        network, nodes, driver = build_pull_network(rng)
        message = Message(origin=nodes[0].node_id)
        nodes[0].protocol("pull").publish(message)
        last = 0.0
        for _ in range(30):
            driver.run(1)
            now = coverage(network, message.message_id)
            assert now >= last
            last = now

    def test_pull_slower_than_push(self, rng):
        # The paper's §1 claim: pull latency is significantly longer
        # than push's reactive hops. Push at F=8 covers N=60 in ~3
        # hops; pull needs many more cycles.
        network, nodes, driver = build_pull_network(rng)
        message = Message(origin=nodes[0].node_id)
        nodes[0].protocol("pull").publish(message)
        cycles = 0
        while coverage(network, message.message_id) < 1.0 and cycles < 60:
            driver.run(1)
            cycles += 1
        assert cycles > 3

    def test_higher_pull_fanout_faster(self):
        def cycles_to_full(pull_fanout, seed):
            rng = random.Random(seed)
            network, nodes, driver = build_pull_network(
                rng, pull_fanout=pull_fanout
            )
            message = Message(origin=nodes[0].node_id)
            nodes[0].protocol("pull").publish(message)
            cycles = 0
            while (
                coverage(network, message.message_id) < 1.0 and cycles < 100
            ):
                driver.run(1)
                cycles += 1
            return cycles

        slow = sum(cycles_to_full(1, seed) for seed in range(3))
        fast = sum(cycles_to_full(3, seed) for seed in range(3))
        assert fast < slow

    def test_multiple_messages_converge(self, rng):
        network, nodes, driver = build_pull_network(rng)
        messages = []
        for origin_node in nodes[:5]:
            message = Message(origin=origin_node.node_id)
            origin_node.protocol("pull").publish(message)
            messages.append(message)
        driver.run(50)
        for message in messages:
            assert coverage(network, message.message_id) == 1.0

    def test_traffic_accounting(self, rng):
        network, nodes, driver = build_pull_network(rng)
        nodes[0].protocol("pull").publish(Message(origin=nodes[0].node_id))
        before = network.gossip_messages
        driver.run(5)
        assert network.gossip_messages > before
        total_polls = sum(
            node.protocol("pull").polls_sent
            for node in network.alive_nodes()
        )
        total_answered = sum(
            node.protocol("pull").polls_answered
            for node in network.alive_nodes()
        )
        assert total_polls == total_answered
        assert total_polls >= network.size * 4  # ~1 poll/node/cycle
