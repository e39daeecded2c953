"""Pins for the three dissemination drivers no golden covers.

Every expected value below was captured at commit 7ff0315 (the parent
of the one-loop refactor) and must keep reproducing bit for bit: the
event-driven driver under heterogeneous latency on a damaged overlay,
the live driver with gossip (and churn) running between hops, and the
periodic pull protocol.
"""

import hashlib
import random

import pytest

from repro.dissemination.event_executor import disseminate_event_driven
from repro.dissemination.live import disseminate_live
from repro.dissemination.message import Message
from repro.dissemination.policies import RingCastPolicy
from repro.extensions.pull_protocol import PullDissemination
from repro.failures.churn import ArtificialChurn
from repro.membership.bootstrap import star_bootstrap
from repro.membership.cyclon import Cyclon
from repro.sim.cycle import CycleDriver
from repro.sim.latency import UniformLatency, ZeroLatency
from repro.sim.network import Network
from tests.conftest import build_warm_population


def _counters(result):
    return (
        result.population,
        result.notified,
        result.msgs_virgin,
        result.msgs_redundant,
        result.msgs_to_dead,
        result.missed_ids,
    )


def _times_digest(delivery_times):
    text = repr(sorted(delivery_times.items()))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# ``UniformLatency(2.0, 2.0)`` draws from the stream for every send yet
# makes every arrival of a wave tie, so it pins the draw order *and* the
# insertion-order tie break together.
EVENT_PINS = {
    "uniform": (
        UniformLatency(0.1, 5.0),
        (135, 134, 133, 102, 33, (16,)),
        29.42573059027325,
        "c4573193f808beb0",
    ),
    "degenerate-uniform": (
        UniformLatency(2.0, 2.0),
        (135, 132, 131, 101, 32, (25, 115, 134)),
        24.75,
        "41dfcd6e28952438",
    ),
    "zero": (
        ZeroLatency(),
        (135, 132, 131, 101, 32, (16, 25, 115)),
        3.25,
        "4556b25c83a9e569",
    ),
}


@pytest.mark.parametrize("name", sorted(EVENT_PINS))
def test_event_driven_on_damaged_ringcast(ringcast_snapshot, name):
    latency, counters, completion_time, digest = EVENT_PINS[name]
    damaged = ringcast_snapshot.kill_fraction(0.10, random.Random(7))
    result = disseminate_event_driven(
        damaged,
        RingCastPolicy(),
        2,
        damaged.alive_ids[3],
        random.Random(21),
        latency,
        forward_delay=0.25,
    )
    assert _counters(result) == counters
    assert result.completion_time == completion_time
    assert _times_digest(result.delivery_times) == digest


def _live(result):
    return _counters(result) + (result.hops, result.per_hop_new)


LIVE_PINS = {
    0: (80, 80, 79, 161, 0, (), 6, (1, 3, 7, 15, 24, 24, 6)),
    1: (80, 80, 79, 161, 0, (), 5, (1, 3, 9, 20, 33, 14)),
    3: (80, 80, 79, 161, 0, (), 6, (1, 3, 8, 17, 23, 25, 3)),
}
LIVE_CHURN_PIN = (
    (34, 33, 79, 68, 66, (23,), 8, (1, 3, 7, 13, 19, 18, 12, 6, 1))
)


@pytest.mark.parametrize("cycles_per_hop", sorted(LIVE_PINS))
def test_live_with_gossip_between_hops(cycles_per_hop):
    population = build_warm_population(
        "ringcast", num_nodes=80, seed=5, warmup=30
    )
    result = disseminate_live(
        population,
        fanout=3,
        origin=4,
        rng=random.Random(13),
        cycles_per_hop=cycles_per_hop,
    )
    assert _live(result) == LIVE_PINS[cycles_per_hop]


def test_live_under_churn():
    population = build_warm_population(
        "ringcast", num_nodes=80, seed=9, warmup=30
    )
    population.driver.churn = ArtificialChurn(
        rate=0.05, node_factory=population.node_factory
    )
    result = disseminate_live(
        population,
        fanout=3,
        origin=population.network.alive_ids()[0],
        rng=random.Random(13),
        cycles_per_hop=2,
    )
    assert _live(result) == LIVE_CHURN_PIN


PULL_PIN = (9, 23398, 5849, 298, 298)


def test_pull_protocol_to_full_coverage():
    rng = random.Random(0xC0FFEE)
    network = Network(rng)
    nodes = []
    for _ in range(150):
        node = network.create_node()
        cyclon = Cyclon(node, view_size=8, shuffle_length=4)
        node.attach("cyclon", cyclon)
        node.attach("pull", PullDissemination(node, cyclon))
        nodes.append(node)
    star_bootstrap(nodes)
    driver = CycleDriver(network, rng)
    driver.run(30)
    first, second = Message(origin=0, payload="a"), Message(origin=7)
    nodes[0].protocol("pull").publish(first)
    nodes[7].protocol("pull").publish(second)
    agents = [node.protocol("pull") for node in nodes]
    cycles = 0
    while not all(
        agent.knows(first.message_id) and agent.knows(second.message_id)
        for agent in agents
    ):
        driver.run(1)
        cycles += 1
        assert cycles < 100
    polls_sent = sum(agent.polls_sent for agent in agents)
    assert polls_sent == sum(agent.polls_answered for agent in agents)
    assert (
        cycles,
        network.gossip_messages,
        polls_sent,
        sum(agent.messages_fetched for agent in agents),
        sum(agent.messages_served for agent in agents),
    ) == PULL_PIN
