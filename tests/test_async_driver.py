"""Tests for the asynchronous (independent-timer) gossip driver."""

import hashlib
import json
import random

import pytest

from repro.common.errors import ConfigurationError
from repro.dissemination.snapshot import OverlaySnapshot
from repro.graphs.analysis import (
    indegree_map,
    is_strongly_connected,
    ring_agreement,
)
from repro.membership.bootstrap import star_bootstrap
from repro.membership.cyclon import Cyclon
from repro.membership.ring_ids import RingProximity
from repro.membership.vicinity import Vicinity
from repro.sim.async_driver import AsyncGossipDriver
from repro.sim.network import Network


def build_stack(rng, count=80, view_size=10):
    network = Network(rng)
    nodes = []
    for _ in range(count):
        node = network.create_node()
        cyclon = Cyclon(node, view_size=view_size, shuffle_length=4)
        node.attach("cyclon", cyclon)
        node.attach(
            "vicinity",
            Vicinity(
                node,
                proximity=RingProximity(),
                view_size=view_size,
                gossip_length=5,
                cyclon=cyclon,
            ),
        )
        nodes.append(node)
    star_bootstrap(nodes)
    return network, nodes


class TestValidation:
    def test_rejects_bad_period(self, rng):
        with pytest.raises(ConfigurationError):
            AsyncGossipDriver(Network(rng), rng, period=0)

    def test_rejects_bad_jitter(self, rng):
        with pytest.raises(ConfigurationError):
            AsyncGossipDriver(Network(rng), rng, period=1.0, jitter=1.0)

    def test_double_start_rejected(self, rng):
        network, _nodes = build_stack(rng, count=5)
        driver = AsyncGossipDriver(network, rng)
        driver.start()
        with pytest.raises(ConfigurationError):
            driver.start()


class TestExecution:
    def test_each_protocol_fires_about_once_per_period(self, rng):
        network, _nodes = build_stack(rng, count=30)
        driver = AsyncGossipDriver(network, rng, jitter=0.05)
        fired = driver.run(10)
        # 30 nodes x 2 protocols x ~10 periods.
        assert fired == pytest.approx(600, rel=0.15)

    def test_dead_nodes_stop_firing(self, rng):
        network, nodes = build_stack(rng, count=20)
        driver = AsyncGossipDriver(network, rng)
        driver.run(3)
        for node in nodes[:10]:
            network.kill_node(node.node_id)
        before = driver.exchanges_fired
        driver.run(5)
        per_period = (driver.exchanges_fired - before) / 5
        # Only ~10 alive nodes x 2 protocols keep firing.
        assert per_period == pytest.approx(20, rel=0.2)

    def test_enroll_new_node_mid_run(self, rng):
        network, _nodes = build_stack(rng, count=20)
        driver = AsyncGossipDriver(network, rng)
        driver.run(5)
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
        driver.enroll(joiner)
        driver.run(10)
        assert cyclon.shuffles_initiated > 0


class TestMacroscopicEquivalence:
    """The paper's timing model claim, applied to the overlay itself:
    asynchronous timers build the same overlays the cycle model does."""

    @pytest.fixture(scope="class")
    def converged(self):
        rng = random.Random(13)
        network, _nodes = build_stack(rng, count=80)
        driver = AsyncGossipDriver(network, rng, jitter=0.2)
        driver.run(80)
        return network

    def test_ring_converges_under_async_gossip(self, converged):
        dlinks = {}
        for node in converged.alive_nodes():
            succ, pred = node.protocol("vicinity").ring_neighbors()
            links = [l for l in (succ, pred) if l is not None]
            dlinks[node.node_id] = tuple(dict.fromkeys(links))
        assert ring_agreement(dlinks, converged.sorted_ring()) == 1.0

    def test_rlink_overlay_connected_and_balanced(self, converged):
        rlinks = {
            node.node_id: node.protocol("cyclon").neighbor_ids()
            for node in converged.alive_nodes()
        }
        assert is_strongly_connected(rlinks)
        indegrees = list(indegree_map(rlinks).values())
        mean = sum(indegrees) / len(indegrees)
        assert mean == pytest.approx(10, abs=0.5)

    def test_no_view_corruption(self, converged):
        for node in converged.alive_nodes():
            for name in ("cyclon", "vicinity"):
                view = node.protocol(name).view
                ids = view.ids()
                assert len(set(ids)) == len(ids)
                assert node.node_id not in ids
                assert view.size <= view.capacity


PINNED_EXCHANGES = 961
PINNED_DIGEST = (
    "7796df2cc9cdc9a76aced46f8532e5ff24967786eb41d028ae8df16a9d35adc1"
)


class TestPinnedRun:
    """One jittered run at one seed, pinned: the overlay it freezes and
    the number of protocol firings. Any change to the firing order
    (``(time, insertion)``) or to the random draws moves both."""

    def test_jittered_run_freezes_the_pinned_overlay(self):
        rng = random.Random(29)
        network, _nodes = build_stack(rng, count=40)
        driver = AsyncGossipDriver(network, rng, jitter=0.3)
        driver.run(5)
        driver.run(7)
        snapshot = OverlaySnapshot.from_network(network, kind="ringcast")
        payload = json.dumps(
            {
                "rlinks": sorted(snapshot.rlinks.items()),
                "dlinks": sorted(snapshot.dlinks.items()),
                "alive": snapshot.alive_ids,
                "ring_ids": sorted(snapshot.ring_ids.items()),
                "join_cycles": sorted(snapshot.join_cycles.items()),
                "frozen_at_cycle": snapshot.frozen_at_cycle,
            }
        )
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        assert (driver.exchanges_fired, digest) == (
            PINNED_EXCHANGES,
            PINNED_DIGEST,
        )
