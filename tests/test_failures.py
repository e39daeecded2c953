"""Tests for failure models: artificial churn."""

import pytest

from repro.common.errors import ConfigurationError
from repro.failures.churn import ArtificialChurn
from repro.membership.cyclon import Cyclon
from repro.sim.cycle import CycleDriver
from repro.sim.network import Network


def cyclon_factory(network):
    node = network.create_node()
    node.attach("cyclon", Cyclon(node, view_size=5, shuffle_length=3))
    return node


def build_network(rng, count=50):
    network = Network(rng)
    for _ in range(count):
        cyclon_factory(network)
    return network


class TestArtificialChurn:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            ArtificialChurn(rate=1.5, node_factory=cyclon_factory)

    def test_replacements_for_large_population(self):
        churn = ArtificialChurn(rate=0.002, node_factory=cyclon_factory)
        assert churn.replacements_for(10_000) == 20

    def test_fractional_carry_preserves_rate(self):
        churn = ArtificialChurn(rate=0.002, node_factory=cyclon_factory)
        total = sum(churn.replacements_for(500) for _ in range(1000))
        assert total == pytest.approx(1000, abs=1)

    def test_population_size_constant(self, rng):
        network = build_network(rng, 50)
        churn = ArtificialChurn(rate=0.1, node_factory=cyclon_factory)
        for _ in range(10):
            churn(network, rng)
        assert network.size == 50
        assert churn.total_removed == churn.total_joined == 50

    def test_joiners_get_contact_and_fresh_join_cycle(self, rng):
        network = build_network(rng, 30)
        network.current_cycle = 5
        churn = ArtificialChurn(rate=0.1, node_factory=cyclon_factory)
        churn(network, rng)
        joiners = [n for n in network.alive_nodes() if n.join_cycle == 5]
        assert len(joiners) == 3
        for joiner in joiners:
            assert joiner.protocol("cyclon").view.size == 1

    def test_removed_nodes_never_return(self, rng):
        network = build_network(rng, 30)
        churn = ArtificialChurn(rate=0.1, node_factory=cyclon_factory)
        dead = set()
        for _ in range(20):
            churn(network, rng)
            alive = set(network.alive_ids())
            assert not (alive & dead)
            dead |= set(
                n.node_id for n in network.all_nodes() if not n.alive
            )

    def test_min_population_floor(self, rng):
        network = build_network(rng, 3)
        churn = ArtificialChurn(
            rate=0.9, node_factory=cyclon_factory, min_population=3
        )
        churn(network, rng)
        assert network.size == 3
        assert churn.total_removed == 0

    def test_full_turnover_detection(self, rng):
        network = build_network(rng, 10)
        churn = ArtificialChurn(rate=0.3, node_factory=cyclon_factory)
        driver = CycleDriver(network, rng, churn=churn)
        assert not churn.full_turnover_reached(network)
        driver.run_until(churn.full_turnover_reached, max_cycles=300)
        assert churn.full_turnover_reached(network)
        assert all(n.join_cycle > 0 for n in network.alive_nodes())

