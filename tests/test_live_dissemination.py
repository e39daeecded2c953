"""Tests for dissemination over a still-gossiping overlay (§7.1 claim)."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RngRegistry
from repro.dissemination.live import disseminate_live
from repro.experiments.builder import build_population, warm_up
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.failures.churn import ArtificialChurn
from tests.conftest import build_warm_population


@pytest.fixture(scope="module")
def warm_ringcast_population():
    return build_warm_population("ringcast", num_nodes=120, seed=5)


class TestLiveDissemination:
    def test_complete_with_gossip_running(self, warm_ringcast_population, rng):
        result = disseminate_live(
            warm_ringcast_population, fanout=3, origin=0, rng=rng,
            cycles_per_hop=1,
        )
        assert result.complete

    def test_complete_with_fast_gossip(self, warm_ringcast_population, rng):
        # Forwarding time = 3 gossip periods: overlay changes a lot
        # between hops, macroscopic outcome must not.
        result = disseminate_live(
            warm_ringcast_population, fanout=3, origin=5, rng=rng,
            cycles_per_hop=3,
        )
        assert result.complete

    def test_zero_cycles_matches_frozen_semantics(
        self, warm_ringcast_population, rng
    ):
        result = disseminate_live(
            warm_ringcast_population, fanout=3, origin=1, rng=rng,
            cycles_per_hop=0,
        )
        assert result.complete

    def test_accounting_identity(self, warm_ringcast_population, rng):
        result = disseminate_live(
            warm_ringcast_population, fanout=4, origin=2, rng=rng
        )
        assert (
            result.total_messages
            == result.msgs_virgin + result.msgs_redundant + result.msgs_to_dead
        )
        assert sum(result.per_hop_new) == result.notified

    def test_validation(self, warm_ringcast_population, rng):
        with pytest.raises(ConfigurationError):
            disseminate_live(
                warm_ringcast_population, fanout=0, origin=0, rng=rng
            )
        with pytest.raises(ConfigurationError):
            disseminate_live(
                warm_ringcast_population,
                fanout=2,
                origin=0,
                rng=rng,
                cycles_per_hop=-1,
            )
        with pytest.raises(SimulationError):
            disseminate_live(
                warm_ringcast_population, fanout=2, origin=10**9, rng=rng
            )

    def test_under_churn_nodes_may_die_mid_flight(self, rng):
        population = build_warm_population(
            "ringcast", num_nodes=100, seed=9
        )
        churn = ArtificialChurn(
            rate=0.05, node_factory=population.node_factory
        )
        population.driver.churn = churn
        origin = population.network.alive_ids()[0]
        result = disseminate_live(
            population, fanout=3, origin=origin, rng=rng, cycles_per_hop=1
        )
        # The denominator only counts nodes alive at start and end.
        assert 0 < result.population <= 100
        assert result.hit_ratio > 0.8

    @pytest.mark.parametrize("seed", range(3))
    def test_no_survivor_of_the_flight_is_an_error(self, rng, seed):
        # Churn replaces 90 % of the nodes per cycle, three cycles per
        # hop: nobody alive at generation time is left at the end, so
        # there is no denominator (this used to return population=0
        # and raise ZeroDivisionError from hit_ratio).
        config = ExperimentConfig(
            num_nodes=12,
            view_size=4,
            shuffle_length=2,
            vicinity_gossip_length=3,
            warmup_cycles=20,
        )
        population = build_population(
            config, OverlaySpec("ringcast"), RngRegistry(seed)
        )
        warm_up(population)
        population.driver.churn = ArtificialChurn(
            0.9, population.node_factory
        )
        origin = population.network.alive_ids()[0]
        with pytest.raises(SimulationError, match="alive both"):
            disseminate_live(
                population, fanout=3, origin=origin, rng=rng,
                cycles_per_hop=3,
            )
