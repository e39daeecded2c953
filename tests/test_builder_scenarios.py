"""Tests for population building and the three evaluation scenarios."""

import pytest

from repro.common.rng import RngRegistry
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    make_node_factory,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.experiments.scenarios import ScenarioRuns, sweep_snapshot
from tests.conftest import FIGURE_CONFIG

TINY = ExperimentConfig(
    num_nodes=120,
    warmup_cycles=50,
    num_messages=6,
    num_networks=1,
    fanouts=(1, 2, 3, 5),
    seed=13,
    churn_rate=0.01,
    churn_networks=1,
    churn_max_cycles=600,
)


class TestNodeFactory:
    def test_ringcast_stack(self, rng):
        from repro.sim.network import Network

        network = Network(rng)
        factory = make_node_factory(TINY, OverlaySpec("ringcast"))
        node = factory(network)
        assert set(node.protocols) == {"cyclon", "vicinity"}

    def test_randcast_stack(self, rng):
        from repro.sim.network import Network

        network = Network(rng)
        factory = make_node_factory(TINY, OverlaySpec("randcast"))
        node = factory(network)
        assert set(node.protocols) == {"cyclon"}

    def test_multiring_stack(self, rng):
        from repro.sim.network import Network

        network = Network(rng)
        factory = make_node_factory(
            TINY, OverlaySpec("multiring", num_rings=3)
        )
        node = factory(network)
        assert set(node.protocols) == {
            "cyclon",
            "vicinity0",
            "vicinity1",
            "vicinity2",
        }
        assert len(node.profile.ring_ids) == 3

    def test_domain_ring_assigns_domains(self, rng):
        from repro.sim.network import Network

        network = Network(rng)
        factory = make_node_factory(
            TINY,
            OverlaySpec("domain_ring", num_domains=5),
            domain_rng=rng,
        )
        domains = {factory(network).profile.domain for _ in range(40)}
        assert len(domains) == 5
        assert all(d.startswith("com.example.d") for d in domains)


class TestBuildAndFreeze:
    def test_population_size(self):
        population = build_population(
            TINY, OverlaySpec("ringcast"), RngRegistry(1)
        )
        assert population.network.size == 120

    def test_star_bootstrap_shape(self):
        population = build_population(
            TINY, OverlaySpec("ringcast"), RngRegistry(1)
        )
        hub = population.network.alive_nodes()[0]
        spokes = population.network.alive_nodes()[1:]
        assert hub.protocol("cyclon").view.size == 0
        assert all(
            s.protocol("cyclon").neighbor_ids() == (hub.node_id,)
            for s in spokes
        )

    def test_freeze_kind_propagation(self):
        for kind in ("ringcast", "randcast"):
            population = build_population(
                TINY, OverlaySpec(kind), RngRegistry(1)
            )
            warm_up(population, 30)
            assert freeze_overlay(population).kind == kind

    def test_hararycast_dlink_width(self):
        population = build_population(
            TINY,
            OverlaySpec("hararycast", harary_connectivity=4),
            RngRegistry(1),
        )
        warm_up(population, 50)
        snapshot = freeze_overlay(population)
        assert all(
            len(snapshot.dlinks[i]) == 4 for i in snapshot.alive_ids
        )

    def test_build_deterministic(self):
        def snapshot_of(seed_registry):
            population = build_population(
                TINY, OverlaySpec("ringcast"), seed_registry
            )
            warm_up(population, 30)
            return freeze_overlay(population)

        a = snapshot_of(RngRegistry(5))
        b = snapshot_of(RngRegistry(5))
        assert a.rlinks == b.rlinks
        assert a.dlinks == b.dlinks


class TestStaticScenario:
    @pytest.fixture(scope="class")
    def sweep(self):
        return ScenarioRuns(TINY).static("ringcast")

    def test_all_fanouts_swept(self, sweep):
        assert sweep.fanouts() == (1, 2, 3, 5)

    def test_runs_per_fanout(self, sweep):
        assert all(
            len(sweep.runs[f]) == TINY.num_messages for f in sweep.fanouts()
        )

    def test_ringcast_zero_miss(self, sweep):
        for fanout in sweep.fanouts():
            assert sweep.stats(fanout).mean_miss_ratio == 0.0
            assert sweep.stats(fanout).complete_fraction == 1.0

    def test_progress_envelope_shape(self, sweep):
        means, best, worst = sweep.progress(3)
        assert means[0] > 90.0
        assert means[-1] == 0.0
        assert all(b <= m <= w for m, b, w in zip(means, best, worst))

    def test_multi_network_merging(self):
        config = TINY.with_overrides(num_networks=2, num_messages=3)
        sweep = ScenarioRuns(config).static("ringcast")
        assert all(len(sweep.runs[f]) == 6 for f in sweep.fanouts())


class TestCatastrophicScenario:
    @pytest.fixture(scope="class")
    def runs(self):
        return ScenarioRuns(TINY)

    def test_population_shrinks(self, runs):
        sweep = runs.catastrophic("ringcast", 0.10)
        any_run = sweep.runs[2][0]
        assert any_run.population == 108

    def test_ringcast_beats_randcast_after_failure(self, runs):
        ring = runs.catastrophic("ringcast", 0.05)
        rand = runs.catastrophic("randcast", 0.05)
        ring_miss = ring.stats(3).mean_miss_ratio
        rand_miss = rand.stats(3).mean_miss_ratio
        assert ring_miss < rand_miss

    def test_messages_to_dead_occur(self, runs):
        sweep = runs.catastrophic("ringcast", 0.10)
        assert sweep.stats(3).mean_msgs_to_dead > 0

    def test_kills_leave_the_static_overlay_intact(self, runs):
        # Every kill fraction is a view of the one frozen overlay per
        # network: killing does not shrink it, and the static run
        # still reaches all of it.
        (overlay,) = runs.overlays("ringcast")
        runs.catastrophic("ringcast", 0.10)
        assert runs.overlays("ringcast")[0] is overlay
        assert overlay.population == TINY.num_nodes
        assert runs.static("ringcast").runs[2][0].population == 120


class TestChurnScenario:
    """Read the shared ``figure_runs`` fixture: its churn run is the
    one Figs. 11-13 render."""

    @pytest.fixture(scope="class")
    def outcome(self, figure_runs):
        return figure_runs.churn("ringcast")

    def test_full_turnover_recorded(self, outcome):
        assert len(outcome.churn_cycles) == FIGURE_CONFIG.churn_networks
        assert all(c > 0 for c in outcome.churn_cycles)

    def test_population_lifetimes_collected(self, outcome):
        population = sum(outcome.population_lifetimes.values())
        assert population == FIGURE_CONFIG.num_nodes

    def test_lifetimes_bounded_by_warmup(self, outcome):
        max_lifetime = max(outcome.population_lifetimes)
        total_cycles = FIGURE_CONFIG.warmup_cycles + max(outcome.churn_cycles)
        assert max_lifetime <= total_cycles

    def test_missed_lifetimes_only_for_swept_fanouts(self, outcome):
        assert set(outcome.missed_lifetimes) <= set(FIGURE_CONFIG.fanouts)

    def test_misses_exist_at_low_fanout(self, outcome):
        assert sum(outcome.missed_lifetimes[1].values()) > 0

    def test_sweep_covers_fanouts(self, outcome):
        assert outcome.sweep.fanouts() == FIGURE_CONFIG.fanouts


class TestSweepSnapshot:
    def test_explicit_fanouts_subset(self, ringcast_snapshot):
        sweep = sweep_snapshot(
            ringcast_snapshot,
            TINY,
            RngRegistry(3),
            fanouts=(2,),
        )
        assert sweep.fanouts() == (2,)

    def test_collect_load_propagates(self, ringcast_snapshot):
        sweep = sweep_snapshot(
            ringcast_snapshot,
            TINY.with_overrides(num_messages=2),
            RngRegistry(3),
            collect_load=True,
            fanouts=(3,),
        )
        assert sweep.runs[3][0].sent_per_node
