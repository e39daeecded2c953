"""Tests for the figure generators: shapes the paper's figures must show.

These are the quantitative heart of the reproduction: each test pins
the qualitative claim of the corresponding paper figure at tiny scale.
"""

import pytest

from repro.experiments import figures as fig
from repro.experiments import scenarios
from repro.experiments.scenarios import ScenarioRuns
from tests.conftest import FIGURE_CONFIG as CONFIG
from tests.conftest import QUICK_FIGURE_CONFIG as QUICK


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``scenarios`` functions, as
    ``(name, protocol)`` pairs."""
    calls = []
    for name in names:
        real = getattr(scenarios, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            # The overlay spec or the snapshot names the protocol.
            kind = next(arg.kind for arg in args if hasattr(arg, "kind"))
            calls.append((_name, kind))
            return _real(*args, **kwargs)

        monkeypatch.setattr(scenarios, name, counted)
    return calls


def count_builds(monkeypatch):
    """Count the overlay warm-ups: static and churned builds."""
    return count_calls(
        monkeypatch, "build_static_overlay", "build_churned_overlay"
    )


def expected_builds(config):
    return sorted(
        [("build_static_overlay", kind) for kind in scenarios.PROTOCOLS]
        * config.num_networks
        + [("build_churned_overlay", kind) for kind in scenarios.PROTOCOLS]
        * config.churn_networks
    )


@pytest.fixture(scope="module")
def fig6(figure_runs):
    return fig.figure6(figure_runs)


@pytest.fixture(scope="module")
def fig9(figure_runs):
    return fig.figure9(figure_runs, kill_fractions=(0.05,))


@pytest.fixture(scope="module")
def fig11(figure_runs):
    return fig.figure11(figure_runs)


class TestFigure6:
    def test_ringcast_zero_miss_everywhere(self, fig6):
        assert all(m == 0.0 for m in fig6.miss_percent("ringcast"))

    def test_ringcast_all_complete(self, fig6):
        assert all(c == 100.0 for c in fig6.complete_percent("ringcast"))

    def test_randcast_miss_decays_with_fanout(self, fig6):
        misses = fig6.miss_percent("randcast")
        assert misses[0] > 10 * max(misses[-1], 0.001)

    def test_randcast_complete_transitions_upward(self, fig6):
        completes = fig6.complete_percent("randcast")
        assert completes[0] == 0.0
        assert completes[-1] > 50.0


class TestFigure7:
    def test_series_reach_zero_for_ringcast(self, figure_runs):
        data = fig.figure7(figure_runs)
        for fanout in data.fanouts:
            series = data.mean_series["ringcast"][fanout]
            assert series[-1] == 0.0

    def test_higher_fanout_fewer_hops(self, figure_runs):
        data = fig.figure7(figure_runs)
        lengths = {
            fanout: len(data.mean_series["ringcast"][fanout])
            for fanout in data.fanouts
        }
        assert lengths[2] > lengths[5]

    def test_protocols_track_until_saturation(self, figure_runs):
        data = fig.figure7(figure_runs)
        rand = data.mean_series["randcast"][3]
        ring = data.mean_series["ringcast"][3]
        # Hop 1 reach is identical by construction (both send F msgs).
        assert rand[1] == pytest.approx(ring[1], abs=1.0)

    def test_uses_available_fanouts_only(self, figure_runs):
        data = fig.figure7(figure_runs)
        assert set(data.fanouts) <= set(CONFIG.fanouts)
        assert 10 not in data.fanouts


class TestFigure8:
    def test_total_messages_scale_with_fanout(self, figure_runs):
        data = fig.figure8(figure_runs)
        totals = data.total("ringcast")
        n = CONFIG.num_nodes
        for fanout, total in zip(data.fanouts, totals):
            if fanout >= 2:
                assert total == pytest.approx(fanout * n, rel=0.02)

    def test_virgin_messages_cap_at_population(self, figure_runs):
        data = fig.figure8(figure_runs)
        for protocol in ("randcast", "ringcast"):
            assert all(
                v <= CONFIG.num_nodes - 1 + 1e-9
                for v in data.virgin[protocol]
            )

    def test_ringcast_virgin_equals_n_minus_one(self, figure_runs):
        data = fig.figure8(figure_runs)
        assert all(
            v == pytest.approx(CONFIG.num_nodes - 1)
            for v in data.virgin["ringcast"]
        )

    def test_redundancy_grows_with_fanout(self, figure_runs):
        data = fig.figure8(figure_runs)
        redundant = data.redundant["ringcast"]
        assert redundant[-1] > redundant[1]

    def test_no_dead_messages_in_static(self, figure_runs):
        data = fig.figure8(figure_runs)
        assert all(d == 0 for d in data.to_dead["ringcast"])
        assert all(d == 0 for d in data.to_dead["randcast"])


class TestFigure9:
    def test_ringcast_beats_randcast_at_every_fanout(self, fig9):
        data = fig9[0.05]
        rand = data.miss_percent("randcast")
        ring = data.miss_percent("ringcast")
        # Mid-range fanouts show the clearest gap; require dominance
        # there and no catastrophic inversion anywhere.
        assert all(r <= x + 1e-9 for r, x in zip(ring[1:5], rand[1:5]))
        assert sum(ring) < sum(rand)

    def test_misses_exist_after_failure(self, fig9):
        data = fig9[0.05]
        assert data.miss_percent("ringcast")[0] > 0.0

    def test_labels(self, fig9):
        assert fig9[0.05].label == "fig9@5%"

    def test_labels_round_to_the_nearest_percent(self):
        # 0.29 * 100 is 28.999…: truncating would print 28% and give
        # 0.56 and 0.57 one table name.
        figures = fig.figure9(
            ScenarioRuns(QUICK), kill_fractions=(0.29, 0.56, 0.57)
        )
        assert [data.label for data in figures.values()] == [
            "fig9@29%",
            "fig9@56%",
            "fig9@57%",
        ]


class TestFigure10:
    def test_progress_floor_nonzero_at_low_fanout(self, figure_runs):
        data = fig.figure10(figure_runs, kill_fraction=0.05)
        rand_final = data.mean_series["randcast"][2][-1]
        ring_final = data.mean_series["ringcast"][2][-1]
        assert ring_final <= rand_final

    def test_reuses_catastrophic_cache(self, monkeypatch):
        # Figs. 9 and 10 read the same catastrophic runs: figure10
        # computes nothing that figure9 already did, and every kill
        # fraction is a view of one frozen overlay per network.
        builds = count_builds(monkeypatch)
        sweeps = count_calls(monkeypatch, "sweep_snapshot")
        runs = ScenarioRuns(QUICK)
        fig.figure9(runs)
        fig.figure10(runs, kill_fraction=0.05)
        assert sorted(builds) == sorted(
            ("build_static_overlay", kind) for kind in scenarios.PROTOCOLS
        )
        assert len(sweeps) == len(scenarios.PROTOCOLS) * len(
            scenarios.PAPER_KILL_FRACTIONS
        )


class TestScenarioRuns:
    def test_each_run_computed_once(self, monkeypatch):
        config = QUICK.with_overrides(num_networks=2, churn_networks=2)
        builds = count_builds(monkeypatch)
        runs = ScenarioRuns(config)
        for render in fig.FIGURES.values():
            render(runs)
        for render in fig.FIGURES.values():
            render(runs)
        assert sorted(builds) == expected_builds(config)
        # Everything is computed already: prefetching adds nothing.
        runs.prefetch(workers=2)
        assert sorted(builds) == expected_builds(config)

    def test_prefetch_returns_the_overlays(self, monkeypatch):
        # The pool jobs hand their frozen overlays back, so a kill
        # fraction no figure reads only disseminates afterwards.
        runs = ScenarioRuns(QUICK)
        runs.prefetch(workers=2)
        builds = count_builds(monkeypatch)
        custom = runs.catastrophic("ringcast", 0.3)
        assert builds == []
        assert custom.runs == ScenarioRuns(QUICK).catastrophic(
            "ringcast", 0.3
        ).runs

    def test_prefetch_rejects_zero_workers(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="workers"):
            ScenarioRuns(QUICK).prefetch(workers=0)


class TestFigure11:
    def test_ringcast_ahead_at_low_fanout(self, fig11):
        rand = fig11.miss_percent("randcast")
        ring = fig11.miss_percent("ringcast")
        low = slice(1, 3)  # fanouts 2..3
        assert sum(ring[low]) < sum(rand[low])

    def test_both_protocols_miss_under_churn(self, fig11):
        assert min(fig11.miss_percent("randcast")) > 0.0
        assert min(fig11.miss_percent("ringcast")) > 0.0


class TestFigure12:
    def test_counts_sum_to_population_times_networks(self, figure_runs):
        data = fig.figure12(figure_runs)
        expected = CONFIG.num_nodes * CONFIG.churn_networks * 2
        assert sum(count for _lifetime, count in data.series) == expected

    def test_young_nodes_dominate(self, figure_runs):
        data = fig.figure12(figure_runs)
        histogram = dict(data.series)
        young = sum(c for l, c in histogram.items() if l <= 100)
        old = sum(c for l, c in histogram.items() if l > 100)
        assert young > old


class TestFigure13:
    def test_ringcast_misses_concentrate_on_young(self, figure_runs):
        data = fig.figure13(figure_runs, fanouts=(3,))
        ring = dict(data.series["ringcast"][3])
        if not ring:
            pytest.skip("no ringcast misses at this scale/seed")
        young = sum(c for l, c in ring.items() if l <= 30)
        old = sum(c for l, c in ring.items() if l > 30)
        assert young >= old

    def test_randcast_misses_spread_over_lifetimes(self, figure_runs):
        data = fig.figure13(figure_runs, fanouts=(3,))
        rand = dict(data.series["randcast"][3])
        assert any(l > 30 for l in rand)

    def test_only_available_fanouts(self, figure_runs):
        data = fig.figure13(figure_runs, fanouts=(3, 99))
        assert data.fanouts == (3,)
