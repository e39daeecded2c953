"""Paper Fig. 12: distribution of node lifetimes after churn warm-up
(log-log in the paper).

Expected shape: roughly uniform counts for young lifetimes (capped by
churn_rate × N joiners per cycle) with geometric decay toward old ages
— young nodes dominate the population after full turnover.
"""

from benchmarks.conftest import once, record_table
from repro.experiments import figures
from repro.experiments.report import render_lifetimes


def test_fig12_lifetime_distribution(benchmark, cfg, runs):
    data = once(benchmark, lambda: figures.figure12(runs))

    histogram = dict(data.series)
    total = sum(histogram.values())
    # Two protocols' networks, each churn_networks populations.
    assert total == cfg.num_nodes * cfg.churn_networks * 2
    # Heavier mass on young lifetimes than on old ones.
    median_lifetime = max(histogram) / 2
    young = sum(c for l, c in histogram.items() if l <= median_lifetime)
    old = total - young
    assert young > old
    # Per-lifetime count can never exceed joiners-per-cycle x networks.
    per_cycle_cap = max(2, int(cfg.churn_rate * cfg.num_nodes) + 1)
    assert max(histogram.values()) <= per_cycle_cap * cfg.churn_networks * 2

    record_table(f"fig12_{cfg.scale_name}", render_lifetimes(data))
