"""Paper Fig. 7: per-hop dissemination progress, static network,
fanouts {2, 3, 5, 10}.

Expected shape: both protocols track each other until ~80–90% coverage;
RANDCAST's tail then flattens while RINGCAST drains to zero in fewer
hops; higher fanout means fewer hops.
"""

from benchmarks.conftest import once, record_table
from repro.experiments import figures
from repro.experiments.report import render_progress


def test_fig7_static_progress(benchmark, cfg, runs):
    data = once(benchmark, lambda: figures.figure7(runs))

    for fanout in data.fanouts:
        ring = data.mean_series["ringcast"][fanout]
        rand = data.mean_series["randcast"][fanout]
        # RINGCAST terminates at 100% coverage.
        assert ring[-1] == 0.0
        # Hop-1 coverage is the same by construction (F messages out).
        assert abs(ring[1] - rand[1]) < 2.0
    # Higher fanout disseminates in fewer hops.
    low, high = data.fanouts[0], data.fanouts[-1]
    assert len(data.mean_series["ringcast"][low]) > len(
        data.mean_series["ringcast"][high]
    )

    record_table(f"fig7_{cfg.scale_name}", render_progress(data))
