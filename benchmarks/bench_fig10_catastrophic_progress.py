"""Paper Fig. 10: per-hop dissemination progress after a catastrophic
failure of 5% of the nodes, fanouts {2, 3, 5, 10}.

Expected shape: same anatomy as Fig. 7 but with a non-zero floor (the
missed survivors); RINGCAST's floor sits below RANDCAST's, and the
fanout-to-latency relation of the static case is preserved.
"""

from benchmarks.conftest import once, record_table
from repro.experiments import figures
from repro.experiments.report import render_progress


def test_fig10_catastrophic_progress(benchmark, cfg, runs):
    data = once(benchmark, lambda: figures.figure10(runs, kill_fraction=0.05))

    low = data.fanouts[0]
    high = data.fanouts[-1]
    ring_low = data.mean_series["ringcast"][low]
    rand_low = data.mean_series["randcast"][low]
    # RINGCAST's final floor no higher than RANDCAST's.
    assert ring_low[-1] <= rand_low[-1] + 1e-9
    # Higher fanout still means faster dissemination.
    assert len(data.mean_series["ringcast"][low]) >= len(
        data.mean_series["ringcast"][high]
    )

    record_table(f"fig10_kill05_{cfg.scale_name}", render_progress(data))
