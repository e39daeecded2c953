"""Paper Fig. 11: effectiveness under continuous churn (0.2%/cycle at
paper scale; rate scaled per preset), after full population turnover.

Expected shape: RINGCAST's miss ratio lower than RANDCAST's at low
fanouts (2–5), comparable or slightly worse at 6+; (almost) no complete
disseminations for either protocol except at maximal fanouts.
"""

from benchmarks.conftest import once, record_table
from repro.experiments import figures
from repro.experiments.report import render_effectiveness


def test_fig11_churn(benchmark, cfg, runs):
    data = once(benchmark, lambda: figures.figure11(runs))

    rand_miss = data.miss_percent("randcast")
    ring_miss = data.miss_percent("ringcast")
    # Low-fanout advantage for RINGCAST (fanouts 2-4 in the grid).
    low = slice(1, 4)
    assert sum(ring_miss[low]) < sum(rand_miss[low])
    # Churn leaves residual misses for both protocols at low fanout.
    assert rand_miss[1] > 0.0
    assert ring_miss[1] > 0.0
    # No complete disseminations at the low end (fresh joiners missed).
    assert data.complete_percent("randcast")[0] == 0.0
    assert data.complete_percent("ringcast")[0] == 0.0

    record_table(f"fig11_{cfg.scale_name}", render_effectiveness(data))
