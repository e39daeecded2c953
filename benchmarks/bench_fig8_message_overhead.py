"""Paper Fig. 8: total messages split into virgin vs redundant, vs
fanout, static network.

Expected shape: for a complete dissemination the total is F × N — N
virgin plus (F−1) × N redundant. The two protocols are practically
identical except at low fanouts, where RANDCAST reaches fewer nodes
(and therefore sends fewer messages).
"""

import pytest

from benchmarks.conftest import once, record_table
from repro.experiments import figures
from repro.experiments.report import render_messages


def test_fig8_message_overhead(benchmark, cfg, runs):
    data = once(benchmark, lambda: figures.figure8(runs))

    n = cfg.num_nodes
    ring_total = data.total("ringcast")
    rand_total = data.total("randcast")
    for index, fanout in enumerate(data.fanouts):
        if fanout >= 2:
            # Complete dissemination: F x N total, N-1 virgin.
            assert ring_total[index] == pytest.approx(fanout * n, rel=0.02)
            assert data.virgin["ringcast"][index] == pytest.approx(
                n - 1, abs=1
            )
            # RANDCAST sends F per notified node: F x N_hit.
            hit = data.virgin["randcast"][index] + 1
            assert rand_total[index] == pytest.approx(
                fanout * hit, rel=0.05
            )
    # Protocols nearly identical at high fanout.
    assert rand_total[-1] == pytest.approx(ring_total[-1], rel=0.02)

    record_table(f"fig8_{cfg.scale_name}", render_messages(data))
