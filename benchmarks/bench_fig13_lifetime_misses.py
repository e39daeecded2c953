"""Paper Fig. 13: lifetime distribution of the nodes disseminations
missed under churn, fanouts {3, 6}.

Expected shape: misses concentrate on newly joined nodes (lifetime
less than the view length); RINGCAST misses *more* of the very youngest
than RANDCAST (joiners have no incoming d-links yet and RINGCAST spends
only F−2 fanout on r-links), but nearly none of the older nodes, where
RANDCAST keeps missing across the whole lifetime range.
"""

from benchmarks.conftest import once, record_table
from repro.experiments import figures
from repro.experiments.report import render_miss_lifetimes


def test_fig13_lifetime_misses(benchmark, cfg, runs):
    data = once(benchmark, lambda: figures.figure13(runs))

    fanout = data.fanouts[0]
    ring = dict(data.series["ringcast"].get(fanout, ()))
    rand = dict(data.series["randcast"].get(fanout, ()))
    young_cut = cfg.view_size + 10

    if ring:
        ring_young = sum(c for l, c in ring.items() if l <= young_cut)
        ring_old = sum(c for l, c in ring.items() if l > young_cut)
        # RINGCAST's misses concentrate on fresh joiners.
        assert ring_young >= ring_old
    if rand:
        # RANDCAST keeps missing old, well-connected nodes too.
        rand_old = sum(c for l, c in rand.items() if l > young_cut)
        assert rand_old >= 0  # presence checked below at tiny scales
        if sum(rand.values()) > 20:
            assert rand_old > 0

    record_table(f"fig13_{cfg.scale_name}", render_miss_lifetimes(data))
