"""Paper Fig. 6: dissemination effectiveness in a static failure-free
network — miss ratio (a) and complete disseminations (b) vs fanout.

Migrated onto the parallel sweep engine: the (protocol × fanout) grid
expands into independent trials executed across worker processes
(``REPRO_SWEEP_WORKERS``, default: all cores, capped at 8). Each trial
builds its own overlay in its own RNG universe, so the grid
parallelises perfectly and the numbers are identical at any worker
count.

Expected reproduction shape: RINGCAST misses nothing at any fanout
(miss = 0, complete = 100%); RANDCAST's miss ratio decays roughly
exponentially with the fanout and its complete-dissemination share
rises steeply from 0% to 100%.
"""

from benchmarks.conftest import (
    once,
    record_table,
    sweep_workers,
)
from repro.experiments.report import render_effectiveness
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_results import effectiveness_figure
from repro.experiments.sweep_spec import flat_spec


def test_fig6_static_effectiveness(benchmark, cfg):
    grid = flat_spec(
        scenarios=("static",),
        protocols=("randcast", "ringcast"),
        num_nodes=(cfg.num_nodes,),
        fanouts=cfg.fanouts,
        replicates=cfg.num_networks,
        num_messages=cfg.num_messages,
    )
    result = once(
        benchmark,
        lambda: run_sweep(
            grid,
            base_config=cfg,
            root_seed=cfg.seed,
            workers=sweep_workers(),
        ),
    )
    data = effectiveness_figure(
        result, "static", cfg.num_nodes, label="fig6"
    )

    ring_miss = data.miss_percent("ringcast")
    rand_miss = data.miss_percent("randcast")
    ring_complete = data.complete_percent("ringcast")
    rand_complete = data.complete_percent("randcast")

    # RINGCAST: deterministic completeness at every fanout.
    assert all(m == 0.0 for m in ring_miss)
    assert all(c == 100.0 for c in ring_complete)
    # RANDCAST: monotone-ish decay, steep completeness transition.
    assert rand_miss[0] > 50.0
    assert rand_miss[-1] < 1.0
    assert rand_complete[0] == 0.0
    assert rand_complete[-1] == 100.0

    record_table(
        f"fig6_{cfg.scale_name}", render_effectiveness(data)
    )
