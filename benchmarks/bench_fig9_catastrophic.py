"""Paper Fig. 9: effectiveness after catastrophic failures of 1%, 2%,
5% and 10% of the nodes (gossip stalled — no self-healing).

Migrated onto the parallel sweep engine: each kill fraction is a
(protocol × fanout) grid of independent trials spread across worker
processes (``REPRO_SWEEP_WORKERS``), deterministic at any width.

Expected shape: RINGCAST strictly more effective at every failure
level; the gap narrows as the failure volume grows but RINGCAST stays
roughly an order of magnitude ahead on miss ratio, and far ahead on
complete disseminations at small fanouts.
"""

import pytest

from benchmarks.conftest import (
    once,
    record_table,
    sweep_backend,
    sweep_workers,
)
from repro.experiments.report import render_effectiveness
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_results import effectiveness_figure
from repro.experiments.sweep_spec import flat_spec


@pytest.mark.parametrize("fraction", [0.01, 0.02, 0.05, 0.10])
def test_fig9_catastrophic(benchmark, cfg, fraction):
    grid = flat_spec(
        scenarios=("catastrophic",),
        protocols=("randcast", "ringcast"),
        num_nodes=(cfg.num_nodes,),
        fanouts=cfg.fanouts,
        replicates=cfg.num_networks,
        num_messages=cfg.num_messages,
        kill_fractions=(fraction,),
    )
    result = once(
        benchmark,
        lambda: run_sweep(
            grid,
            base_config=cfg,
            root_seed=cfg.seed,
            workers=sweep_workers(),
            backend=sweep_backend(),
        ),
    )
    data = effectiveness_figure(
        result,
        "catastrophic",
        cfg.num_nodes,
        label=f"fig9@{round(fraction * 100)}%",
    )

    rand_miss = data.miss_percent("randcast")
    ring_miss = data.miss_percent("ringcast")
    # RINGCAST ahead overall, and at the mid-range fanouts in particular.
    assert sum(ring_miss) < sum(rand_miss)
    mid = slice(1, max(2, len(data.fanouts) // 2))
    assert all(
        r <= x + 1e-9 for r, x in zip(ring_miss[mid], rand_miss[mid])
    )
    # Failures do produce misses at the lowest fanout.
    assert ring_miss[0] > 0.0

    record_table(
        f"fig9_kill{round(fraction * 100):02d}_{cfg.scale_name}",
        render_effectiveness(data),
    )
