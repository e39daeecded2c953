"""A7 — micro-benchmarks of the protocol hot paths.

Unlike the figure benches (one long experiment per test), these use
pytest-benchmark's normal repeated timing: a single gossip cycle, one
dissemination, one freeze. They catch performance regressions in the
simulation substrate itself.
"""

import random

import pytest

from repro.common.rng import RngRegistry
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import RandCastPolicy, RingCastPolicy
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec

MICRO_CONFIG = ExperimentConfig(
    num_nodes=300, warmup_cycles=50, seed=77
)


def star_ringcast():
    """300 ringcast nodes as bootstrap leaves them: a star, nothing warmed."""
    return build_population(
        MICRO_CONFIG, OverlaySpec("ringcast"), RngRegistry(77)
    )


@pytest.fixture(scope="module")
def warm_ringcast():
    population = star_ringcast()
    warm_up(population)
    return population


@pytest.fixture(scope="module")
def ringcast_snapshot(warm_ringcast):
    return freeze_overlay(warm_ringcast)


def test_micro_gossip_cycle(benchmark, warm_ringcast):
    """One full cycle of CYCLON + VICINITY over 300 nodes."""
    benchmark(warm_ringcast.driver.run_cycle)


def test_micro_warmup_kernel(benchmark):
    """Ten cycles from the bootstrap star through ``warm_up``'s flat
    kernel — import, gossip, export. Views are still filling, so nearly
    every VICINITY merge is a full selection."""

    def fresh():
        return (star_ringcast(), 10), {}

    benchmark.pedantic(warm_up, setup=fresh, rounds=5)


def test_micro_warmup_kernel_converged(benchmark):
    """Thirty cycles on a population already warmed for seventy: the
    views have settled, so nearly every VICINITY merge is recognised as
    changing nothing and only refreshes ages. Read it per cycle against
    the bench above and against ``test_micro_gossip_cycle``, the same
    cycles on the object path."""

    def settled():
        population = star_ringcast()
        warm_up(population, 70)
        return (population, 30), {}

    benchmark.pedantic(warm_up, setup=settled, rounds=5)


def test_micro_freeze_overlay(benchmark, warm_ringcast):
    """Snapshotting the full overlay state."""
    benchmark(lambda: freeze_overlay(warm_ringcast))


def test_micro_ringcast_dissemination(benchmark, ringcast_snapshot):
    """One complete RINGCAST dissemination at F=3 over 300 nodes."""
    rng = random.Random(5)
    result = benchmark(
        lambda: disseminate(
            ringcast_snapshot, RingCastPolicy(), 3, 0, rng
        )
    )
    assert result.complete


def test_micro_randcast_dissemination(benchmark, ringcast_snapshot):
    """One RANDCAST dissemination at F=3 over the same snapshot."""
    rng = random.Random(5)
    result = benchmark(
        lambda: disseminate(
            ringcast_snapshot, RandCastPolicy(), 3, 0, rng
        )
    )
    assert result.notified > 200


def test_micro_target_selection(benchmark, ringcast_snapshot):
    """A single RINGCAST target selection (the per-forward hot path)."""
    rng = random.Random(5)
    policy = RingCastPolicy()
    node = ringcast_snapshot.alive_ids[10]
    targets = benchmark(
        lambda: policy.select_targets(ringcast_snapshot, node, None, 3, rng)
    )
    assert len(targets) == 3
