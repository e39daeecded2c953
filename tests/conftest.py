"""Shared fixtures.

Warm overlay snapshots are expensive (gossip warm-up), so the commonly
used ones are built once per test session and shared read-only — every
consumer treats snapshots as immutable, which
:class:`~repro.dissemination.snapshot.OverlaySnapshot` enforces anyway.
The same goes for the scenario runs behind the paper's figures: one
:class:`~repro.experiments.scenarios.ScenarioRuns` at
:data:`FIGURE_CONFIG` serves every figure and regeneration test.
"""

from __future__ import annotations

import random
import shutil
from collections import Counter

import pytest
from hypothesis import settings

from repro.common.rng import RngRegistry
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.experiments.scenarios import ScenarioRuns

TINY_NODES = 150
TINY_WARMUP = 60

# The figure tests' configuration: small enough for the suite, large
# enough for every figure to show the paper's shape.
FIGURE_CONFIG = ExperimentConfig(
    num_nodes=150,
    warmup_cycles=60,
    num_messages=10,
    num_networks=1,
    fanouts=(1, 2, 3, 4, 5, 6, 8),
    seed=23,
    churn_rate=0.01,
    churn_networks=1,
    churn_max_cycles=900,
)

# Every figure renders at this one, in well under a second: for tests
# of how runs are shared and written, not of what they show.
QUICK_FIGURE_CONFIG = ExperimentConfig(
    num_nodes=30,
    warmup_cycles=5,
    num_messages=1,
    num_networks=1,
    fanouts=(2, 3),
    seed=3,
    churn_rate=0.1,
    churn_networks=1,
    churn_max_cycles=40,
)

# ``--hypothesis-profile=deep``: a larger example budget for property
# tests that take theirs from the active profile (CI's warmup-kernel job).
settings.register_profile("deep", max_examples=1000, deadline=None)


def build_snapshot(
    kind: str,
    num_nodes: int = TINY_NODES,
    seed: int = 11,
    warmup: int = TINY_WARMUP,
    **spec_kwargs,
):
    """Build, warm and freeze a small overlay (shared helper)."""
    config = ExperimentConfig(
        num_nodes=num_nodes,
        warmup_cycles=warmup,
        seed=seed,
    )
    spec = OverlaySpec(kind=kind, **spec_kwargs)
    population = build_population(config, spec, RngRegistry(seed))
    warm_up(population)
    return freeze_overlay(population)


def build_warm_population(
    kind: str,
    num_nodes: int = TINY_NODES,
    seed: int = 11,
    warmup: int = TINY_WARMUP,
    **spec_kwargs,
):
    """Build and warm a population without freezing (shared helper)."""
    config = ExperimentConfig(
        num_nodes=num_nodes,
        warmup_cycles=warmup,
        seed=seed,
    )
    spec = OverlaySpec(kind=kind, **spec_kwargs)
    population = build_population(config, spec, RngRegistry(seed))
    warm_up(population)
    return population


def run_split_and_merge(whole, parts, run, root):
    """Spread a sweep the way several machines would, then merge it.

    Runs each grid in ``parts`` into its own trial cache under ``root``,
    copies those caches into ``root / "merged"``, and runs ``whole``
    over the merged cache. ``run(grid, cache_dir, progress)`` runs one
    sweep. Asserts that the parts' trials partition the whole's and
    that the merged run serves every trial from the cache; returns its
    result.
    """
    assert sum(
        (Counter(part.expand()) for part in parts), Counter()
    ) == Counter(whole.expand())
    merged = root / "merged"
    for index, part in enumerate(parts):
        cache = root / f"part{index}"
        run(part, cache, None)
        shutil.copytree(cache, merged, dirs_exist_ok=True)
    cached = []
    result = run(
        whole, merged, lambda _key, _seconds, was_cached: cached.append(was_cached)
    )
    assert len(cached) == len(whole.expand()) and all(cached)
    return result


@pytest.fixture
def rng() -> random.Random:
    """A deterministic per-test random stream."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def ringcast_snapshot():
    """A converged 150-node RINGCAST overlay (session-shared)."""
    return build_snapshot("ringcast")


@pytest.fixture(scope="session")
def randcast_snapshot():
    """A converged 150-node RANDCAST overlay (session-shared)."""
    return build_snapshot("randcast")


@pytest.fixture(scope="session")
def multiring_snapshot():
    """A converged 150-node two-ring overlay (session-shared)."""
    return build_snapshot("multiring", num_rings=2)


@pytest.fixture(scope="session")
def figure_runs():
    """The scenario runs at :data:`FIGURE_CONFIG` (session-shared)."""
    return ScenarioRuns(FIGURE_CONFIG)
