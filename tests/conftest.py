"""Shared fixtures.

Warm overlay snapshots are expensive (gossip warm-up), so the commonly
used ones are built once per test session and shared read-only — every
consumer treats snapshots as immutable, which
:class:`~repro.dissemination.snapshot.OverlaySnapshot` enforces anyway.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.common.rng import RngRegistry
from repro.experiments.builder import (
    build_population,
    freeze_overlay,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec

TINY_NODES = 150
TINY_WARMUP = 60

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
