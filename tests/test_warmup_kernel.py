"""The flat warm-up kernel against the object path, step for step.

``warm_up`` replays stock CYCLON (+ ring VICINITY) populations on flat
state (:mod:`repro.sim.flat_warmup`). These tests are differential, not
golden: two populations are built from the same seed, one is driven
with ``CycleDriver.run_cycle`` and the other with ``warm_up``, and
everything an observer downstream could read must be equal — then both
run more *object* cycles and must be equal again, which is what proves
the export (descriptor sharing between a node's two views included)
left the objects in the state the object path would have.

The hypothesis budget is the active profile's (100 examples by default;
CI's ``warmup-kernel`` job raises it with ``--hypothesis-profile=deep``,
registered in ``conftest.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.experiments import builder
from repro.experiments.builder import (
    Population,
    build_population,
    freeze_overlay,
    make_node_factory,
    warm_up,
)
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.failures.churn import ArtificialChurn
from repro.membership.bootstrap import star_bootstrap
from repro.membership.cyclon import Cyclon
from repro.membership.ring_ids import RingProximity
from repro.sim.cycle import CycleDriver
from repro.sim.network import Network
from repro.sim.node import NodeProfile

KERNEL_KINDS = ("randcast", "ringcast", "hararycast")


def build(kind, nodes=40, seed=9, **spec_kwargs) -> Population:
    return build_sized(kind, nodes, seed, 8, 3, 5, **spec_kwargs)


def build_sized(
    kind, nodes, seed, view_size, shuffle_length, gossip_length, **spec_kwargs
) -> Population:
    """``build_population`` with the node count decoupled from the
    config's floor of 3, so two-node populations are reachable."""
    config = ExperimentConfig(
        num_nodes=max(nodes, 3),
        view_size=view_size,
        shuffle_length=shuffle_length,
        vicinity_gossip_length=gossip_length,
        seed=seed,
    )
    spec = OverlaySpec(kind=kind, **spec_kwargs)
    if nodes >= 3:
        return build_population(config, spec, RngRegistry(seed))
    registry = RngRegistry(seed)
    network = Network(registry.stream("network"))
    factory = make_node_factory(config, spec, registry.stream("domains"))
    star_bootstrap([factory(network) for _ in range(nodes)])
    driver = CycleDriver(network, registry.stream("gossip"))
    return Population(network, driver, factory, registry, spec, config)


def observe(population: Population):
    """Everything downstream code can see of a population's gossip
    state: (a) views in insertion order with ages, (b) which entries are
    one descriptor object, (c) every counter, (d) the gossip stream's
    position, (e) the frozen overlay."""
    network = population.network
    labels = {}  # id(descriptor) -> order of first sight
    views, counters = [], []
    for node in network.all_nodes():
        for name, protocol in node.protocols.items():
            entries = protocol.view.descriptors()
            views.append(
                (node.node_id, name, [(d.node_id, d.age) for d in entries])
            )
            views.append(
                [labels.setdefault(id(d), len(labels)) for d in entries]
            )
            core = protocol.core
            counters.append(
                (core.shuffles_initiated, core.shuffles_received)
                if name == "cyclon"
                else (core.exchanges_initiated, core.exchanges_received)
            )
        counters.append((node.messages_sent, node.messages_received))
    counters.append(
        (
            network.gossip_messages,
            network.gossip_entries_shipped,
            network.failed_contacts,
            network.current_cycle,
        )
    )
    return (
        views,
        counters,
        population.driver.rng.getstate(),
        freeze_overlay(population),
    )


def shared_entry_count(population: Population) -> int:
    total = 0
    for node in population.network.alive_nodes():
        if "vicinity" not in node.protocols:
            continue
        cyclon_view = node.protocols["cyclon"].view
        for descriptor in node.protocols["vicinity"].view.descriptors():
            total += cyclon_view.get(descriptor.node_id) is descriptor
    return total


@contextmanager
def kernel_outcomes():
    """Record what ``run_cycles`` answered each time ``warm_up`` asked:
    ``True`` — the kernel ran; ``False`` — it declined, object path."""
    outcomes = []
    real = builder.run_cycles

    def spy(driver, cycles):
        outcomes.append(real(driver, cycles))
        return outcomes[-1]

    with mock.patch.object(builder, "run_cycles", spy):
        yield outcomes


def object_cycles(population: Population, cycles: int) -> None:
    for _ in range(cycles):
        population.driver.run_cycle()


# ----------------------------------------------------------------------
# kernel == object path
# ----------------------------------------------------------------------


@st.composite
def scenarios(draw):
    view_size = draw(st.integers(2, 12))
    cycles = draw(st.integers(1, 8))
    return {
        "kind": draw(st.sampled_from(KERNEL_KINDS)),
        "nodes": draw(st.integers(2, 80)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "view_size": view_size,
        "shuffle_length": draw(st.integers(1, view_size)),
        "gossip_length": draw(st.integers(1, 12)),
        # Object cycles before anything is killed, so victims are held
        # in views (dead-partner pruning, failed_contacts) and the
        # kernel imports non-trivial state.
        "before": draw(st.integers(0, 4)),
        "kill_fraction": draw(st.sampled_from((0.0, 0.0, 0.1, 0.3, 0.6))),
        "cycles": cycles,
        # warm_up(split); warm_up(cycles - split) must equal warm_up(cycles)
        "split": draw(st.integers(0, cycles)),
        "after": draw(st.integers(0, 3)),
    }


@settings(deadline=None)
@given(scenarios())
def test_kernel_matches_object_path(scenario):
    populations = []
    for _ in range(2):
        population = build_sized(
            scenario["kind"],
            scenario["nodes"],
            scenario["seed"],
            scenario["view_size"],
            scenario["shuffle_length"],
            scenario["gossip_length"],
        )
        object_cycles(population, scenario["before"])
        victims = population.registry.stream("test-victims").sample(
            population.network.alive_ids(),
            int(scenario["kill_fraction"] * scenario["nodes"]),
        )
        for victim in victims:
            population.network.kill_node(victim)
        populations.append(population)
    reference, flat = populations

    object_cycles(reference, scenario["cycles"])
    with kernel_outcomes() as outcomes:
        warm_up(flat, scenario["split"])
        warm_up(flat, scenario["cycles"] - scenario["split"])
    assert outcomes and all(outcomes)  # the kernel ran, never the fallback
    assert observe(flat) == observe(reference)

    object_cycles(reference, scenario["after"])
    object_cycles(flat, scenario["after"])
    assert observe(flat) == observe(reference)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_kernel_matches_object_path_at_paper_view_sizes(kind):
    """The default configuration (views of 20, 100 cycles) once per kind,
    with the traffic counters the bench's traced replay reports."""
    config = ExperimentConfig(num_nodes=60, warmup_cycles=100, seed=44)
    reference = build_population(config, OverlaySpec(kind), RngRegistry(44))
    flat = build_population(config, OverlaySpec(kind), RngRegistry(44))
    reference.driver.run(config.warmup_cycles)
    with kernel_outcomes() as outcomes:
        warm_up(flat)
    assert outcomes == [True]
    assert flat.network.gossip_messages == reference.network.gossip_messages
    assert (
        flat.network.gossip_entries_shipped
        == reference.network.gossip_entries_shipped
    )
    assert observe(flat) == observe(reference)


def test_shared_descriptors_survive_the_round_trip():
    """A VICINITY entry that *is* the CYCLON entry ages twice per cycle;
    the kernel must import, replay and export that sharing."""
    reference, flat = build("ringcast", 60), build("ringcast", 60)
    object_cycles(reference, 30)
    warm_up(flat, 10)  # export, then import again:
    warm_up(flat, 20)
    assert shared_entry_count(reference) > 0
    assert shared_entry_count(flat) == shared_entry_count(reference)
    assert observe(flat) == observe(reference)
    object_cycles(reference, 5)
    object_cycles(flat, 5)
    assert observe(flat) == observe(reference)


def test_surviving_descriptors_keep_their_identity():
    """Export updates the descriptors it imported in place, as aging on
    the object path does; it only builds the ones gossip created."""
    population = build("ringcast", 30)
    object_cycles(population, 10)
    held = {
        id(d): d
        for node in population.network.alive_nodes()
        for protocol in node.protocols.values()
        for d in protocol.view.descriptors()
    }
    ages = {key: d.age for key, d in held.items()}
    warm_up(population, 1)
    survivors = [
        d
        for node in population.network.alive_nodes()
        for protocol in node.protocols.values()
        for d in protocol.view.descriptors()
        if id(d) in held
    ]
    assert survivors
    assert all(d.age > ages[id(d)] for d in survivors)


# ----------------------------------------------------------------------
# anything else falls back to driver.run
# ----------------------------------------------------------------------


def add_churn(population):
    population.driver.churn = ArtificialChurn(0.05, population.node_factory)


def add_hook(population):
    population.driver.add_hook(lambda network, cycle: None)


def subclass_cyclon(population):
    class TracedCyclon(Cyclon):
        pass

    node = population.network.alive_nodes()[3]
    node.protocols["cyclon"].__class__ = TracedCyclon


def leave_shuffle_pending(population):
    node = population.network.alive_nodes()[3]
    node.protocols["cyclon"].core._pending[0] = [1, 2]


def plant_foreign_profile(population):
    node = population.network.alive_nodes()[3]
    descriptor = node.protocols["cyclon"].view.descriptors()[0]
    descriptor.profile = NodeProfile(ring_ids=(12345,))


def nothing(population):
    pass


FALLBACKS = [
    ("ringcast", {}, add_churn),
    ("ringcast", {}, add_hook),
    ("multiring", {"num_rings": 2}, nothing),
    ("domain_ring", {}, nothing),
    ("randcast", {}, subclass_cyclon),
    ("ringcast", {}, leave_shuffle_pending),
    ("ringcast", {}, plant_foreign_profile),
]


@pytest.mark.parametrize(
    "kind, spec_kwargs, disturb",
    FALLBACKS,
    ids=[f"{kind}-{disturb.__name__}" for kind, _, disturb in FALLBACKS],
)
def test_non_stock_population_takes_the_object_path(
    kind, spec_kwargs, disturb
):
    reference = build(kind, **spec_kwargs)
    fallback = build(kind, **spec_kwargs)
    for population in (reference, fallback):
        object_cycles(population, 3)
        disturb(population)
    reference.driver.run(6)
    with kernel_outcomes() as outcomes:
        warm_up(fallback, 6)
    assert outcomes == [False]
    assert observe(fallback) == observe(reference)


def test_patched_selection_takes_the_object_path(monkeypatch):
    """A replaced ``RingProximity.select`` is not stock selection: the
    kernel, which calls ``closest_indices`` directly, must stand aside."""
    calls = []
    stock = RingProximity.select

    def counting(self, reference, candidates, count):
        calls.append(count)
        return stock(self, reference, candidates, count)

    monkeypatch.setattr(RingProximity, "select", counting)
    population = build("ringcast")
    with kernel_outcomes() as outcomes:
        warm_up(population, 2)
    assert outcomes == [False]
    assert calls


# ----------------------------------------------------------------------
# cycles argument
# ----------------------------------------------------------------------


@pytest.mark.parametrize("disturb", [nothing, add_hook])
def test_negative_cycles_rejected_on_both_paths(disturb):
    population = build("ringcast")
    disturb(population)
    before = observe(population)
    with pytest.raises(ConfigurationError):
        warm_up(population, -3)
    assert observe(population) == before


@pytest.mark.parametrize("disturb", [nothing, add_hook])
def test_zero_cycles_is_a_no_op_on_both_paths(disturb):
    population = build("ringcast")
    disturb(population)
    before = observe(population)
    with kernel_outcomes() as outcomes:
        warm_up(population, 0)
    assert outcomes == []  # decided before either path is consulted
    assert observe(population) == before
