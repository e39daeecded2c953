"""The flat warm-up kernel against the object path, step for step.

``warm_up`` replays stock CYCLON (+ ring VICINITY) populations on flat
state (:mod:`repro.sim.flat_warmup`). These tests are differential, not
golden: two populations are built from the same seed, one is driven
with ``CycleDriver.run_cycle`` and the other with ``warm_up``, and
everything an observer downstream could read must be equal — then both
run more *object* cycles and must be equal again, which is what proves
the export (descriptor sharing between a node's two views included)
left the objects in the state the object path would have.

The kernel ranks a VICINITY view only when a peer outside it is
*strictly* closer than its farthest entry, which is exact only under the
stable tie rule, so the fuzz also varies how ring IDs are laid out
(``LAYOUTS``): random, evenly spaced (every peer has an equidistant twin
on the other side of the ring) and a coarse lattice (an outsider exactly
as far as the farthest entry is the common case). It has the power to
catch a wrong rule: a kernel mutated to skip the ranking on
``< 0.9 × farthest`` fails ``test_kernel_matches_object_path`` within
seconds.

The hypothesis budget is the active profile's (100 examples by default;
CI's ``warmup-kernel`` job raises it with ``--hypothesis-profile=deep``,
registered in ``conftest.py``).
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
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
from repro.sim.node import RING_ID_SPACE, NodeProfile

KERNEL_KINDS = ("randcast", "ringcast", "hararycast")
LAYOUTS = ("random", "even", "lattice")
LATTICE_POINTS = 12


def ring_layout(layout, nodes, seed):
    """A patch of ``Network._fresh_ring_id`` that deals ``nodes`` ring
    IDs laid out as ``layout`` says, in an order fixed by ``seed``."""
    if layout == "random":
        return nullcontext()  # Network's own uniform 32-bit IDs
    rng = random.Random(seed)
    if layout == "even":
        ids = [index * (RING_ID_SPACE // nodes) for index in range(nodes)]
        rng.shuffle(ids)
    else:  # few distinct IDs, hence few distinct distances; twins abound
        step = RING_ID_SPACE // LATTICE_POINTS
        ids = [step * rng.randrange(LATTICE_POINTS) for _ in range(nodes)]
    deal = iter(ids)
    return mock.patch.object(
        Network, "_fresh_ring_id", lambda network: next(deal)
    )


def build(
    kind, nodes=40, seed=9, layout="random", **spec_kwargs
) -> Population:
    return build_sized(kind, nodes, seed, 8, 3, 5, layout, **spec_kwargs)


def build_sized(
    kind,
    nodes,
    seed,
    view_size,
    shuffle_length,
    gossip_length,
    layout="random",
    **spec_kwargs,
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
    registry = RngRegistry(seed)
    with ring_layout(layout, nodes, seed):
        if nodes >= 3:
            return build_population(config, spec, registry)
        network = Network(registry.stream("network"))
        factory = make_node_factory(config, spec, registry.stream("domains"))
        star_bootstrap([factory(network) for _ in range(nodes)])
    driver = CycleDriver(network, registry.stream("gossip"))
    return Population(network, driver, factory, registry, spec, config)


def kill_fraction(population: Population, fraction: float) -> None:
    alive = population.network.alive_ids()
    victims = population.registry.stream("test-victims").sample(
        alive, int(fraction * len(alive))
    )
    for victim in victims:
        population.network.kill_node(victim)


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
    # Up to steady state, where nearly every merge leaves the view as it
    # stands; the first few cycles from a star are all full selections.
    cycles = draw(st.integers(1, 25))
    return {
        "kind": draw(st.sampled_from(KERNEL_KINDS)),
        "layout": draw(st.sampled_from(LAYOUTS)),
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
            scenario["layout"],
        )
        object_cycles(population, scenario["before"])
        kill_fraction(population, scenario["kill_fraction"])
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


@pytest.mark.parametrize("layout", LAYOUTS)
def test_views_that_never_fill(layout):
    """Fewer peers than view slots: every VICINITY view keeps room, so
    any peer outside it must be let in, however far away it is."""
    reference, flat = (
        build_sized("ringcast", 7, 21, 8, 3, 5, layout) for _ in range(2)
    )
    object_cycles(reference, 30)
    with kernel_outcomes() as outcomes:
        warm_up(flat, 30)
    assert outcomes == [True]
    assert observe(flat) == observe(reference)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_converged_views_shrink_when_a_third_of_the_peers_die(layout):
    """Dead entries leave a view whose farthest distance the kernel
    remembers; the room they leave must reopen the selection."""
    reference, flat = (build("ringcast", 60, layout=layout) for _ in range(2))
    object_cycles(reference, 30)
    warm_up(flat, 30)
    for population in (reference, flat):
        kill_fraction(population, 1 / 3)
    object_cycles(reference, 30)
    with kernel_outcomes() as outcomes:
        warm_up(flat, 30)
    assert outcomes == [True]
    assert flat.network.failed_contacts > 0
    assert observe(flat) == observe(reference)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_split_warm_up_equals_one_warm_up_at_paper_length(kind):
    """What the kernel remembers about a view dies with the call: 37 +
    63 cycles leave exactly what 100 do."""
    config = ExperimentConfig(num_nodes=60, warmup_cycles=100, seed=45)
    whole, split = (
        build_population(config, OverlaySpec(kind), RngRegistry(45))
        for _ in range(2)
    )
    warm_up(whole, 100)
    warm_up(split, 37)
    warm_up(split, 63)
    assert observe(split) == observe(whole)


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


def widen_id_space(population):
    """Distances in a 2^60 space are not exact in the kernel's floats."""
    for node in population.network.alive_nodes():
        node.protocols["vicinity"].core.proximity.space = 1 << 60


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
    ("ringcast", {}, widen_id_space),
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
