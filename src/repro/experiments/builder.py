"""Population construction: nodes, protocol stacks, warm-up, freeze.

Mirrors the paper's setup (§7): every node runs CYCLON (view 20) and —
for the hybrid overlays — VICINITY (view 20); nodes start from a star
around a single contact; VICINITY views start empty; the network
self-organises for 100 cycles before the overlay is frozen into an
:class:`~repro.dissemination.snapshot.OverlaySnapshot`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.config import ExperimentConfig, OverlaySpec
from repro.extensions.hararycast import harary_dlink_picker
from repro.membership.bootstrap import star_bootstrap
from repro.membership.cyclon import Cyclon
from repro.membership.ring_ids import OrderedRingProximity, RingProximity
from repro.membership.vicinity import Vicinity
from repro.sim.cycle import CycleDriver
from repro.sim.flat_warmup import run_cycles
from repro.sim.network import Network
from repro.sim.node import Node

__all__ = [
    "Population",
    "build_population",
    "freeze_overlay",
    "make_node_factory",
    "warm_up",
]

NodeFactory = Callable[[Network], Node]


def _synthetic_domain(index: int, num_domains: int) -> str:
    """A reversed-DNS domain key, e.g. ``"com.example.d007"``.

    The paper's §8 construction stores IDs with the country/top-level
    part first so lexicographic order groups nodes by domain.
    """
    return f"com.example.d{index % num_domains:03d}"


def make_node_factory(
    config: ExperimentConfig,
    spec: OverlaySpec,
    domain_rng: Optional[random.Random] = None,
) -> NodeFactory:
    """A factory creating one node with its full protocol stack attached.

    The same factory serves initial population and churn joiners, so
    replacements run exactly the protocols the original nodes did.
    """

    def factory(network: Network) -> Node:
        domain = None
        if spec.kind == "domain_ring":
            rng = domain_rng
            index = (
                rng.randrange(spec.num_domains)
                if rng is not None
                else network.total_created
            )
            domain = _synthetic_domain(index, spec.num_domains)
        node = network.create_node(
            num_rings=spec.effective_rings, domain=domain
        )
        cyclon = Cyclon(
            node,
            view_size=config.view_size,
            shuffle_length=config.shuffle_length,
        )
        node.attach("cyclon", cyclon)
        if not spec.uses_vicinity:
            return node
        if spec.kind == "multiring":
            for ring in range(spec.num_rings):
                vicinity = Vicinity(
                    node,
                    proximity=RingProximity(ring_index=ring),
                    view_size=config.view_size,
                    gossip_length=config.vicinity_gossip_length,
                    cyclon=cyclon,
                    name=f"vicinity{ring}",
                )
                node.attach(vicinity.name, vicinity)
        elif spec.kind == "domain_ring":
            vicinity = Vicinity(
                node,
                proximity=OrderedRingProximity(),
                view_size=config.view_size,
                gossip_length=config.vicinity_gossip_length,
                cyclon=cyclon,
            )
            node.attach("vicinity", vicinity)
        else:
            vicinity = Vicinity(
                node,
                proximity=RingProximity(ring_index=0),
                view_size=config.view_size,
                gossip_length=config.vicinity_gossip_length,
                cyclon=cyclon,
            )
            node.attach("vicinity", vicinity)
        return node

    return factory


@dataclass
class Population:
    """A built population ready for warm-up."""

    network: Network
    driver: CycleDriver
    node_factory: NodeFactory
    registry: RngRegistry
    spec: OverlaySpec
    config: ExperimentConfig


def build_population(
    config: ExperimentConfig,
    spec: OverlaySpec,
    registry: RngRegistry,
    churn=None,
) -> Population:
    """Create the node population, star-bootstrapped, ready to gossip."""
    network = Network(registry.stream("network"))
    factory = make_node_factory(
        config, spec, domain_rng=registry.stream("domains")
    )
    nodes: List[Node] = [factory(network) for _ in range(config.num_nodes)]
    star_bootstrap(nodes)
    driver = CycleDriver(network, registry.stream("gossip"), churn=churn)
    return Population(
        network=network,
        driver=driver,
        node_factory=factory,
        registry=registry,
        spec=spec,
        config=config,
    )


def warm_up(population: Population, cycles: Optional[int] = None) -> None:
    """Let the overlay self-organise for ``cycles`` gossip cycles.

    A churn-free, hook-free population of stock CYCLON (+ ring
    VICINITY) nodes is replayed on flat state
    (:mod:`repro.sim.flat_warmup`, bit-identical and faster); anything
    else runs ``driver.run``. ``0`` cycles is a no-op.
    """
    if cycles is None:
        cycles = population.config.warmup_cycles
    if cycles < 0:
        raise ConfigurationError(f"cycles must be >= 0, got {cycles}")
    if cycles == 0:
        return
    if not run_cycles(population.driver, cycles):
        population.driver.run(cycles)


def freeze_overlay(population: Population) -> OverlaySnapshot:
    """Stall gossip and capture the overlay (the paper's methodology)."""
    spec = population.spec
    network = population.network
    if spec.kind == "randcast":
        return OverlaySnapshot.from_network(
            network, kind="randcast", vicinity_name=None
        )
    if spec.kind == "multiring":

        def multiring_picker(node: Node):
            links: List[int] = []
            for ring in range(spec.num_rings):
                vicinity: Vicinity = node.protocol(f"vicinity{ring}")  # type: ignore[assignment]
                for link in vicinity.ring_neighbors():
                    if link is not None and link not in links:
                        links.append(link)
            return tuple(links)

        return OverlaySnapshot.from_network(
            network, kind="multiring", dlink_picker=multiring_picker
        )
    if spec.kind == "hararycast":
        picker = harary_dlink_picker(spec.harary_connectivity // 2)
        return OverlaySnapshot.from_network(
            network, kind="hararycast", dlink_picker=picker
        )
    return OverlaySnapshot.from_network(network, kind=spec.kind)
