"""PeerSim-like simulation substrate.

The paper evaluates its protocols on PeerSim's cycle-driven simulator.
This package is a from-scratch Python equivalent with two operating
modes:

* an **event-driven core** (:class:`repro.sim.engine.EventEngine`) that
  orders arbitrary timestamped events through a binary heap, used by the
  asynchronous gossip driver, and
* a **cycle driver** (:class:`repro.sim.cycle.CycleDriver`) that runs
  synchronous gossip cycles — every alive node initiates each of its
  protocols once per cycle, in freshly-shuffled order — which is exactly
  PeerSim's cycle-based model the paper used for overlay warm-up.

A :class:`repro.sim.network.Network` holds the node population, tracks
liveness and churn, and accounts every gossip message exchanged.
"""

from repro.sim.async_driver import AsyncGossipDriver
from repro.sim.clock import SimClock
from repro.sim.cycle import CycleDriver
from repro.sim.engine import EventEngine
from repro.sim.events import Event, EventQueue
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    UniformLatency,
    ZeroLatency,
)
from repro.sim.network import Network
from repro.sim.node import Node, NodeProfile
from repro.sim.protocol import GossipProtocol

__all__ = [
    "AsyncGossipDriver",
    "ConstantLatency",
    "CycleDriver",
    "Event",
    "EventEngine",
    "EventQueue",
    "GossipProtocol",
    "LatencyModel",
    "Network",
    "Node",
    "NodeProfile",
    "SimClock",
    "UniformLatency",
    "ZeroLatency",
]
