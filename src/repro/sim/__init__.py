"""PeerSim-like simulation substrate.

The paper evaluates its protocols on PeerSim's cycle-driven simulator.
This package is a from-scratch Python equivalent with two gossip
drivers:

* a **cycle driver** (:class:`repro.sim.cycle.CycleDriver`) that runs
  synchronous gossip cycles — every alive node initiates each of its
  protocols once per cycle, in freshly-shuffled order — which is exactly
  PeerSim's cycle-based model the paper used for overlay warm-up, and
* an **asynchronous driver**
  (:class:`repro.sim.async_driver.AsyncGossipDriver`) that gives every
  node's every protocol its own phase-shifted, jittered timer, kept on
  one heap, for the sync-vs-async timing ablation.

A :class:`repro.sim.network.Network` holds the node population, tracks
liveness and churn, and accounts every gossip message exchanged.
"""

from repro.sim.async_driver import AsyncGossipDriver
from repro.sim.cycle import CycleDriver
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
    "GossipProtocol",
    "LatencyModel",
    "Network",
    "Node",
    "NodeProfile",
    "UniformLatency",
    "ZeroLatency",
]
