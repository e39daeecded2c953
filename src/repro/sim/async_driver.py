"""Asynchronous gossip execution with independent per-node timers.

The paper states that "nodes have independent, non-synchronized
timers" (§6); the cycle driver approximates this with a per-cycle
random permutation, which is PeerSim's (and the paper's) simulation
model. This driver removes the approximation entirely: every node's
every protocol fires from the driver's own timer heap at its own
phase-shifted, optionally jittered period.

Used by the sync-vs-async ablation to show the cycle model is faithful:
overlays converged under either driver are macroscopically
indistinguishable (ring agreement, indegree spread, dissemination
outcomes).
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import List, Tuple

from repro.common.errors import ConfigurationError
from repro.sim.network import Network

__all__ = ["AsyncGossipDriver"]


class AsyncGossipDriver:
    """Drives gossip protocols from a heap of per-(node, protocol) timers.

    Each (node, protocol) pair gets an initial phase drawn uniformly in
    [0, period) and then fires every ``period`` time units, each firing
    jittered by a uniform offset in [−jitter, +jitter]. One virtual
    time unit corresponds to one gossip cycle of the synchronous model,
    so ``run(cycles=100)`` is directly comparable to
    ``CycleDriver.run(100)``.

    Timers are ``(time, seq, node_id, protocol_name)`` tuples: the
    insertion sequence breaks ties between equal times, so the firing
    order, and with it every random draw, is deterministic.

    Nodes created *after* :meth:`start` (churn joiners) are picked up
    lazily: call :meth:`enroll` for them, as the churn adapters do not
    run under this driver — it exists for timing-model ablations, not
    for the full churn scenario.
    """

    def __init__(
        self,
        network: Network,
        rng: random.Random,
        period: float = 1.0,
        jitter: float = 0.1,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        if not 0 <= jitter < period:
            raise ConfigurationError(
                f"jitter must be in [0, period), got {jitter}"
            )
        self.network = network
        self.rng = rng
        self.period = period
        self.jitter = jitter
        self.now = 0.0
        self.exchanges_fired = 0
        self._timers: List[Tuple[float, int, int, str]] = []
        self._seq = itertools.count()
        self._started = False

    def start(self) -> None:
        """Schedule the first firing of every node's protocols."""
        if self._started:
            raise ConfigurationError("driver already started")
        self._started = True
        for node in self.network.alive_nodes():
            self.enroll(node)

    def enroll(self, node) -> None:
        """Schedule a node's protocols from the current time onward."""
        for name in node.protocols:
            phase = self.rng.uniform(0, self.period)
            self._arm(self.now + phase, node.node_id, name)

    def _arm(self, time: float, node_id: int, protocol_name: str) -> None:
        heapq.heappush(
            self._timers, (time, next(self._seq), node_id, protocol_name)
        )

    def run(self, cycles: float) -> int:
        """Advance virtual time by ``cycles`` periods.

        Returns the number of protocol firings executed. ``cycles`` must
        be finite and >= 0: every firing re-arms itself, so a horizon
        that is never reached would run forever.
        """
        if not (math.isfinite(cycles) and cycles >= 0):
            raise ConfigurationError(
                f"cycles must be finite and >= 0, got {cycles}"
            )
        if not self._started:
            self.start()
        before = self.exchanges_fired
        horizon = self.now + cycles * self.period
        while self._timers and self._timers[0][0] <= horizon:
            self.now, _seq, node_id, name = heapq.heappop(self._timers)
            if not self.network.is_alive(node_id):
                continue
            node = self.network.node(node_id)
            protocol = node.protocols.get(name)
            if protocol is None:
                continue
            protocol.execute_cycle(node, self.network, self.rng)
            self.exchanges_fired += 1
            delay = self.period
            if self.jitter:
                delay += self.rng.uniform(-self.jitter, self.jitter)
            self._arm(self.now + max(delay, 1e-9), node_id, name)
            # Track a coarse cycle counter so ages and lifetimes stay
            # meaningful for code shared with the synchronous driver.
            self.network.current_cycle = int(self.now)
        self.now = horizon
        return self.exchanges_fired - before
