"""Event-driven dissemination under a latency model.

The paper argues (§7) that its hop-synchronous model is harmless:
varying message forwarding time "from zero to several times the
gossiping period" had "no effect whatsoever on the macroscopic behavior
of disseminations". This driver reproduces that experiment: the same
forwarding loop runs the same target policies over the same frozen
snapshot, but under a *timed* schedule — each send arrives after a
per-message latency sample, in ``(time, insertion)`` order. The
schedule walks a round's ``(sender, targets)`` entries in holder and
target order, so the latency draws follow the target draws exactly as
the sends were made, and returns the one earliest arrival as
``[(sender, [target])]``. Temporal interleavings change; the set of
reachable nodes, for deterministic policies, cannot. With unit latency
the schedule degenerates to hop counting and the result equals the
hop-synchronous one field for field.

The latency ablation bench (`bench_ablation_latency`) compares this
driver against the hop-synchronous one across latency models.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.targets import check_fanout
from repro.dissemination.executor import (
    DisseminationResult,
    _Sends,
    _forward_rounds,
)
from repro.dissemination.policies import TargetPolicy
from repro.dissemination.snapshot import OverlaySnapshot
from repro.sim.latency import ConstantLatency, LatencyModel

__all__ = ["disseminate_event_driven"]


def disseminate_event_driven(
    snapshot: OverlaySnapshot,
    policy: TargetPolicy,
    fanout: int,
    origin: int,
    rng: random.Random,
    latency: Optional[LatencyModel] = None,
    forward_delay: float = 0.0,
) -> DisseminationResult:
    """Disseminate one message with per-delivery latency.

    Args:
        snapshot: The frozen overlay.
        policy: Target selection strategy.
        fanout: System-wide fanout F.
        origin: Alive origin node.
        rng: Random stream for target selection and latency sampling.
        latency: Per-link delay model (default: constant 1.0, the
            paper's equal-latency assumption).
        forward_delay: Processing delay before a node forwards a message
            it just received for the first time.

    The result's ``delivery_times`` hold each first receipt's virtual
    time; ``hops`` and ``per_hop_new`` count forwarding depth (a node is
    one deeper than the sender of the copy it received first).

    Raises:
        ConfigurationError: For a fanout that is not a positive
            integer, or a negative ``forward_delay``.
        SimulationError: When ``origin`` is not alive, or a send's
            delay (``forward_delay`` + latency sample) is negative or
            NaN.
    """
    check_fanout(fanout, 1)
    if not snapshot.is_alive(origin):
        raise SimulationError(f"origin {origin} is not alive")
    if forward_delay < 0:
        raise ConfigurationError(
            f"forward_delay must be >= 0, got {forward_delay}"
        )
    model = latency if latency is not None else ConstantLatency(1.0)

    in_flight: List[Tuple[float, int, int, int]] = []
    insertion = itertools.count()
    arrival_times: List[float] = []

    def earliest_arrival(sends: List[_Sends]) -> List[_Sends]:
        """The timed schedule: one arrival per round, earliest first.

        Rounds of one keep the stream's draw order — a receiver's
        target draws, then its sends' latency draws, in target order —
        whatever ties the latency model produces.
        """
        now = arrival_times[-1] if arrival_times else 0.0
        for sender, targets in sends:
            for target in targets:
                delay = forward_delay + model.sample(sender, target, rng)
                if not delay >= 0:
                    raise SimulationError(f"negative delay: {delay}")
                heapq.heappush(
                    in_flight, (now + delay, next(insertion), target, sender)
                )
        if not in_flight:
            return []
        time, _, target, sender = heapq.heappop(in_flight)
        arrival_times.append(time)
        return [(sender, [target])]

    result, rounds = _forward_rounds(
        lambda holders: (snapshot, holders),
        earliest_arrival,
        lambda: snapshot.alive_ids,
        policy,
        fanout,
        origin,
        rng,
    )

    delivery_times: Dict[int, float] = {origin: 0.0}
    depth = {origin: 0}
    new_per_depth = [1]
    for time, new in zip(arrival_times, rounds):
        for node_id, sender_id in new:
            delivery_times[node_id] = time
            hop = depth[node_id] = depth[sender_id] + 1
            if hop == len(new_per_depth):
                new_per_depth.append(0)
            new_per_depth[hop] += 1
    return dataclasses.replace(
        result,
        hops=len(new_per_depth) - 1,
        per_hop_new=tuple(new_per_depth),
        delivery_times=delivery_times,
    )
