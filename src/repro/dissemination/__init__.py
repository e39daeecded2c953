"""Dissemination protocols (paper §3–§5).

The generic push algorithm (paper Fig. 1a) — forward a message on first
receipt, never back to its sender, ignore duplicates — is implemented
once, in :mod:`repro.dissemination.executor`; protocols differ only in
*gossip target selection*:

* :class:`FloodingPolicy` — all outgoing links (deterministic
  dissemination, Fig. 1b), run over the static overlays of
  :mod:`repro.graphs`;
* :class:`RandCastPolicy` — F random peers from the node's
  peer-sampling view (RANDCAST, Fig. 2, the probabilistic baseline);
* :class:`RingCastPolicy` — both ring neighbors plus F−2 random peers
  (RINGCAST, Fig. 5, the paper's hybrid contribution). The same policy
  drives the multi-ring and Harary extensions, whose snapshots simply
  carry more d-links.

One forwarding loop runs any policy under three schedules, each an entry
point returning the same :class:`DisseminationResult`:
:func:`~repro.dissemination.executor.disseminate` counts discrete hops
over a frozen :class:`~repro.dissemination.snapshot.OverlaySnapshot`
(the paper's model);
:func:`~repro.dissemination.event_executor.disseminate_event_driven`
delivers in virtual-time order under a latency model, of which hop
counting is the unit-latency case; and
:func:`~repro.dissemination.live.disseminate_live` counts hops while
the overlay keeps gossiping in between (the last two verify the paper's
§7.1 claim that forwarding time does not matter). The array core's
``random.Random`` mode (:mod:`repro.arraysim`) is the same loop reading
the array overlay's index rows.
"""

from repro.dissemination.executor import DisseminationResult, disseminate
from repro.dissemination.event_executor import disseminate_event_driven
from repro.dissemination.live import disseminate_live
from repro.dissemination.message import Message
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
    TargetPolicy,
    policy_for_snapshot,
)
from repro.dissemination.snapshot import OverlaySnapshot

__all__ = [
    "DisseminationResult",
    "FloodingPolicy",
    "Message",
    "OverlaySnapshot",
    "RandCastPolicy",
    "RingCastPolicy",
    "TargetPolicy",
    "disseminate",
    "disseminate_event_driven",
    "disseminate_live",
    "policy_for_snapshot",
]
