"""ns/op microbenchmarks of single layer calls on representative
inputs (traced runs only): a gossip message with a 64-byte payload, a
shuffle with 4 descriptors."""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from benchlib.stats import median

PAYLOAD = "x" * 64
TARGET_SECONDS = 0.04
REPEATS = 5


def ns_per_op(op: Callable[[], object]) -> float:
    """Median over ``REPEATS`` timed loops of ``op``, each loop long
    enough (~40 ms) for the clock to resolve it."""
    loops = 1
    while True:
        started = time.perf_counter()
        for _ in range(loops):
            op()
        elapsed = time.perf_counter() - started
        if elapsed >= TARGET_SECONDS / 4 or loops >= 1 << 20:
            break
        loops *= 4
    loops = max(1, int(loops * TARGET_SECONDS / max(elapsed, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(loops):
            op()
        samples.append((time.perf_counter() - started) / loops)
    return 1e9 * median(samples)


def wire_and_core_layers() -> Dict[str, float]:
    """The per-datagram layers of the live push path, one call each."""
    from repro.core.cyclon import CyclonCore
    from repro.core.dissemination import DisseminationCore
    from repro.core.messages import (
        GossipMessage,
        ShuffleRequest,
        VicinityRequest,
        message_from_payload,
    )
    from repro.core.vicinity import VicinityCore
    from repro.core.views import NodeDescriptor
    from repro.membership.ring_ids import RingProximity
    from repro.net.wire import decode_datagram, encode_datagram
    from repro.sim.node import RING_ID_SPACE, NodeProfile

    rng = random.Random(7)

    def descriptor(node_id: int) -> NodeDescriptor:
        profile = NodeProfile(ring_ids=(rng.randrange(RING_ID_SPACE),))
        return NodeDescriptor(node_id, rng.randrange(10), profile)

    gossip = GossipMessage(
        sender=11, msg_id="00000000000b-17", origin=11, hop=2, payload=PAYLOAD
    )
    wire_obj = gossip.to_payload()
    datagram = encode_datagram(wire_obj)

    links_r = tuple(range(100, 108))
    links_d = (200, 201)
    core = DisseminationCore(1, protocol="ringcast", fanout=3)
    serial = iter(range(1 << 62))

    def handle_gossip() -> None:
        message = GossipMessage(
            sender=100,
            msg_id=f"00000000000b-{next(serial)}",
            origin=11,
            hop=2,
            payload=PAYLOAD,
        )
        core.handle_message(message, links_r, links_d, rng)

    me = NodeProfile(ring_ids=(rng.randrange(RING_ID_SPACE),))
    cyclon = CyclonCore(1, me, view_size=8, shuffle_length=4)
    for peer in range(2, 10):
        cyclon.view.add(descriptor(peer))
    vicinity = VicinityCore(
        1, me, RingProximity(ring_index=0), view_size=6, gossip_length=4,
        cyclon=cyclon,
    )
    for peer in range(20, 26):
        vicinity.view.add(descriptor(peer))
    shuffle = ShuffleRequest(
        sender=50, entries=[descriptor(peer) for peer in range(50, 54)]
    )
    exchange = VicinityRequest(
        sender=60,
        initiator=descriptor(60),
        entries=[descriptor(peer) for peer in range(61, 65)],
    )

    return {
        "net.wire.encode_ns": ns_per_op(lambda: encode_datagram(wire_obj)),
        "net.wire.decode_ns": ns_per_op(lambda: decode_datagram(datagram)),
        "core.messages.to_payload_ns": ns_per_op(gossip.to_payload),
        "core.messages.from_payload_ns": ns_per_op(
            lambda: message_from_payload(wire_obj)
        ),
        "core.dissemination.handle_message_ns": ns_per_op(handle_gossip),
        "core.cyclon.handle_message_ns": ns_per_op(
            lambda: cyclon.handle_message(shuffle, rng)
        ),
        "core.vicinity.handle_message_ns": ns_per_op(
            lambda: vicinity.handle_message(exchange)
        ),
    }


def pull_and_fault_layers(store_size: int) -> Dict[str, float]:
    """The layers only the lossy fleet leans on: fault planning on
    every send, and the pull poll that ships the whole ``seen`` set and
    is answered by a scan of the whole store."""
    from repro.core.dissemination import DisseminationCore
    from repro.net.faults import FaultInjector, FaultProfile

    rng = random.Random(7)
    injector = FaultInjector(FaultProfile.from_dict({"loss": 0.1}), seed=7)
    addr = ("127.0.0.1", 40000)
    core = DisseminationCore(1, protocol="randcast", fanout=3)
    for index in range(store_size):
        core.publish(f"00000000000b-{index}", PAYLOAD, (), (), rng)
    poll = core.make_poll()
    return {
        "net.faults.plan_ns": ns_per_op(lambda: injector.plan(addr)),
        "core.dissemination.pull_response_scan_ns": ns_per_op(
            lambda: core.handle_message(poll, (), (), rng)
        ),
    }
