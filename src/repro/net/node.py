"""Asyncio/UDP gossip node: the protocol cores on a real socket.

One :class:`GossipNode` process runs the same
:class:`~repro.core.cyclon.CyclonCore`,
:class:`~repro.core.vicinity.VicinityCore` and
:class:`~repro.core.dissemination.DisseminationCore` the simulator
drives, but over UDP datagrams and wall-clock time:

* a **datagram listener** decodes incoming messages, learns peer
  addresses from the descriptors they carry, and routes each message to
  its core; whatever the core returns is sent out;
* a **gossip loop** initiates one CYCLON shuffle and one VICINITY
  exchange per period (the live analogue of a simulator cycle) and
  appends a ``views`` event to the log;
* a **ping loop** probes every view peer; a peer that misses
  ``ping_retries`` pongs (with exponential backoff between retries) is
  declared dead and discarded from both views — the live analogue of
  the simulator's on-contact liveness oracle;
* an optional **pull loop** anti-entropy polls a random neighbor, the
  §5 recovery mechanism.

Every significant transition is appended to a JSONL event log that
:mod:`repro.net.analyzer` later turns into delivery/hop/overhead
metrics. Nodes join by sending ``join`` to one or more bootstrap
endpoints and are seeded from the ``welcome`` reply.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import signal
import sys
import time
from dataclasses import Field, dataclass, field, fields
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple
)

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import child_seed
from repro.core.cyclon import CyclonCore
from repro.core.dissemination import PROTOCOLS, DisseminationCore
from repro.core.messages import (
    GossipMessage,
    PullRequest,
    PullResponse,
    ShuffleRequest,
    ShuffleResponse,
    VicinityRequest,
    VicinityResponse,
    decode_descriptor,
    encode_descriptor,
    message_from_payload,
)
from repro.core.vicinity import VicinityCore
from repro.core.views import NodeDescriptor
from repro.membership.ring_ids import RingProximity
from repro.net.faults import FaultInjector, FaultProfile
from repro.net.wire import (
    AddressBook, decode_datagram, encode_datagram, parse_endpoint
)
from repro.sim.node import RING_ID_SPACE, NodeProfile

__all__ = [
    "NODE_TUNABLES", "GossipNode", "NodeConfig", "add_node_arguments",
    "node_argv", "node_config", "run_node",
]

Address = Tuple[str, int]


def _reject(name: str, wanted: str, value: Any) -> NoReturn:
    raise ConfigurationError(f"node option {name!r} must be {wanted}, "
                             f"got {value!r}")


@dataclass(frozen=True)
class _Option:
    """How one :class:`NodeConfig` field reads as a ``repro node`` flag,
    and the values it takes.

    ``type`` converts the flag's text (``None``: keep the string); a
    bool field is a switch and a tuple field a repeatable flag. ``int``
    and ``float`` values must be finite numbers, not bools, ``>=
    minimum``, ``> above`` and ``<= maximum``; a field defaulting to
    ``None`` also takes ``None``. ``tunable`` fields are the ones a
    fleet scenario's ``"node"`` block may set.
    """

    type: Optional[Callable[[str], Any]]
    help: str
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[float] = None
    above: Optional[float] = None
    maximum: Optional[float] = None
    tunable: bool = False

    def check(self, name: str, value: Any) -> Any:
        """``value`` checked and converted to ``type``."""
        if self.choices is not None and value not in self.choices:
            _reject(name, f"one of {self.choices}", value)
        if self.type not in (int, float):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            _reject(name, "a finite number", value)
        if self.type is int and value != int(value):
            _reject(name, "an integer", value)
        value = self.type(value)
        if self.minimum is not None and value < self.minimum:
            _reject(name, f">= {self.minimum}", value)
        if self.above is not None and value <= self.above:
            _reject(name, f"> {self.above}", value)
        if self.maximum is not None and value > self.maximum:
            _reject(name, f"<= {self.maximum}", value)
        return value


def _option(default: Any, type: Any, help: str, **kwargs: Any) -> Any:
    return field(default=default,
                 metadata={"option": _Option(type, help, **kwargs)})


@dataclass
class NodeConfig:
    """Tunables of one live node (see ``docs/live_network.md``).

    Each field but ``faults`` declares its ``repro node`` flag; the
    flag parser, :func:`node_argv` and the fleet's ``"node"`` overrides
    all derive from these declarations.
    """

    host: str = _option("127.0.0.1", None, "bind host")
    port: int = _option(0, int, "bind UDP port; 0 picks a free one",
                        minimum=0, maximum=65535)
    bootstrap: Tuple[Address, ...] = _option(
        (), None, "existing node to join through (repeatable); omit for "
        "the first node of a cluster", metavar="HOST:PORT")
    protocol: str = _option("ringcast", None, "dissemination policy",
                            choices=PROTOCOLS, tunable=True)
    fanout: int = _option(3, int, "gossip fanout", tunable=True)
    view_size: int = _option(8, int, "CYCLON view capacity", tunable=True)
    shuffle_length: int = _option(
        4, int, "descriptors shipped per CYCLON shuffle", tunable=True)
    vicinity_size: int = _option(6, int, "VICINITY view capacity",
                                 tunable=True)
    gossip_length: int = _option(
        4, int, "descriptors shipped per VICINITY exchange", tunable=True)
    gossip_period: float = _option(
        0.5, float, "seconds between gossip cycles", metavar="SECONDS",
        above=0, tunable=True)
    ping_period: float = _option(
        2.0, float, "seconds between liveness probes per peer",
        metavar="SECONDS", above=0, tunable=True)
    ping_timeout: float = _option(
        1.0, float, "seconds to wait for a pong before retrying",
        metavar="SECONDS", above=0, tunable=True)
    ping_retries: int = _option(
        3, int, "missed pongs before a peer is declared down", minimum=0,
        tunable=True)
    ping_backoff: float = _option(
        2.0, float, "multiplier stretching the wait between ping retries",
        minimum=1, tunable=True)
    pull_period: float = _option(
        0.0, float, "anti-entropy pull interval; 0 disables the pull loop",
        metavar="SECONDS", minimum=0, tunable=True)
    join_retries: int = _option(
        10, int, "bootstrap join attempts before giving up", minimum=0,
        tunable=True)
    log_dir: Optional[Path] = _option(
        None, Path, "directory for this node's JSONL event log (default: "
        "events go to stdout)", metavar="DIR")
    # Append to the node's existing log and continue its message IDs
    # after the last one logged there (a restarted incarnation). Needs
    # ``log_dir``: a node logging to stdout has nothing to resume from
    # and numbers its publishes from 1 again.
    log_append: bool = _option(
        False, None, "append to an existing event log instead of "
        "truncating (restarted fleet incarnations keep one log per "
        "identity)")
    run_for: Optional[float] = _option(
        None, float, "stop after this many seconds (default: run until "
        "killed)", metavar="SECONDS", minimum=0)
    seed: Optional[int] = _option(None, int, "RNG seed (default: OS entropy)")
    node_id: Optional[int] = _option(
        None, int, "fixed node ID (default: derived from the seed)")
    ring_id: Optional[int] = _option(
        None, int, "fixed ring sequence ID (default: derived from the seed)")
    publish_after: Optional[float] = _option(
        None, float, "originate one message this many seconds after start "
        "(smoke runs without a separate net-send)", metavar="SECONDS",
        minimum=0)
    publish_payload: Any = _option("hello", None,
                                   "payload for --publish-after")
    # Built from --fault-profile and the fault flags, not a flag itself.
    faults: Optional[FaultProfile] = None
    fault_seed: Optional[int] = _option(
        None, int, "seed of the fault-decision streams; the same seed "
        "reproduces every drop/delay/duplicate decision bit-for-bit "
        "(default: derived from the node identity)")
    shuffle_timeout: Optional[float] = _option(
        None, float, "abort a pending CYCLON shuffle after this long "
        "without a response (default: max(5 * gossip period, 2))",
        metavar="SECONDS", above=0, tunable=True)
    addr_ttl: float = _option(
        60.0, float, "evict address-book entries not refreshed by gossip "
        "for this long; 0 disables eviction", metavar="SECONDS",
        minimum=0, tunable=True)

    def __post_init__(self) -> None:
        for spec, option in _OPTIONS:
            value = getattr(self, spec.name)
            if value is not None or spec.default is not None:
                setattr(self, spec.name, option.check(spec.name, value))


_OPTIONS: List[Tuple[Field, _Option]] = [
    (spec, spec.metadata["option"])
    for spec in fields(NodeConfig)
    if "option" in spec.metadata
]

# The NodeConfig fields a fleet scenario's "node" block may override.
NODE_TUNABLES = frozenset(spec.name for spec, opt in _OPTIONS if opt.tunable)


def _flag(spec: Field) -> str:
    return "--" + spec.name.replace("_", "-")


def add_node_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one ``repro node`` flag per :class:`NodeConfig` option."""
    for spec, option in _OPTIONS:
        kwargs: Dict[str, Any] = {"help": option.help}
        if isinstance(spec.default, bool):
            kwargs["action"] = "store_true"
        elif isinstance(spec.default, tuple):
            kwargs.update(action="append", metavar=option.metavar)
        else:
            kwargs.update(type=option.type, default=spec.default,
                          choices=option.choices, metavar=option.metavar)
            if spec.default is not None:
                kwargs["help"] += " (default: %(default)s)"
        parser.add_argument(_flag(spec), **kwargs)


def node_config(args: argparse.Namespace,
                faults: Optional[FaultProfile] = None) -> NodeConfig:
    """The :class:`NodeConfig` a parsed ``repro node`` command asks for.

    ``--bootstrap`` endpoints are parsed here, so a bad one raises
    :class:`ConfigurationError` instead of exiting through argparse.
    """
    values = {spec.name: getattr(args, spec.name) for spec, _ in _OPTIONS}
    values["bootstrap"] = tuple(
        parse_endpoint(entry) for entry in values["bootstrap"] or ())
    return NodeConfig(faults=faults, **values)


def node_argv(config: NodeConfig,
              fault_profile: Optional[Path] = None) -> List[str]:
    """The ``repro node`` arguments that parse back to ``config``,
    leaving out options at their default. ``fault_profile`` is the file
    ``config.faults`` was written to, required when that is set.
    """
    argv: List[str] = []
    for spec, _ in _OPTIONS:
        value = getattr(config, spec.name)
        if value == spec.default:
            continue
        if isinstance(spec.default, bool):
            argv.append(_flag(spec))
        elif isinstance(spec.default, tuple):
            for host, port in value:
                argv += [_flag(spec), f"{host}:{port}"]
        else:
            argv += [_flag(spec), str(value)]
    if config.faults is not None:
        if fault_profile is None:
            raise ValueError("config.faults needs its fault_profile file")
        argv += ["--fault-profile", str(fault_profile)]
    return argv


@dataclass
class _PingProbe:
    """One in-flight liveness probe."""

    attempts: int
    deadline: float


def _last_publish_seq(path: Path, prefix: str) -> int:
    """Highest sequence among the ``<prefix><seq>`` message IDs the
    ``publish`` records of ``path`` carry (0: none).

    Reads the log an earlier incarnation left behind; a missing file
    and lines that do not parse (a kill mid-write) count for nothing.
    """
    last = 0
    try:
        handle = open(path, encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return last
    with handle:
        for line in handle:
            if '"publish"' not in line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict) or record.get("event") != "publish":
                continue
            msg_id = record.get("msg_id")
            if isinstance(msg_id, str) and msg_id.startswith(prefix):
                seq = msg_id[len(prefix):]
                if seq.isascii() and seq.isdigit() and len(seq) <= 18:
                    last = max(last, int(seq))
    return last


class _NodeProtocol(asyncio.DatagramProtocol):
    """Thin asyncio glue: forwards datagrams to the node object."""

    def __init__(self, node: "GossipNode") -> None:
        self.node = node

    def connection_made(self, transport) -> None:  # pragma: no cover
        pass

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self.node.datagram_received(data, addr)


class GossipNode:
    """One live gossip process (CYCLON + VICINITY + dissemination)."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        rng = random.Random(config.seed)
        self.node_id = (
            config.node_id
            if config.node_id is not None
            else rng.getrandbits(48) | 1
        )
        ring_id = (
            config.ring_id
            if config.ring_id is not None
            else rng.randrange(RING_ID_SPACE)
        )
        self.profile = NodeProfile(ring_ids=(ring_id,))
        self.rng = rng
        self.cyclon = CyclonCore(
            self.node_id,
            self.profile,
            view_size=config.view_size,
            shuffle_length=config.shuffle_length,
        )
        self.vicinity = VicinityCore(
            self.node_id,
            self.profile,
            RingProximity(ring_index=0),
            view_size=config.vicinity_size,
            gossip_length=config.gossip_length,
            cyclon=self.cyclon,
        )
        self.dissemination = DisseminationCore(
            self.node_id, protocol=config.protocol, fanout=config.fanout
        )
        self.addrs = AddressBook()
        self.counters: Dict[str, int] = {}
        self.cycle = 0
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.local_addr: Optional[Address] = None
        # Timing jitter draws come from a stream of their own so they
        # never perturb the protocol RNG (and vice versa).
        self.timing_rng = random.Random(rng.getrandbits(64))
        self.faults: Optional[FaultInjector] = None
        if config.faults is not None and config.faults.active:
            # Per-node fault universes: a shared --fault-seed still
            # gives every node (and every link) an independent stream.
            fault_seed = (
                child_seed(config.fault_seed, f"node-{self.node_id}")
                if config.fault_seed is not None
                else child_seed(self.node_id, "faults")
            )
            self.faults = FaultInjector(config.faults, fault_seed)
        self._shuffle_timeout = (
            config.shuffle_timeout
            if config.shuffle_timeout is not None
            else max(5.0 * config.gossip_period, 2.0)
        )
        self._pending_since: Dict[int, float] = {}
        self._probes: Dict[int, _PingProbe] = {}
        self._last_ping: Dict[int, float] = {}
        self._welcomed = False
        self._msg_prefix = f"{self.node_id:012x}-"
        self._publish_seq = 0
        self._log_file = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: List[asyncio.Task] = []
        self._stopped = asyncio.Event()
        self._shutdown_done = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Address:
        """Bind the socket, open the log, launch the periodic loops."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.transport, _ = await loop.create_datagram_endpoint(
            lambda: _NodeProtocol(self),
            local_addr=(self.config.host, self.config.port),
        )
        sock = self.transport.get_extra_info("sockname")
        self.local_addr = (self.config.host, sock[1])
        if self.config.log_dir is not None:
            self.config.log_dir.mkdir(parents=True, exist_ok=True)
            path = self.config.log_dir / f"node-{self.node_id:012x}.jsonl"
            # A restarted incarnation (fleet churn) appends, so one
            # file carries the node's whole history for the analyzer —
            # and continues the message IDs where that history stops:
            # peers drop a reused ID as a duplicate.
            mode = "w"
            if self.config.log_append:
                mode = "a"
                self._publish_seq = _last_publish_seq(path, self._msg_prefix)
            self._log_file = open(path, mode, encoding="utf-8")
        self.log(
            "start",
            addr=list(self.local_addr),
            ring_id=self.profile.ring_id,
            protocol=self.config.protocol,
            fanout=self.config.fanout,
            view_size=self.config.view_size,
            vicinity_size=self.config.vicinity_size,
        )
        self._tasks.append(asyncio.ensure_future(self._gossip_loop()))
        self._tasks.append(asyncio.ensure_future(self._ping_loop()))
        if self.config.pull_period > 0:
            self._tasks.append(asyncio.ensure_future(self._pull_loop()))
        if self.config.bootstrap:
            self._tasks.append(asyncio.ensure_future(self._join_loop()))
        if self.config.publish_after is not None:
            self._tasks.append(asyncio.ensure_future(self._publish_later()))
        if self.config.run_for is not None:
            self._tasks.append(asyncio.ensure_future(self._stop_later()))
        return self.local_addr

    async def run(self) -> None:
        """Block until the node is stopped (``run_for`` or external)."""
        await self._stopped.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Cancel the loops, flush the log, close the socket."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._stopped.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if self.local_addr is not None:
            # Final overlay snapshot: the analyzer reconstructs views
            # from these events, and a node killed between gossip
            # ticks must not leave its last cycle unreported.
            self.log(
                "views",
                cycle=self.cycle,
                rlinks=list(self.current_rlinks()),
                dlinks=list(self.current_dlinks()),
                vic=list(self.vicinity.view.ids()),
                final=True,
            )
        self.log("stop", counters=dict(sorted(self.counters.items())))
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    def request_stop(self) -> None:
        self._stopped.set()

    # ------------------------------------------------------------------
    # event log
    # ------------------------------------------------------------------

    def log(self, event: str, **fields: Any) -> None:
        record = {"ts": time.time(), "node": self.node_id, "event": event}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        if self._log_file is not None:
            self._log_file.write(line + "\n")
            self._log_file.flush()
        else:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def _send_obj(self, obj: Dict[str, Any], addr: Address) -> None:
        assert self.transport is not None
        data = encode_datagram(obj)
        self._count(f"sent.{obj['t']}")
        if self.faults is None:
            self.transport.sendto(data, addr)
            return
        schedule = self.faults.plan(addr)
        if not schedule:
            self._count("faults.dropped")
            return
        if len(schedule) > 1:
            self._count("faults.duplicated")
        for delay in schedule:
            if delay <= 0:
                self.transport.sendto(data, addr)
            else:
                self._count("faults.delayed")
                assert self._loop is not None
                self._loop.call_later(delay, self._deferred_send, data, addr)

    def _deferred_send(self, data: bytes, addr: Address) -> None:
        """Deliver an impaired (delayed/duplicated) datagram later."""
        if self.transport is not None and not self.transport.is_closing():
            self.transport.sendto(data, addr)

    def send_message(self, peer_id: int, message) -> bool:
        """Serialize one core message to ``peer_id``; False if no addr."""
        addr = self.addrs.get(peer_id)
        if addr is None:
            self._count("drops.no_addr")
            return False
        self._send_obj(message.to_payload(addr_of=self._addr_of), addr)
        return True

    def _addr_of(self, node_id: int) -> Optional[Address]:
        if node_id == self.node_id:
            return self.local_addr
        return self.addrs.get(node_id)

    def _send_outgoing(self, outgoing) -> List[int]:
        delivered_to = []
        for peer_id, message in outgoing:
            if self.send_message(peer_id, message):
                delivered_to.append(peer_id)
        return delivered_to

    # ------------------------------------------------------------------
    # links (the dissemination core is fed the *current* overlay)
    # ------------------------------------------------------------------

    def current_rlinks(self) -> Tuple[int, ...]:
        return self.cyclon.view.ids()

    def current_dlinks(self) -> Tuple[int, ...]:
        links: List[int] = []
        for link in self.vicinity.ring_neighbors():
            if link is not None and link not in links:
                links.append(link)
        return tuple(links)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            obj = decode_datagram(data)
        except ProtocolError:
            self._count("drops.undecodable")
            return
        kind = obj["t"]
        self._count(f"recv.{kind}")
        try:
            if kind == "join":
                self._on_join(obj, addr)
            elif kind == "welcome":
                self._on_welcome(obj)
            elif kind == "ping":
                self._send_obj(
                    {"t": "pong", "from": self.node_id, "nonce": obj.get("nonce")},
                    addr,
                )
            elif kind == "pong":
                self._on_pong(obj)
            elif kind == "publish":
                msg_id = self.publish(obj.get("payload"))
                self._send_obj(
                    {"t": "publish_ack", "from": self.node_id, "msg_id": msg_id},
                    addr,
                )
            elif kind == "publish_ack":
                pass
            else:
                self._on_protocol_message(obj, addr)
        except ProtocolError:
            self._count("drops.malformed")

    def _on_protocol_message(self, obj: Dict[str, Any], addr: Address) -> None:
        message, learned = message_from_payload(obj)
        now = time.monotonic()
        self.addrs.learn_all(learned, now)
        # The datagram's source address is ground truth for its sender.
        self.addrs.learn(message.sender, addr, now)

        if isinstance(message, (ShuffleRequest, ShuffleResponse)):
            outgoing = self.cyclon.handle_message(message, self.rng)
            self._send_outgoing(outgoing)
        elif isinstance(message, (VicinityRequest, VicinityResponse)):
            outgoing = self.vicinity.handle_message(message)
            self._send_outgoing(outgoing)
        elif isinstance(
            message, (GossipMessage, PullRequest, PullResponse)
        ):
            deliveries, outgoing = self.dissemination.handle_message(
                message,
                self.current_rlinks(),
                self.current_dlinks(),
                self.rng,
            )
            for delivery in deliveries:
                self.log(
                    "deliver",
                    msg_id=delivery.msg_id,
                    origin=delivery.origin,
                    hop=delivery.hop,
                    via=delivery.via,
                )
            sent_to = self._send_outgoing(outgoing)
            if isinstance(message, GossipMessage) and sent_to:
                self.log(
                    "forward",
                    msg_id=message.msg_id,
                    hop=message.hop + 1,
                    targets=sent_to,
                )
        else:  # pragma: no cover - message_from_payload is exhaustive
            raise ProtocolError(f"unroutable message {obj['t']!r}")

    # ------------------------------------------------------------------
    # bootstrap handshake
    # ------------------------------------------------------------------

    def _self_descriptor_payload(self) -> Dict[str, Any]:
        descriptor = NodeDescriptor(self.node_id, 0, self.profile)
        return encode_descriptor(descriptor, self.local_addr)

    def _absorb(self, descriptor: NodeDescriptor, addr: Optional[Address]) -> None:
        """Seed the CYCLON view with a bootstrap-learned descriptor."""
        if addr is not None:
            self.addrs.learn(descriptor.node_id, addr, time.monotonic())
        if descriptor.node_id == self.node_id:
            return
        if self.cyclon.view.contains(descriptor.node_id):
            return
        if self.cyclon.view.is_full:
            return
        self.cyclon.view.add(descriptor.copy())

    def _on_join(self, obj: Dict[str, Any], addr: Address) -> None:
        descriptor, desc_addr = decode_descriptor(obj["desc"])
        self._absorb(descriptor, desc_addr or addr)
        peers = [self._self_descriptor_payload()]
        for entry in self.cyclon.view.descriptors():
            peers.append(
                encode_descriptor(entry, self.addrs.get(entry.node_id))
            )
        self._send_obj(
            {"t": "welcome", "from": self.node_id, "peers": peers}, addr
        )
        self.log("join_seen", peer=descriptor.node_id)

    def _on_welcome(self, obj: Dict[str, Any]) -> None:
        for entry in obj.get("peers", ()):
            descriptor, addr = decode_descriptor(entry)
            self._absorb(descriptor, addr)
        if not self._welcomed:
            self._welcomed = True
            self.log("welcome", view=list(self.cyclon.view.ids()))

    async def _join_loop(self) -> None:
        """Send ``join`` to every bootstrap, with jittered backoff.

        The ±25% jitter matters under loss and mass restarts: many
        joiners on the same fixed doubling schedule would hammer the
        bootstrap in synchronized waves.
        """
        delay = self.config.gossip_period
        for attempt in range(self.config.join_retries):
            if self._welcomed or self._stopped.is_set():
                return
            for addr in self.config.bootstrap:
                if addr == self.local_addr:
                    continue
                self._send_obj(
                    {
                        "t": "join",
                        "from": self.node_id,
                        "desc": self._self_descriptor_payload(),
                    },
                    addr,
                )
            await asyncio.sleep(
                delay * (0.75 + 0.5 * self.timing_rng.random())
            )
            delay = min(delay * 2, 5.0)
        if not self._welcomed:
            self.log("join_timeout", bootstrap=[list(a) for a in self.config.bootstrap])

    # ------------------------------------------------------------------
    # periodic gossip
    # ------------------------------------------------------------------

    async def _gossip_loop(self) -> None:
        while not self._stopped.is_set():
            await asyncio.sleep(self.config.gossip_period)
            self.gossip_once()

    def gossip_once(self) -> None:
        """One live 'cycle': a CYCLON shuffle + a VICINITY exchange."""
        self.cycle += 1
        self._cyclon_round()
        self._vicinity_round()
        self.log(
            "views",
            cycle=self.cycle,
            rlinks=list(self.current_rlinks()),
            dlinks=list(self.current_dlinks()),
            vic=list(self.vicinity.view.ids()),
        )

    def _cyclon_round(self) -> None:
        core = self.cyclon
        core.begin_cycle()
        while True:
            partner = core.oldest_peer()
            if partner is None:
                return
            if partner in self.addrs:
                break
            # An entry whose address never arrived is uncontactable.
            core.discard_peer(partner)
            self._count("drops.partner_no_addr")
        request = core.start_shuffle(partner, self.rng)
        self._pending_since[partner] = time.monotonic()
        self.send_message(partner, request)

    def _vicinity_round(self) -> None:
        core = self.vicinity
        core.begin_cycle()
        partner = core.oldest_peer()
        if partner is None or partner not in self.addrs:
            candidates = [
                peer
                for peer in core.fallback_candidates()
                if peer in self.addrs
            ]
            if not candidates:
                return
            partner = self.rng.choice(candidates)
        profile = core.peer_profile(partner)
        if profile is None:
            return
        request = core.start_exchange(partner, profile)
        self.send_message(partner, request)

    # ------------------------------------------------------------------
    # liveness (ping/pong with retry + backoff)
    # ------------------------------------------------------------------

    def _ping_targets(self) -> List[int]:
        # In-flight shuffle partners are NOT in the view (CYCLON removes
        # the partner's entry on start_shuffle), yet they are exactly the
        # peers whose death would strand pending state — probe them too.
        targets = list(self.cyclon.view.ids())
        for peer in self.cyclon.pending_partners():
            if peer not in targets:
                targets.append(peer)
        for peer in self.vicinity.view.ids():
            if peer not in targets:
                targets.append(peer)
        return targets

    async def _ping_loop(self) -> None:
        interval = max(
            0.05, min(self.config.ping_period, self.config.ping_timeout) / 2
        )
        while not self._stopped.is_set():
            # ±25% jitter: a cluster restarted en masse must not probe
            # (and retry) in lock-step after a loss burst.
            await asyncio.sleep(
                interval * (0.75 + 0.5 * self.timing_rng.random())
            )
            self.ping_tick(time.monotonic())

    def ping_tick(self, now: float) -> None:
        """Issue due probes, retry or declare overdue ones.

        Doubles as the node's periodic housekeeping tick: overdue
        in-flight shuffles are aborted and stale address-book entries
        evicted before probes are considered.
        """
        self._reap_pending_shuffles(now)
        self._evict_stale_addrs(now)
        for peer in self._ping_targets():
            if peer in self._probes:
                continue
            last = self._last_ping.get(peer, 0.0)
            if now - last >= self.config.ping_period:
                self._send_ping(peer, now)
        for peer, probe in list(self._probes.items()):
            if now < probe.deadline:
                continue
            if probe.attempts < self.config.ping_retries:
                self._retry_ping(peer, probe, now)
            else:
                del self._probes[peer]
                self._peer_down(peer)

    def _reap_pending_shuffles(self, now: float) -> None:
        """Abort in-flight shuffles whose response is overdue.

        The ping loop eventually reaps a *dead* partner, but a lost
        response from a live partner — routine under injected loss —
        would otherwise leave its pending entry behind forever, and a
        partner whose address never arrived cannot even be probed.
        Bounding the wait keeps pending state finite however hostile
        the network.
        """
        pending = set(self.cyclon.pending_partners())
        for peer in list(self._pending_since):
            if peer not in pending:
                del self._pending_since[peer]
        for peer, since in list(self._pending_since.items()):
            if now - since >= self._shuffle_timeout:
                self.cyclon.abort_shuffle(peer)
                del self._pending_since[peer]
                self._count("shuffle.reaped")

    def _evict_stale_addrs(self, now: float) -> None:
        """Forget addresses gossip has not refreshed within the TTL.

        View members, in-flight shuffle partners, and peers under an
        active probe are protected: their addresses are load-bearing
        even when no fresh descriptor carried them lately.
        """
        ttl = self.config.addr_ttl
        if ttl <= 0:
            return
        protect = set(self.cyclon.view.ids())
        protect.update(self.vicinity.view.ids())
        protect.update(self.cyclon.pending_partners())
        protect.update(self._probes)
        for peer in self.addrs.stale_ids(now - ttl, protect=protect):
            self.addrs.forget(peer)
            self._last_ping.pop(peer, None)
            self._count("addrs.evicted")

    def _send_ping(self, peer: int, now: float) -> None:
        addr = self.addrs.get(peer)
        if addr is None:
            return
        self._last_ping[peer] = now
        self._probes[peer] = _PingProbe(
            attempts=1, deadline=now + self.config.ping_timeout
        )
        self._send_obj({"t": "ping", "from": self.node_id, "nonce": peer}, addr)

    def _retry_ping(self, peer: int, probe: _PingProbe, now: float) -> None:
        addr = self.addrs.get(peer)
        if addr is None:
            del self._probes[peer]
            return
        probe.attempts += 1
        # Exponential backoff with ±15% jitter: each retry waits
        # ping_backoff× longer, desynchronized across probers.
        wait = self.config.ping_timeout * (
            self.config.ping_backoff ** (probe.attempts - 1)
        )
        wait *= 0.85 + 0.3 * self.timing_rng.random()
        probe.deadline = now + wait
        self._count("ping.retries")
        self._send_obj({"t": "ping", "from": self.node_id, "nonce": peer}, addr)

    def _on_pong(self, obj: Dict[str, Any]) -> None:
        peer = int(obj["from"])
        self._probes.pop(peer, None)

    def _peer_down(self, peer: int) -> None:
        """A peer exhausted its retries: drop it everywhere."""
        self.cyclon.abort_shuffle(peer)
        self.cyclon.discard_peer(peer)
        self.vicinity.discard_peer(peer)
        self.addrs.forget(peer)
        self._pending_since.pop(peer, None)
        self._last_ping.pop(peer, None)
        self._count("ping.peer_down")
        self.log("peer_down", peer=peer)

    # ------------------------------------------------------------------
    # dissemination
    # ------------------------------------------------------------------

    def publish(self, payload: Any) -> str:
        """Originate a message; returns its ID."""
        self._publish_seq += 1
        msg_id = f"{self._msg_prefix}{self._publish_seq}"
        outgoing = self.dissemination.publish(
            msg_id,
            payload,
            self.current_rlinks(),
            self.current_dlinks(),
            self.rng,
        )
        self.log("publish", msg_id=msg_id, payload=payload)
        self.log("deliver", msg_id=msg_id, origin=self.node_id, hop=0, via="publish")
        sent_to = self._send_outgoing(outgoing)
        if sent_to:
            self.log("forward", msg_id=msg_id, hop=1, targets=sent_to)
        return msg_id

    async def _pull_loop(self) -> None:
        while not self._stopped.is_set():
            await asyncio.sleep(self.config.pull_period)
            peers = [p for p in self.current_rlinks() if p in self.addrs]
            if not peers:
                continue
            peer = self.rng.choice(peers)
            self.send_message(peer, self.dissemination.make_poll())

    async def _publish_later(self) -> None:
        assert self.config.publish_after is not None
        await asyncio.sleep(self.config.publish_after)
        if not self._stopped.is_set():
            self.publish(self.config.publish_payload)

    async def _stop_later(self) -> None:
        assert self.config.run_for is not None
        await asyncio.sleep(self.config.run_for)
        self.request_stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GossipNode(id={self.node_id:#x}, addr={self.local_addr}, "
            f"cycle={self.cycle})"
        )


async def run_node(
    config: NodeConfig, install_signal_handlers: bool = False
) -> GossipNode:
    """Start one node and run it to completion (the CLI entry point).

    With ``install_signal_handlers``, SIGTERM/SIGINT request a clean
    stop instead of killing the process mid-write: the shutdown path
    logs the final ``views`` snapshot and flushes the event log, so a
    fleet supervisor terminating its nodes never truncates the tail
    the analyzer needs.
    """
    node = GossipNode(config)
    await node.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, node.request_stop)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal support (or non-main
                # threads) keep the default behavior.
                break
    await node.run()
    return node
