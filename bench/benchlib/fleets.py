"""The two live-fleet workloads: ``fleet_steady`` and ``fleet_lossy``.

A fleet is ``GossipNode`` objects in this process's one asyncio loop,
bound to ephemeral loopback UDP ports (node 0 is the bootstrap), and
one generator coroutine that calls ``GossipNode.publish`` directly —
no generator sockets, no threads. ``fleet_steady`` is the clean push
path (RINGCAST, no faults, no pull); ``fleet_lossy`` uses the same
node code differently: RANDCAST under 10 % injected loss, with §5 pull
recovery carrying the deliveries the push misses.

Open-loop phases time every delivery from the publish's *due* time, so
a stalled generator is charged to the deliveries it delayed; the
closed-loop phase keeps 8 publishes outstanding.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.rng import child_seed
from repro.net.analyzer import analyze_run, ring_convergence
from repro.net.faults import FaultProfile
from repro.net.node import GossipNode, NodeConfig
from repro.sim.node import RING_ID_SPACE

from benchlib.context import Context
from benchlib.env import scratch_dir
from benchlib.micro import (
    PAYLOAD,
    ns_per_op,
    pull_and_fault_layers,
    wire_and_core_layers,
)
from benchlib.stats import median, percentile, windows

FANOUT = 3
GOSSIP_PERIOD = 0.25
WARMUP_SECONDS = 4.0
WINDOW = 1.0  # seconds per reporting window
TICK = 0.25  # seconds between machine-speed samples
OUTSTANDING = 8  # closed-loop window
DRAIN_CAP = 10.0
LATENESS_LIMIT_MS = 10.0
ANALYZE_REPEATS = 3  # the analysis is one second-long shot: report a median


@dataclass(frozen=True)
class FleetPlan:
    protocol: str
    faults: Optional[Dict[str, float]]
    pull_period: float
    open_rate: float
    open_share: float  # of --seconds spent in the open-loop phase
    closed_share: float  # of --seconds spent in the closed-loop phase


STEADY = FleetPlan("ringcast", None, 0.0, 60.0, 0.5, 0.5)
LOSSY = FleetPlan("randcast", {"loss": 0.1}, 0.4, 40.0, 0.75, 0.0)


class CountingTransport:
    """Counting proxy around a node's datagram transport (traced run)."""

    def __init__(self, inner, tally: Dict[str, int]) -> None:
        self._inner = inner
        self._tally = tally

    def sendto(self, data: bytes, addr) -> None:
        tally = self._tally
        tally["datagrams"] += 1
        tally["bytes"] += len(data)
        if data.endswith(b'"t":"pull_request"}'):
            tally["pull_requests"] += 1
            tally["pull_request_bytes"] += len(data)
        self._inner.sendto(data, addr)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class Fleet:
    def __init__(self, nodes: int, seed: int, plan: FleetPlan, log_dir: Path) -> None:
        self.size = nodes
        self.seed = seed
        self.plan = plan
        self.log_dir = log_dir
        self.nodes: List[GossipNode] = []
        self.tally = {
            "datagrams": 0,
            "bytes": 0,
            "pull_requests": 0,
            "pull_request_bytes": 0,
        }

    async def start(self) -> None:
        bootstrap: Tuple[Tuple[str, int], ...] = ()
        faults = (
            FaultProfile.from_dict(self.plan.faults)
            if self.plan.faults
            else None
        )
        # Ring IDs evenly spaced, dealt to the nodes in seeded order: a
        # node keeps its 6 circularly closest peers, and with random
        # IDs on so small a ring those can all lie on one side of it,
        # leaving the ring inexact for good at about half the seeds.
        slots = list(range(self.size))
        random.Random(child_seed(self.seed, "ring")).shuffle(slots)
        for index in range(self.size):
            node = GossipNode(
                NodeConfig(
                    port=0,
                    ring_id=slots[index] * (RING_ID_SPACE // self.size),
                    bootstrap=bootstrap,
                    protocol=self.plan.protocol,
                    fanout=FANOUT,
                    gossip_period=GOSSIP_PERIOD,
                    pull_period=self.plan.pull_period,
                    log_dir=self.log_dir,
                    seed=child_seed(self.seed, f"node-{index}"),
                    faults=faults,
                    fault_seed=self.seed,
                )
            )
            addr = await node.start()
            self.nodes.append(node)
            if index == 0:
                bootstrap = (addr,)

    async def stop(self) -> None:
        for node in self.nodes:
            await node.shutdown()

    def ring_exact(self) -> bool:
        """Every node's d-links are exactly its two ring neighbours."""
        ring = sorted(
            self.nodes, key=lambda n: (n.profile.ring_id, n.node_id)
        )
        count = len(ring)
        for index, node in enumerate(ring):
            wanted = {
                ring[(index - 1) % count].node_id,
                ring[(index + 1) % count].node_id,
            }
            if set(node.current_dlinks()) != wanted:
                return False
        return True

    def count_transports(self) -> None:
        for node in self.nodes:
            node.transport = CountingTransport(node.transport, self.tally)

    def delivered_pairs(self, msg_ids) -> int:
        return sum(
            1
            for node in self.nodes
            for msg_id in msg_ids
            if msg_id in node.dissemination.seen
        )

    def everyone_has(self, msg_id: str) -> bool:
        return all(msg_id in node.dissemination.seen for node in self.nodes)

    def counter_sum(self, prefix: str) -> int:
        return sum(
            value
            for node in self.nodes
            for key, value in node.counters.items()
            if key.startswith(prefix)
        )


@dataclass
class OpenLoop:
    """What the open-loop generator recorded."""

    wall_start: float  # time.time() bracket of the phase (log-line count)
    # msg_id -> (seconds into the phase, wall-clock due time)
    due: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    lateness: List[float] = field(default_factory=list)
    # (seconds into the phase, process_time net of machine-speed
    # sampling, publishes so far) at each window boundary.
    marks: List[Tuple[float, float, int]] = field(default_factory=list)
    publish_cpu: float = 0.0
    wall_end: float = 0.0


async def open_loop(
    fleet: Fleet, rate: float, duration: float, at_half, tick
) -> OpenLoop:
    total = int(rate * duration)
    mono_start = time.monotonic()
    phase = OpenLoop(wall_start=time.time())
    next_mark = next_tick = 0.0
    tick_cpu = 0.0
    half = total // 2
    for index in range(total):
        offset = index / rate
        if offset >= next_tick:
            before = time.process_time()
            tick()
            tick_cpu += time.process_time() - before
            next_tick += TICK
        if offset >= next_mark:
            phase.marks.append((offset, time.process_time() - tick_cpu, index))
            next_mark += WINDOW
        if index == half:
            at_half(list(phase.due))
        delay = mono_start + offset - time.monotonic()
        # Always yield, even when late: the nodes share this loop.
        await asyncio.sleep(max(delay, 0.0))
        late = time.monotonic() - (mono_start + offset)
        phase.lateness.append(late)
        # Node logs carry time.time(); anchoring each due time to the
        # wall clock as it reads now keeps a clock step during the run
        # out of every later latency.
        due_wall = time.time() - late
        started = time.perf_counter()
        msg_id = fleet.nodes[index % fleet.size].publish(PAYLOAD)
        phase.publish_cpu += time.perf_counter() - started
        phase.due[msg_id] = (offset, due_wall)
    remaining = mono_start + duration - time.monotonic()
    await asyncio.sleep(max(remaining, 0.0))
    phase.marks.append((duration, time.process_time() - tick_cpu, total))
    phase.wall_end = time.time()
    return phase


async def drain(fleet: Fleet, msg_ids, cap: float) -> float:
    """Wait until every node has every message; seconds waited."""
    started = time.monotonic()
    pending = list(msg_ids)
    while pending and time.monotonic() - started < cap:
        pending = [m for m in pending if not fleet.everyone_has(m)]
        if pending:
            await asyncio.sleep(0.005)
    return time.monotonic() - started


async def closed_loop(fleet: Fleet, duration: float, first_index: int, tick):
    """Keep ``OUTSTANDING`` publishes in flight; returns (completion
    offsets, every msg_id published)."""
    started = time.monotonic()
    outstanding: List[str] = []
    published: List[str] = []
    completions: List[float] = []
    index = first_index
    next_tick = 0.0
    while time.monotonic() - started < duration:
        if time.monotonic() - started >= next_tick:
            tick()
            next_tick += TICK
        while len(outstanding) < OUTSTANDING:
            msg_id = fleet.nodes[index % fleet.size].publish(PAYLOAD)
            outstanding.append(msg_id)
            published.append(msg_id)
            index += 1
        await asyncio.sleep(0.001)
        now = time.monotonic() - started
        still = []
        for msg_id in outstanding:
            if fleet.everyone_has(msg_id):
                completions.append(now)
            else:
                still.append(msg_id)
        outstanding = still
    return completions, published


def read_events(log_dir: Path) -> Dict[int, List[dict]]:
    """Per-node event lists, the shape the analyzer works on."""
    events: Dict[int, List[dict]] = {}
    for path in sorted(log_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                events.setdefault(int(record["node"]), []).append(record)
    return events


@dataclass
class Deliveries:
    """Non-origin deliveries of the open-loop messages, from the logs."""

    latency: List[Tuple[float, float]]  # (due offset s, latency ms)
    completion: List[float]  # per message: last delivery - due, ms
    push: int
    pull: int
    log_lines: int


def open_loop_deliveries(log_dir: Path, phase: OpenLoop) -> Deliveries:
    """Streamed, one record at a time: the harness must not hold the
    whole log in memory, or ``peak_rss_mb`` would measure the harness."""
    latency: List[Tuple[float, float]] = []
    last: Dict[str, float] = {}
    push = pull = lines = 0
    for path in sorted(log_dir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if phase.wall_start <= record["ts"] <= phase.wall_end:
                    lines += 1
                if record["event"] != "deliver":
                    continue
                due = phase.due.get(record["msg_id"])
                if due is None or record["via"] == "publish":
                    continue
                if record["via"] == "pull":
                    pull += 1
                else:
                    push += 1
                offset, due_wall = due
                latency.append((offset, 1000.0 * (record["ts"] - due_wall)))
                last[record["msg_id"]] = max(
                    last.get(record["msg_id"], 0.0), record["ts"]
                )
    completion = [
        1000.0 * (when - phase.due[msg_id][1]) for msg_id, when in last.items()
    ]
    return Deliveries(latency, completion, push, pull, lines)


def cpu_ms_per_publish(phase: OpenLoop) -> List[float]:
    """process_time per publish in each reporting window."""
    per_window = []
    for (_t0, cpu0, n0), (_t1, cpu1, n1) in zip(phase.marks, phase.marks[1:]):
        if n1 > n0:
            per_window.append(1000.0 * (cpu1 - cpu0) / (n1 - n0))
    return per_window


async def lone_node_layers(log_dir: Path) -> Dict[str, float]:
    """``GossipNode.log`` (file-backed, a flush per record) and the
    public ``datagram_received`` entry point, on a started node."""
    from repro.core.messages import GossipMessage
    from repro.net.wire import encode_datagram

    node = GossipNode(NodeConfig(port=0, log_dir=log_dir, seed=7))
    await node.start()
    try:
        serial = iter(range(1 << 62))

        def receive() -> None:
            message = GossipMessage(
                sender=11,
                msg_id=f"00000000000b-{next(serial)}",
                origin=11,
                hop=2,
                payload=PAYLOAD,
            )
            node.datagram_received(
                encode_datagram(message.to_payload()), ("127.0.0.1", 9)
            )

        encode_ns = ns_per_op(
            lambda: encode_datagram(
                GossipMessage(
                    sender=11, msg_id="00000000000b-0", origin=11, hop=2,
                    payload=PAYLOAD,
                ).to_payload()
            )
        )
        return {
            "net.node.log_ns": ns_per_op(
                lambda: node.log(
                    "deliver", msg_id="00000000000b-17", origin=11, hop=2,
                    via="push",
                )
            ),
            # The harness builds and encodes each fresh datagram inside
            # the timed call; that part is measured alone and taken off.
            "net.node.datagram_received_ns": ns_per_op(receive) - encode_ns,
        }
    finally:
        await node.shutdown()


@dataclass
class FleetRun:
    """Everything recorded while the fleet was up."""

    size: int
    phase: OpenLoop
    analysis_logs: Path
    # Messages published and (message, node) pairs delivered at the
    # instant the analysis copy of the logs was taken.
    copied_messages: int
    copied_pairs: int
    drain_s: float
    makespan: float  # first due time -> every open-loop message everywhere
    closed_seconds: float
    completions: List[float]
    closed_ids: List[str]
    attempted_pairs: int
    delivered_pairs: int
    tally: Dict[str, int]
    counters: Dict[str, int]
    idle_cpu_frac: float
    ring_converged_s: float


async def measure(ctx: Context, plan: FleetPlan, root: Path) -> FleetRun:
    """Start the fleet, warm it up, run the phases, stop it."""
    seconds = 3.0 if ctx.quick else ctx.seconds
    live_logs = root / "live"
    analysis_logs = root / "analysis-logs"
    fleet = Fleet(8 if ctx.quick else 24, ctx.seed, plan, live_logs)
    started = time.perf_counter()
    cpu_started = time.process_time()
    await fleet.start()
    try:
        converged_at = 0.0
        if ctx.trace:
            while time.perf_counter() - started < WARMUP_SECONDS:
                await asyncio.sleep(0.05)
                if not converged_at and fleet.ring_exact():
                    converged_at = time.perf_counter() - started
        else:
            await asyncio.sleep(
                WARMUP_SECONDS - (time.perf_counter() - started)
            )
        warm_wall = time.perf_counter() - started
        idle_cpu_frac = (time.process_time() - cpu_started) / warm_wall
        if plan.protocol == "ringcast":
            ctx.ops.check("ring_exact_after_warmup", fleet.ring_exact())
        ctx.setup_spent(warm_wall)

        copied: Dict[str, int] = {}

        def at_half(published) -> None:
            # The analyzer is quadratic in messages: it gets the first
            # half of the phase, copied while the fleet runs on. Logs
            # are flushed per record and nothing runs between this
            # count and this copy, so the two must agree exactly.
            copied["messages"] = len(published)
            copied["pairs"] = fleet.delivered_pairs(published)
            shutil.copytree(live_logs, analysis_logs)
            if ctx.trace:
                fleet.count_transports()

        open_started = time.monotonic()
        phase = await open_loop(
            fleet,
            plan.open_rate,
            seconds * plan.open_share,
            at_half,
            ctx.speed.sample,
        )
        drain_s = await drain(fleet, phase.due, DRAIN_CAP)
        makespan = time.monotonic() - open_started
        tally = dict(fleet.tally)

        completions: List[float] = []
        closed_ids: List[str] = []
        closed_seconds = seconds * plan.closed_share
        if closed_seconds > 0:
            completions, closed_ids = await closed_loop(
                fleet, closed_seconds, len(phase.due), ctx.speed.sample
            )
            await drain(fleet, closed_ids, 2.0)

        every_id = list(phase.due) + closed_ids
        return FleetRun(
            size=fleet.size,
            phase=phase,
            analysis_logs=analysis_logs,
            copied_messages=copied["messages"],
            copied_pairs=copied["pairs"],
            drain_s=drain_s,
            makespan=makespan,
            closed_seconds=closed_seconds,
            completions=completions,
            closed_ids=closed_ids,
            attempted_pairs=len(every_id) * fleet.size,
            delivered_pairs=fleet.delivered_pairs(every_id),
            tally=tally,
            counters={
                "sent": fleet.counter_sum("sent."),
                "dropped": fleet.counter_sum("faults.dropped"),
                "pull_requests": fleet.counter_sum("sent.pull_request"),
                "pull_responses": fleet.counter_sum("sent.pull_response"),
            },
            idle_cpu_frac=idle_cpu_frac,
            ring_converged_s=converged_at,
        )
    finally:
        await fleet.stop()


async def drive(ctx: Context, plan: FleetPlan, root: Path) -> Dict[str, float]:
    run = await measure(ctx, plan, root)
    phase = run.phase
    ctx.ops.add(
        run.attempted_pairs,
        run.attempted_pairs - run.delivered_pairs,
        "delivery_pairs",
    )

    analyze_walls = []
    for _ in range(ANALYZE_REPEATS):
        analyze_started = time.perf_counter()
        report = analyze_run(run.analysis_logs, sim_trials=1)
        analyze_walls.append(time.perf_counter() - analyze_started)
    analyze_s = median(analyze_walls)
    analyzer_pairs = sum(m.delivered for m in report.messages)
    ctx.ops.check(
        "analyzer_agrees_on_delivered_pairs",
        analyzer_pairs == run.copied_pairs
        and len(report.messages) == run.copied_messages,
        f"analyzer saw {analyzer_pairs} pairs in {len(report.messages)} "
        f"messages, harness {run.copied_pairs} in {run.copied_messages}",
    )

    seen = open_loop_deliveries(root / "live", phase)
    latency_windows = [
        median(bucket)
        for bucket in windows(seen.latency, 0.0, WINDOW, len(phase.marks) - 1)
        if bucket
    ]
    cpu_windows = cpu_ms_per_publish(phase)
    lateness_p99 = 1000.0 * percentile(phase.lateness, 0.99)
    ctx.notes.update(
        nodes=run.size,
        open_loop_publishes=len(phase.due),
        closed_loop_publishes=len(run.closed_ids),
        latency_samples=len(seen.latency),
        generator_lateness_p99_ms=lateness_p99,
        unresolved=lateness_p99 > LATENESS_LIMIT_MS,
        analyzed_messages=len(report.messages),
        windows={
            "latency_p50_ms": latency_windows,
            "cpu_ms_per_publish": cpu_windows,
        },
    )

    open_pairs = len(phase.due) * run.size
    if run.closed_seconds > 0:
        per_window = [
            len(bucket) * run.size / WINDOW
            for bucket in windows(
                [(when, 1.0) for when in run.completions],
                0.0,
                WINDOW,
                int(run.closed_seconds),
            )
        ]
        ctx.notes["windows"]["closed_loop_deliveries_per_s"] = per_window
        throughput = median(per_window)
    else:
        # No closed loop under loss (completion waits on the pull
        # period, not on the CPU): goodput over the open-loop makespan,
        # first due time to last delivery — set by the schedule.
        throughput = open_pairs / run.makespan
        ctx.schedule_bound.add("deliveries_per_s")
    if not ctx.trace:
        return {
            "job_wall_s": analyze_s,
            "deliveries_per_s": throughput,
            "latency_p50_ms": median(latency_windows),
            "cpu_ms_per_op": median(cpu_windows),
            "delivery_ratio": run.delivered_pairs / run.attempted_pairs,
        }

    deliveries = seen.push + seen.pull
    all_latency = [ms for _offset, ms in seen.latency]
    half = len(cpu_windows) // 2
    events = read_events(run.analysis_logs)
    convergence_started = time.perf_counter()
    ring_convergence(events)
    convergence_s = time.perf_counter() - convergence_started
    # Transports are counted from the open loop's midpoint on.
    counted_pairs = (len(phase.due) - run.copied_messages) * run.size
    tally = run.tally
    layers = {
        "net.node.idle_cpu_frac": run.idle_cpu_frac,
        "net.fleet.ring_converged_s": run.ring_converged_s,
        "net.node.datagrams_per_delivery": tally["datagrams"] / counted_pairs,
        "net.node.bytes_per_delivery": tally["bytes"] / counted_pairs,
        "net.node.log_lines_per_delivery": seen.log_lines / open_pairs,
        "net.fleet.generator_lateness_p99_ms": lateness_p99,
        "net.fleet.generator_cpu_frac": phase.publish_cpu
        / (phase.marks[-1][0] - phase.marks[0][0]),
        "net.fleet.latency_p90_ms": percentile(all_latency, 0.90),
        "net.fleet.latency_p99_ms": percentile(all_latency, 0.99),
        "net.analyzer.s_per_message": analyze_s / len(report.messages),
        "net.analyzer.ring_convergence_s": convergence_s,
        "net.faults.dropped_frac": run.counters["dropped"] / run.counters["sent"],
        "net.fleet.push_delivery_ratio": seen.push / deliveries,
        "net.fleet.pull_delivery_share": seen.pull / deliveries,
        "net.fleet.completion_p50_ms": median(seen.completion),
        "net.fleet.drain_s": run.drain_s,
        "core.dissemination.pull_request_bytes_mean": (
            tally["pull_request_bytes"] / tally["pull_requests"]
            if tally["pull_requests"]
            else 0.0
        ),
        "net.node.pull_requests": float(run.counters["pull_requests"]),
        "net.node.pull_responses": float(run.counters["pull_responses"]),
        # CPU per publish after the counting transports went in,
        # against before.
        "trace_overhead_frac": median(cpu_windows[half:])
        / median(cpu_windows[:half])
        - 1.0,
    }
    layers.update(wire_and_core_layers())
    layers.update(await lone_node_layers(root / "lone"))
    if plan.pull_period > 0:
        layers.update(pull_and_fault_layers(len(phase.due)))
    return layers


def run(ctx: Context, plan: FleetPlan) -> Dict[str, float]:
    with scratch_dir(f"{ctx.workload}-") as root:
        return asyncio.run(drive(ctx, plan, root))


def run_steady(ctx: Context) -> Dict[str, float]:
    return run(ctx, STEADY)


def run_lossy(ctx: Context) -> Dict[str, float]:
    return run(ctx, LOSSY)
