"""Log-based analysis of live-network runs, cross-checked against sim.

``repro net-analyze LOGDIR`` parses the JSONL event logs a cluster of
``repro node`` processes wrote and computes, per published message:

* **delivery ratio** — nodes that delivered it (push or pull recovery)
  over every node that logged anything during the run, whether or not
  it was up when the message was published;
* **hop-count distribution** — hops of every push delivery (the origin
  counts as hop 0; pull recoveries are tallied separately because they
  have no meaningful hop);
* **message overhead** — gossip datagrams sent for the message, as a
  per-node average.

The same logs contain periodic ``views`` events, so the analyzer can
reconstruct the overlay as it stood when the message was published,
freeze it into an :class:`~repro.dissemination.snapshot.OverlaySnapshot`,
and replay many simulated disseminations over it — the paper's
methodology inverted: instead of predicting with sim and hoping, every
real run ships the exact overlay needed for a matched prediction, and
the report states how far reality landed from it.

Each log file is read once, a record at a time: a record is validated,
routed into a :class:`_RunIndex` and dropped, so the analysis costs one
pass over the records plus O(nodes) per message, whatever the run
length. A line that does not parse, or parses to a record whose fields
do not have the types :meth:`~repro.net.node.GossipNode.log` writes,
contributes nothing and is counted in ``skipped_lines`` — the analysis
never fails on a log's content.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.core.dissemination import PROTOCOLS
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import policy_for_snapshot
from repro.dissemination.snapshot import OverlaySnapshot
from repro.graphs.analysis import ring_neighbor_sets

__all__ = [
    "ConvergenceReport",
    "NetRunReport",
    "analyze_run",
    "render_net_report",
    "ring_convergence",
]


@dataclass
class MessageReport:
    """Observed + predicted statistics for one published message."""

    msg_id: str
    origin: int
    published_ts: float
    population: int
    delivered: int
    delivery_ratio: float
    push_ratio: float
    push_deliveries: int
    pull_deliveries: int
    hop_histogram: Dict[int, int]
    mean_hops: float
    max_hops: int
    gossip_sends: int
    msgs_per_node: float
    latency_seconds: float
    predicted: Optional[Dict[str, Any]] = None
    hops_within_tolerance: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        obj = dict(self.__dict__)
        obj["hop_histogram"] = {
            str(k): v for k, v in sorted(self.hop_histogram.items())
        }
        return obj


@dataclass(frozen=True)
class ConvergenceReport:
    """Ring completeness over time, reconstructed from ``views`` events.

    The live-network counterpart of the sim-side
    :func:`~repro.experiments.convergence.measure_ring_convergence`
    (the paper's Fig. 4): at each reported overlay change, every node's
    deterministic links are compared against the ground-truth ring (the
    population ordered by ring ID), by the exact-match rule of the sim
    probe's :func:`~repro.graphs.analysis.ring_agreement`
    (:func:`~repro.graphs.analysis.ring_neighbor_sets`).
    Timestamps are seconds since the earliest ``start`` event.
    """

    population: int
    samples: Tuple[Tuple[float, float], ...]
    converged_at: Optional[float]

    @property
    def final_completeness(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "population": self.population,
            "samples": [[ts, value] for ts, value in self.samples],
            "converged_at": self.converged_at,
            "final_completeness": self.final_completeness,
        }


@dataclass
class NetRunReport:
    """Whole-run summary across every published message."""

    log_dir: str
    population: int
    node_ids: List[int]
    messages: List[MessageReport] = field(default_factory=list)
    convergence: Optional[ConvergenceReport] = None
    skipped_lines: int = 0

    @property
    def delivery_ratio(self) -> float:
        if not self.messages:
            return 0.0
        return min(m.delivery_ratio for m in self.messages)

    @property
    def push_delivery_ratio(self) -> float:
        """Worst-case ratio counting *push* deliveries only.

        The live mirror of the paper's Figs. 9/11 comparison: under
        faults or churn this falls below 1.0, and the gap to
        :attr:`delivery_ratio` is exactly what §5 pull recovery closed.
        """
        if not self.messages:
            return 0.0
        return min(m.push_ratio for m in self.messages)

    def to_dict(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "log_dir": self.log_dir,
            "population": self.population,
            "node_ids": sorted(self.node_ids),
            "delivery_ratio": self.delivery_ratio,
            "push_delivery_ratio": self.push_delivery_ratio,
            "skipped_lines": self.skipped_lines,
            "messages": [m.to_dict() for m in self.messages],
        }
        if self.convergence is not None:
            obj["convergence"] = self.convergence.to_dict()
        return obj


def _finite(value: Any) -> bool:
    """A JSON number usable as a timestamp: not a bool, NaN or infinity."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _links(record: dict, key: str) -> Optional[Tuple[int, ...]]:
    """``record[key]`` as a tuple of node IDs (absent: none); ``None``
    when it is anything but a list of ints."""
    value = record.get(key, ())
    if isinstance(value, (list, tuple)) and all(
        type(peer) is int for peer in value
    ):
        return tuple(value)
    return None


class _NodeLog:
    """One node's share of the index, each list in file order."""

    __slots__ = (
        "ring_id", "protocol", "fanout", "publishes",
        "view_ts", "views", "views_in_order",
    )

    def __init__(self) -> None:
        # From the node's last ``start`` record; ``ring_id`` stays None
        # without one, the other two at what a start record defaults to.
        self.ring_id: Optional[int] = None
        self.protocol = "ringcast"
        self.fanout = 3
        self.publishes: List[Tuple[str, float]] = []  # (msg_id, ts)
        self.view_ts: List[float] = []
        self.views: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        # False once a ``views`` record is older than the one before it
        # (clock step, appended restart): bisecting ``view_ts`` would
        # then no longer find the last record in *file* order.
        self.views_in_order = True


class _RunIndex:
    """What the analysis reads of a run, filled one record at a time.

    ``nodes`` keeps the order nodes first appear in, which is the order
    every per-node table of a reconstructed overlay is built in.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, _NodeLog] = {}
        self.first_start_ts: Optional[float] = None
        # msg_id -> node -> (hop, ts) of that node's first deliver.
        self.delivers: Dict[str, Dict[int, Tuple[Optional[int], float]]] = {}
        # msg_id -> gossip datagrams sent, over every forward record.
        self.sends: Dict[str, int] = {}

    def node(self, node_id: int) -> _NodeLog:
        log = self.nodes.get(node_id)
        if log is None:
            log = self.nodes[node_id] = _NodeLog()
        return log

    def add(self, node_id: int, record: Any) -> bool:
        """Route one record of ``node_id``'s log into the index.

        False, with the index untouched, for a record whose fields do
        not have the types :meth:`~repro.net.node.GossipNode.log` writes.
        """
        if not isinstance(record, dict):
            return False
        event = record.get("event")
        ts = record.get("ts")
        if type(event) is not str or not _finite(ts):
            return False
        if event == "deliver":
            msg_id = record.get("msg_id")
            hop = record.get("hop")  # None: recovered by pull
            if type(msg_id) is not str or not (
                hop is None or (type(hop) is int and hop >= 0)
            ):
                return False
            self.node(node_id)
            self.delivers.setdefault(msg_id, {}).setdefault(node_id, (hop, ts))
        elif event == "forward":
            msg_id = record.get("msg_id")
            targets = record.get("targets", ())
            if type(msg_id) is not str or not isinstance(
                targets, (list, tuple)
            ):
                return False
            self.node(node_id)
            self.sends[msg_id] = self.sends.get(msg_id, 0) + len(targets)
        elif event == "views":
            rlinks = _links(record, "rlinks")
            dlinks = _links(record, "dlinks")
            if rlinks is None or dlinks is None:
                return False
            log = self.node(node_id)
            if log.view_ts and ts < log.view_ts[-1]:
                log.views_in_order = False
            log.view_ts.append(ts)
            log.views.append((rlinks, dlinks))
        elif event == "publish":
            msg_id = record.get("msg_id")
            if type(msg_id) is not str:
                return False
            self.node(node_id).publishes.append((msg_id, ts))
        elif event == "start":
            ring_id = record.get("ring_id", 0)
            protocol = record.get("protocol", "ringcast")
            fanout = record.get("fanout", 3)
            if (
                type(ring_id) is not int
                or protocol not in PROTOCOLS
                or type(fanout) is not int
                or fanout < 0
            ):
                return False
            log = self.node(node_id)
            log.ring_id, log.protocol, log.fanout = ring_id, protocol, fanout
            if self.first_start_ts is None or ts < self.first_start_ts:
                self.first_start_ts = ts
        else:
            self.node(node_id)  # any other event still proves the node ran
        return True


def _index_logs(log_dir: Path) -> Tuple[_RunIndex, int]:
    """Index every ``*.jsonl`` file in ``log_dir``, one streaming pass each.

    A node killed mid-write (fleet churn, crash) leaves a truncated or
    garbage final line; such lines, and records :meth:`_RunIndex.add`
    refuses, are skipped — not fatal — and the skip count is returned
    so the report can surface how much telemetry was lost.
    """
    paths = sorted(log_dir.glob("*.jsonl"))
    if not paths:
        raise ConfigurationError(f"no .jsonl logs found in {log_dir}")
    index = _RunIndex()
    skipped = 0
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError):
                    # Not JSON, an int literal too long to convert, or
                    # nesting deeper than the parser can follow.
                    skipped += 1
                    continue
                try:
                    node_id = int(record["node"])
                except (KeyError, TypeError, ValueError, OverflowError):
                    skipped += 1
                    continue
                if not index.add(node_id, record):
                    skipped += 1
    return index, skipped


class _Overlays:
    """The overlay as each node last reported it before a publish.

    Falls back to a node's *first* ``views`` record when none precede
    the publish (late log start). ``complete`` is False if any node
    never reported views at all: no overlay can be reconstructed then.
    """

    def __init__(self, index: _RunIndex) -> None:
        self._nodes = index.nodes
        self.complete = all(log.views for log in index.nodes.values())
        self._alive_ids = tuple(sorted(index.nodes))
        self._ring_ids = {
            node_id: log.ring_id
            for node_id, log in index.nodes.items()
            if log.ring_id is not None
        }

    def at(self, publish_ts: float, kind: str) -> OverlaySnapshot:
        rlinks: Dict[int, Tuple[int, ...]] = {}
        dlinks: Dict[int, Tuple[int, ...]] = {}
        for node_id, log in self._nodes.items():
            if log.views_in_order:
                chosen = max(bisect_right(log.view_ts, publish_ts) - 1, 0)
            else:
                chosen = 0
                for position, ts in enumerate(log.view_ts):
                    if ts <= publish_ts:
                        chosen = position
            rlinks[node_id], dlinks[node_id] = log.views[chosen]
        return OverlaySnapshot(
            kind=kind,
            rlinks=rlinks,
            dlinks=dlinks,
            alive_ids=self._alive_ids,
            ring_ids=self._ring_ids,
        )


def _ring_convergence(index: _RunIndex) -> Optional[ConvergenceReport]:
    """:func:`ring_convergence` of an indexed run: O(views log views)."""
    nodes = index.nodes
    if not any(log.views for log in nodes.values()) or any(
        log.ring_id is None for log in nodes.values()
    ):
        return None
    # Ground truth mirrors Network.sorted_ring(): population ordered by
    # ring ID (node ID untying, as IDs are unique in practice).
    true_ring = sorted(nodes, key=lambda n: (nodes[n].ring_id, n))
    expected = ring_neighbor_sets(true_ring)
    start_ts = index.first_start_ts
    # One stable sort by time keeps each node's same-instant reports in
    # file order, so the last of them is the one that counts.
    updates = [
        (float(ts), node_id, dlinks)
        for node_id, log in nodes.items()
        for ts, (_rlinks, dlinks) in zip(log.view_ts, log.views)
    ]
    updates.sort(key=itemgetter(0))
    # A sample re-evaluates only the nodes that reported at its instant.
    agrees = {node_id: not expected[node_id] for node_id in true_ring}
    correct = sum(agrees.values())
    samples: List[Tuple[float, float]] = []
    for ts, reports in groupby(updates, key=itemgetter(0)):
        for _ts, node_id, dlinks in reports:
            now = set(dlinks) == expected[node_id]
            correct += now - agrees[node_id]
            agrees[node_id] = now
        samples.append((ts - start_ts, correct / len(true_ring)))
    converged_at: Optional[float] = None
    for offset, completeness in samples:
        if completeness == 1.0:
            if converged_at is None:
                converged_at = offset
        else:
            converged_at = None  # regressed: convergence must be sustained
    return ConvergenceReport(
        population=len(true_ring),
        samples=tuple(samples),
        converged_at=converged_at,
    )


def ring_convergence(
    events: Dict[int, List[dict]],
) -> Optional[ConvergenceReport]:
    """Ring completeness over time from per-node ``views`` events.

    Returns ``None`` when the logs carry no usable overlay telemetry —
    no ``views`` events, or nodes without a ``start`` event to read
    their ring ID from (ring order would be undefined).
    """
    index = _RunIndex()
    for node_id, records in events.items():
        index.node(node_id)
        for record in records:
            # All that ring completeness reads; malformed ones drop out.
            if isinstance(record, dict) and record.get("event") in (
                "start",
                "views",
            ):
                index.add(node_id, record)
    return _ring_convergence(index)


def _predict(
    snapshot: OverlaySnapshot,
    origin: int,
    fanout: int,
    trials: int,
    seed: int,
) -> Dict[str, Any]:
    """Replay many simulated disseminations over the frozen overlay."""
    policy = policy_for_snapshot(snapshot)
    rng = random.Random(seed)
    ratios: List[float] = []
    mean_hops: List[float] = []
    max_hops: List[int] = []
    for _ in range(trials):
        result = disseminate(
            snapshot=snapshot,
            policy=policy,
            fanout=fanout,
            origin=origin,
            rng=rng,
        )
        ratios.append(result.hit_ratio)
        max_hops.append(result.hops)
        total = sum(count * hop for hop, count in enumerate(result.per_hop_new))
        notified = sum(result.per_hop_new)
        mean_hops.append(total / notified if notified else 0.0)
    return {
        "trials": trials,
        "delivery_ratio": sum(ratios) / len(ratios),
        "mean_hops": sum(mean_hops) / len(mean_hops),
        "max_hops": max(max_hops),
    }


def analyze_run(
    log_dir: Path,
    sim_trials: int = 100,
    sim_seed: int = 1,
    hops_tolerance: float = 2.0,
) -> NetRunReport:
    """Analyze every published message found in ``log_dir``'s logs.

    ``sim_trials=0`` skips the simulator cross-check: ``predicted`` and
    ``hops_within_tolerance`` stay ``None`` on every message.
    """
    if sim_trials < 0:
        raise ConfigurationError(
            f"sim_trials must be >= 0, got {sim_trials}"
        )
    log_dir = Path(log_dir)
    index, skipped = _index_logs(log_dir)
    node_ids = sorted(index.nodes)
    population = len(node_ids)
    report = NetRunReport(
        log_dir=str(log_dir),
        population=population,
        node_ids=node_ids,
        convergence=_ring_convergence(index),
        skipped_lines=skipped,
    )

    publishes = [
        (msg_id, origin, published_ts)
        for origin, log in index.nodes.items()
        for msg_id, published_ts in log.publishes
    ]
    publishes.sort(key=itemgetter(2))
    overlays = _Overlays(index)
    cross_check = sim_trials > 0 and overlays.complete

    for msg_id, origin, published_ts in publishes:
        by_node = index.delivers.get(msg_id, {})
        first_delivers = [
            by_node[node_id] for node_id in index.nodes if node_id in by_node
        ]
        push = [hop for hop, _ts in first_delivers if hop is not None]
        histogram: Dict[int, int] = {}
        for hop in push:
            histogram[hop] = histogram.get(hop, 0) + 1
        gossip_sends = index.sends.get(msg_id, 0)
        last_delivery_ts = max(
            [published_ts] + [ts for _hop, ts in first_delivers]
        )

        message = MessageReport(
            msg_id=msg_id,
            origin=origin,
            published_ts=published_ts,
            population=population,
            delivered=len(first_delivers),
            delivery_ratio=len(first_delivers) / population,
            push_ratio=len(push) / population,
            push_deliveries=len(push),
            pull_deliveries=len(first_delivers) - len(push),
            hop_histogram=histogram,
            mean_hops=sum(push) / len(push) if push else 0.0,
            max_hops=max(push) if push else 0,
            gossip_sends=gossip_sends,
            msgs_per_node=gossip_sends / population,
            latency_seconds=last_delivery_ts - published_ts,
        )

        origin_log = index.nodes[origin]
        # The simulator has no F=0; a node may run with it (d-links only).
        if cross_check and origin_log.fanout:
            message.predicted = _predict(
                overlays.at(published_ts, origin_log.protocol),
                origin,
                origin_log.fanout,
                sim_trials,
                sim_seed,
            )
            message.hops_within_tolerance = (
                abs(message.mean_hops - message.predicted["mean_hops"])
                <= hops_tolerance
            )
        report.messages.append(message)

    return report


def render_net_report(report: NetRunReport) -> str:
    """Human-readable summary of a :class:`NetRunReport`."""
    lines = [
        f"live-network run: {report.log_dir}",
        f"  population: {report.population} nodes",
    ]
    if report.skipped_lines:
        lines.append(
            f"  warning: skipped {report.skipped_lines} unparseable "
            f"log line(s) (truncated/garbage)"
        )
    if report.convergence is not None:
        conv = report.convergence
        if conv.converged_at is not None:
            verdict = f"ring complete after {conv.converged_at:.1f} s"
        else:
            verdict = (
                f"ring never fully complete "
                f"(final {conv.final_completeness * 100:.1f}%)"
            )
        lines.append(
            f"  ring convergence: {verdict} "
            f"({len(conv.samples)} overlay samples)"
        )
    if not report.messages:
        lines.append("  no published messages found")
        return "\n".join(lines)
    for m in report.messages:
        lines.append(f"  message {m.msg_id} (origin {m.origin:#x}):")
        lines.append(
            f"    delivered {m.delivered}/{m.population} "
            f"(ratio {m.delivery_ratio:.3f}; "
            f"{m.push_deliveries} push, {m.pull_deliveries} pull)"
        )
        hops = ", ".join(
            f"{hop}:{count}" for hop, count in sorted(m.hop_histogram.items())
        )
        lines.append(
            f"    hops: mean {m.mean_hops:.2f}, max {m.max_hops} "
            f"(histogram {hops})"
        )
        lines.append(
            f"    overhead: {m.gossip_sends} gossip datagrams "
            f"({m.msgs_per_node:.2f}/node), "
            f"latency {m.latency_seconds * 1000:.0f} ms"
        )
        if m.predicted is not None:
            verdict = "OK" if m.hops_within_tolerance else "DIVERGED"
            lines.append(
                f"    sim prediction ({m.predicted['trials']} trials): "
                f"ratio {m.predicted['delivery_ratio']:.3f}, "
                f"mean hops {m.predicted['mean_hops']:.2f}, "
                f"max {m.predicted['max_hops']} -> {verdict}"
            )
    lines.append(
        f"  overall delivery ratio: {report.delivery_ratio:.3f} "
        f"(push-only {report.push_delivery_ratio:.3f})"
    )
    return "\n".join(lines)
