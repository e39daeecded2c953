"""Log-based analysis of live-network runs, cross-checked against sim.

``repro net-analyze LOGDIR`` parses the JSONL event logs a cluster of
``repro node`` processes wrote and computes, per published message:

* **delivery ratio** — nodes that delivered it (push or pull recovery)
  over the population that was up at publish time;
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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import policy_for_snapshot
from repro.dissemination.snapshot import OverlaySnapshot
from repro.graphs.analysis import ring_agreement

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
    population ordered by ring ID), using the same exact-match
    :func:`~repro.graphs.analysis.ring_agreement` the sim probe uses.
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


def _load_events(log_dir: Path) -> Tuple[Dict[int, List[dict]], int]:
    """Per-node event lists from every ``*.jsonl`` file in ``log_dir``.

    A node killed mid-write (fleet churn, crash) leaves a truncated or
    garbage final line; such lines are skipped — not fatal — and the
    skip count is returned so the report can surface how much telemetry
    was lost.
    """
    events: Dict[int, List[dict]] = {}
    skipped = 0
    paths = sorted(log_dir.glob("*.jsonl"))
    if not paths:
        raise ConfigurationError(f"no .jsonl logs found in {log_dir}")
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if not isinstance(record, dict) or "node" not in record:
                    skipped += 1
                    continue
                try:
                    node = int(record["node"])
                except (TypeError, ValueError):
                    skipped += 1
                    continue
                events.setdefault(node, []).append(record)
    return events, skipped


def _snapshot_at(
    events: Dict[int, List[dict]],
    publish_ts: float,
    kind: str,
) -> Optional[OverlaySnapshot]:
    """Freeze the overlay as each node last reported it before publish.

    Falls back to a node's *first* ``views`` event when none precede
    the publish (late log start); returns ``None`` if any node never
    reported views at all.
    """
    rlinks: Dict[int, Tuple[int, ...]] = {}
    dlinks: Dict[int, Tuple[int, ...]] = {}
    ring_ids: Dict[int, int] = {}
    for node_id, node_events in events.items():
        chosen: Optional[dict] = None
        first: Optional[dict] = None
        for record in node_events:
            if record.get("event") == "start":
                ring_ids[node_id] = int(record.get("ring_id", 0))
            if record.get("event") != "views":
                continue
            if first is None:
                first = record
            if record["ts"] <= publish_ts:
                chosen = record
        views = chosen or first
        if views is None:
            return None
        rlinks[node_id] = tuple(int(p) for p in views.get("rlinks", ()))
        dlinks[node_id] = tuple(int(p) for p in views.get("dlinks", ()))
    return OverlaySnapshot(
        kind=kind,
        rlinks=rlinks,
        dlinks=dlinks,
        alive_ids=tuple(sorted(rlinks)),
        ring_ids=ring_ids,
    )


def ring_convergence(
    events: Dict[int, List[dict]],
) -> Optional[ConvergenceReport]:
    """Ring completeness over time from per-node ``views`` events.

    Returns ``None`` when the logs carry no usable overlay telemetry —
    no ``views`` events, or nodes without a ``start`` event to read
    their ring ID from (ring order would be undefined).
    """
    ring_ids: Dict[int, int] = {}
    views: Dict[int, List[Tuple[float, Tuple[int, ...]]]] = {}
    for node_id, node_events in events.items():
        for record in node_events:
            if record.get("event") == "start":
                ring_ids[node_id] = int(record.get("ring_id", 0))
            elif record.get("event") == "views":
                views.setdefault(node_id, []).append(
                    (
                        float(record["ts"]),
                        tuple(int(p) for p in record.get("dlinks", ())),
                    )
                )
    if not views or set(events) - set(ring_ids):
        return None
    for series in views.values():
        series.sort(key=lambda item: item[0])
    # Ground truth mirrors Network.sorted_ring(): population ordered by
    # ring ID (node ID untying, as IDs are unique in practice).
    true_ring = [
        node for node in sorted(events, key=lambda n: (ring_ids[n], n))
    ]
    start_ts = min(
        (
            record["ts"]
            for node_events in events.values()
            for record in node_events
            if record.get("event") == "start" and "ts" in record
        ),
        default=min(series[0][0] for series in views.values()),
    )
    timeline = sorted({ts for series in views.values() for ts, _links in series})
    samples: List[Tuple[float, float]] = []
    cursor: Dict[int, Tuple[int, ...]] = {}
    positions = {node: 0 for node in views}
    for ts in timeline:
        for node, series in views.items():
            index = positions[node]
            while index < len(series) and series[index][0] <= ts:
                cursor[node] = series[index][1]
                index += 1
            positions[node] = index
        samples.append(
            (ts - start_ts, ring_agreement(cursor, true_ring))
        )
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
    events, skipped = _load_events(log_dir)
    node_ids = sorted(events.keys())
    population = len(node_ids)
    report = NetRunReport(
        log_dir=str(log_dir),
        population=population,
        node_ids=node_ids,
        convergence=ring_convergence(events),
        skipped_lines=skipped,
    )

    protocols: Dict[int, str] = {}
    fanouts: Dict[int, int] = {}
    for node_id, node_events in events.items():
        for record in node_events:
            if record.get("event") == "start":
                protocols[node_id] = record.get("protocol", "ringcast")
                fanouts[node_id] = int(record.get("fanout", 3))

    publishes: List[Tuple[str, int, float, Any]] = []
    for node_id, node_events in events.items():
        for record in node_events:
            if record.get("event") == "publish":
                publishes.append(
                    (record["msg_id"], node_id, record["ts"], record.get("payload"))
                )
    publishes.sort(key=lambda p: p[2])

    for msg_id, origin, published_ts, _payload in publishes:
        delivered_hops: Dict[int, Optional[int]] = {}
        gossip_sends = 0
        last_delivery_ts = published_ts
        for node_id, node_events in events.items():
            for record in node_events:
                if record.get("msg_id") != msg_id:
                    continue
                if record["event"] == "deliver" and node_id not in delivered_hops:
                    delivered_hops[node_id] = record.get("hop")
                    last_delivery_ts = max(last_delivery_ts, record["ts"])
                elif record["event"] == "forward":
                    gossip_sends += len(record.get("targets", ()))

        push = [h for h in delivered_hops.values() if h is not None]
        pull = sum(1 for h in delivered_hops.values() if h is None)
        histogram: Dict[int, int] = {}
        for hop in push:
            histogram[hop] = histogram.get(hop, 0) + 1
        mean_hops = sum(push) / len(push) if push else 0.0

        message = MessageReport(
            msg_id=msg_id,
            origin=origin,
            published_ts=published_ts,
            population=population,
            delivered=len(delivered_hops),
            delivery_ratio=(
                len(delivered_hops) / population if population else 0.0
            ),
            push_ratio=len(push) / population if population else 0.0,
            push_deliveries=len(push),
            pull_deliveries=pull,
            hop_histogram=histogram,
            mean_hops=mean_hops,
            max_hops=max(push) if push else 0,
            gossip_sends=gossip_sends,
            msgs_per_node=gossip_sends / population if population else 0.0,
            latency_seconds=last_delivery_ts - published_ts,
        )

        snapshot = _snapshot_at(
            events, published_ts, protocols.get(origin, "ringcast")
        )
        if (
            sim_trials
            and snapshot is not None
            and origin in snapshot.alive_set
        ):
            message.predicted = _predict(
                snapshot,
                origin,
                fanouts.get(origin, 3),
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
