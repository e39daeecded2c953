"""The analyzer as it stood before it indexed the run: the test oracle.

``analyze_run`` below is the parent implementation of
:func:`repro.net.analyzer.analyze_run`, kept verbatim — it loads every
record of every node into memory and rescans all of them once per
published message, twice (the tally loop and ``_snapshot_at``), and
``ring_convergence`` re-scores the whole ring at every sample (with the
``ring_agreement`` of that commit, also verbatim). Quadratic in run
length, and it raises on a parseable record with a malformed field; it
exists so ``tests/test_net_analyzer.py`` can require the indexed
implementation to return an equal ``NetRunReport.to_dict()`` on every
log both accept. The report classes and ``_predict`` (untouched by the
rewrite) are the real ones.
"""

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.dissemination.snapshot import OverlaySnapshot
from repro.net.analyzer import (
    ConvergenceReport,
    MessageReport,
    NetRunReport,
    _predict,
)


def ring_agreement(
    dlinks: Mapping[int, Sequence[int]], true_ring: Sequence[int]
) -> float:
    """Fraction of nodes whose d-links match the ground-truth ring.

    ``true_ring`` is the alive population sorted by sequence ID; node
    ``i``'s correct neighbors are its predecessor and successor in that
    circular order. Returns 1.0 when the gossip-built ring is perfect.
    """
    n = len(true_ring)
    if n == 0:
        return 1.0
    if n == 1:
        only = true_ring[0]
        return 1.0 if not dlinks.get(only, ()) else 0.0
    position = {node: i for i, node in enumerate(true_ring)}
    correct = 0
    for node in true_ring:
        i = position[node]
        expected = {true_ring[(i + 1) % n], true_ring[(i - 1) % n]}
        expected.discard(node)
        if set(dlinks.get(node, ())) == expected:
            correct += 1
    return correct / n


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
