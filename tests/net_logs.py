"""Synthetic event logs in the shape :meth:`GossipNode.log` writes.

One writer for everything that feeds :mod:`repro.net.analyzer` without
running a fleet: the hand-computable fixtures of
``tests/test_net_runtime.py`` and ``tests/test_net_convergence.py``,
the differential tests and hostile-input fuzz of
``tests/test_net_analyzer.py``, and CI's ``analyzer-scaling`` step.
Nothing here reads a clock or an unseeded RNG: same arguments, same
bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterable, List

Records = List[dict]


def log_path(log_dir: Path, node_id: int) -> Path:
    """The file a node with ``node_id`` logs to."""
    return Path(log_dir) / f"node-{node_id:012x}.jsonl"


def write_lines(path: Path, records: Iterable[dict], append: bool = False) -> None:
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def write_log(log_dir: Path, node_id: int, records: Iterable[dict]) -> None:
    """(Over)write one node's log."""
    Path(log_dir).mkdir(parents=True, exist_ok=True)
    write_lines(log_path(log_dir, node_id), records)


def write_run(log_dir: Path, records_by_node: Dict[int, Records]) -> None:
    for node_id, records in records_by_node.items():
        write_log(log_dir, node_id, records)


def chain_run() -> Dict[int, Records]:
    """A 1 -> 2 -> 3 flooding chain published at ts=100."""
    base = {"event": "start", "protocol": "flooding", "fanout": 1}
    return {
        1: [
            dict(base, ts=90.0, node=1, ring_id=10, addr=["127.0.0.1", 1]),
            {"ts": 99.0, "node": 1, "event": "views", "cycle": 9,
             "rlinks": [2], "dlinks": []},
            {"ts": 100.0, "node": 1, "event": "publish", "msg_id": "m-1",
             "payload": "p"},
            {"ts": 100.0, "node": 1, "event": "deliver", "msg_id": "m-1",
             "origin": 1, "hop": 0, "via": "publish"},
            {"ts": 100.0, "node": 1, "event": "forward", "msg_id": "m-1",
             "hop": 1, "targets": [2]},
        ],
        2: [
            dict(base, ts=90.0, node=2, ring_id=20, addr=["127.0.0.1", 2]),
            {"ts": 99.0, "node": 2, "event": "views", "cycle": 9,
             "rlinks": [1, 3], "dlinks": []},
            {"ts": 100.01, "node": 2, "event": "deliver", "msg_id": "m-1",
             "origin": 1, "hop": 1, "via": "push"},
            {"ts": 100.01, "node": 2, "event": "forward", "msg_id": "m-1",
             "hop": 2, "targets": [3]},
        ],
        3: [
            dict(base, ts=90.0, node=3, ring_id=30, addr=["127.0.0.1", 3]),
            {"ts": 99.0, "node": 3, "event": "views", "cycle": 9,
             "rlinks": [2], "dlinks": []},
            {"ts": 100.02, "node": 3, "event": "deliver", "msg_id": "m-1",
             "origin": 1, "hop": 2, "via": "push"},
        ],
    }


def chain_logs(log_dir: Path) -> None:
    write_run(log_dir, chain_run())


def ring_neighbors(node: int, ring: List[int]) -> List[int]:
    index = ring.index(node)
    return sorted({ring[(index + 1) % len(ring)], ring[(index - 1) % len(ring)]})


def converging_run(nodes=(1, 2, 3, 4), regress: bool = False) -> Dict[int, Records]:
    """Four nodes that start at ts=0, hold a half-formed ring at ts=1,
    and a perfect ring from ts=5 on (optionally broken again at ts=8)."""
    ring = sorted(nodes)
    records = {}
    for node in nodes:
        successor = ring[(ring.index(node) + 1) % len(ring)]
        full = ring_neighbors(node, ring)
        # Ring agreement is exact per node (successor AND predecessor),
        # so at ts=1 half the cluster is already settled and half still
        # only knows its successor: completeness lands strictly
        # between 0 and 1.
        early = full if node <= ring[1] else [successor]
        node_records = [
            {"event": "start", "node": node, "ts": 0.0, "ring_id": node,
             "protocol": "ringcast", "fanout": 3},
            {"event": "views", "node": node, "ts": 1.0,
             "dlinks": early, "rlinks": list(full)},
            {"event": "views", "node": node, "ts": 5.0,
             "dlinks": full, "rlinks": full},
        ]
        if regress:
            broken = [successor] if node == ring[0] else full
            node_records.append(
                {"event": "views", "node": node, "ts": 8.0,
                 "dlinks": broken, "rlinks": full}
            )
        records[node] = node_records
    return records


def steady_run(
    nodes: int,
    messages: int,
    seed: int = 0,
    rate: float = 60.0,
    gossip_period: float = 0.25,
    warmup: float = 4.0,
) -> Dict[int, Records]:
    """A clean RINGCAST run the size of a bench fleet's, without the fleet.

    ``nodes`` peers on an exact ring report views every ``gossip_period``
    (fresh random r-links each time, as CYCLON's keep changing); after
    ``warmup`` seconds ``messages`` publishes go out at ``rate`` per
    second, origins round-robin, and every node delivers each one at its
    ring distance from the origin and forwards it to 3 targets. Each
    node's records are in time order, as a node writes them.
    """
    rng = random.Random(seed)
    ids = list(range(1, nodes + 1))
    duration = warmup + messages / rate + 1.0
    records: Dict[int, Records] = {}
    for node in ids:
        log = [
            {"ts": 0.0, "node": node, "event": "start", "ring_id": 10 * node,
             "protocol": "ringcast", "fanout": 3, "addr": ["127.0.0.1", node]}
        ]
        others = [peer for peer in ids if peer != node]
        dlinks = ring_neighbors(node, ids) if nodes > 1 else []
        for cycle in range(1, int(duration / gossip_period)):
            log.append(
                {"ts": cycle * gossip_period, "node": node, "event": "views",
                 "cycle": cycle, "dlinks": dlinks,
                 "rlinks": rng.sample(others, min(8, len(others)))}
            )
        records[node] = log
    for serial in range(messages):
        origin = ids[serial % nodes]
        published = warmup + serial / rate
        msg_id = f"{origin:012x}-{serial // nodes + 1}"
        records[origin].append(
            {"ts": published, "node": origin, "event": "publish",
             "msg_id": msg_id, "payload": "x" * 64}
        )
        for node in ids:
            around = abs(node - origin)
            hop = min(around, nodes - around)
            ts = published + 0.001 * hop
            records[node].append(
                {"ts": ts, "node": node, "event": "deliver", "msg_id": msg_id,
                 "origin": origin, "hop": hop,
                 "via": "push" if hop else "publish"}
            )
            records[node].append(
                {"ts": ts, "node": node, "event": "forward", "msg_id": msg_id,
                 "hop": hop + 1,
                 "targets": rng.sample(ids, min(3, nodes))}
            )
    for log in records.values():
        log.sort(key=lambda record: record["ts"])
    return records
