"""Fleet supervisor: scripted churn over a cluster of live nodes.

``repro fleet SCENARIO.json`` turns one JSON scenario into a full
robustness experiment on the live runtime: it launches ``nodes`` local
``repro node`` instances, executes a churn schedule (kill / restart /
join events at absolute times, plus a Poisson-lifetime mode reusing the
exponential model behind the paper's Figs. 12–13), injects publishes,
waits out the scenario, then collects the per-node JSONL logs and runs
:func:`repro.net.analyzer.analyze_run` over them — the live analogue of
one churned simulator trial.

Two execution modes share the same scenario and timeline semantics:

* ``process`` — every node is a real ``repro node`` subprocess (killed
  with SIGTERM, restarted with ``--log-append``); publishes go over the
  wire via :func:`repro.net.wire.send_publish`. This is what CI's
  ``churn-smoke`` job runs.
* ``inline`` — every node is a :class:`~repro.net.node.GossipNode` in
  the supervisor's own asyncio loop. Same protocol traffic over the
  same loopback UDP sockets, but startup is milliseconds, which is what
  tests want.

Determinism: node ``i`` always gets seed ``child_seed(seed, "node-i")``
— so its node ID, ring ID, and protocol RNG are identical across runs
and across restarts — and the fault profile plus ``fault_seed`` flow to
every node, where :mod:`repro.net.faults` guarantees per-link decision
sequences. The Poisson churn schedule is drawn up front from its own
seed universe, so the *schedule* is part of the scenario, not of the
run.

Scenario schema (see ``docs/live_network.md`` for the full contract)::

    {
      "nodes": 12,
      "seed": 42,
      "duration": 16.0,
      "base_port": 9700,
      "node": {"gossip_period": 0.25, "pull_period": 0.4},
      "faults": {"loss": 0.1},
      "fault_seed": 7,
      "publishes": [{"at": 6.0, "node": 0, "payload": "hello"}],
      "churn": [
        {"at": 4.0, "action": "kill", "node": 5},
        {"at": 8.0, "action": "restart", "node": 5}
      ],
      "poisson_churn": {"mean_lifetime": 20, "mean_downtime": 4}
    }
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import child_seed
from repro.failures.lifetimes import lifetime_histogram
from repro.net.analyzer import NetRunReport, analyze_run
from repro.net.faults import FaultProfile
from repro.net.node import NODE_TUNABLES, GossipNode, NodeConfig, node_argv
from repro.net.wire import send_publish

__all__ = [
    "FleetEvent",
    "FleetResult",
    "FleetScenario",
    "fleet_timeline",
    "load_fleet_scenario",
    "run_fleet",
]

_ACTIONS = ("publish", "kill", "restart", "join")


@dataclass(frozen=True)
class FleetEvent:
    """One timed supervisor action (times are seconds since start)."""

    at: float
    action: str
    node: int
    payload: Any = None

    def to_dict(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "at": self.at,
            "action": self.action,
            "node": self.node,
        }
        if self.action == "publish":
            obj["payload"] = self.payload
        return obj

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        # At equal times a publish precedes churn: "publish then kill"
        # is the useful reading of simultaneous events.
        return (self.at, _ACTIONS.index(self.action), self.node)


@dataclass(frozen=True)
class PoissonChurn:
    """Exponential-lifetime churn (the model behind Figs. 12–13).

    Every target node alternates exponentially distributed up and down
    periods; the whole schedule is drawn up front from
    ``child_seed(seed, "churn-<node>")`` universes, so it is a
    deterministic function of the scenario.
    """

    mean_lifetime: float
    mean_downtime: float
    start: float = 0.0
    targets: Tuple[int, ...] = ()

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "PoissonChurn":
        if not isinstance(obj, Mapping):
            raise ConfigurationError(
                f"poisson_churn must be an object, got {obj!r}"
            )
        unknown = sorted(
            set(obj) - {"mean_lifetime", "mean_downtime", "start", "targets"}
        )
        if unknown:
            raise ConfigurationError(
                f"poisson_churn has unknown keys {unknown}"
            )
        try:
            mean_lifetime = float(obj["mean_lifetime"])
            mean_downtime = float(obj["mean_downtime"])
        except KeyError as exc:
            raise ConfigurationError(
                f"poisson_churn requires {exc.args[0]!r}"
            ) from exc
        if mean_lifetime <= 0 or mean_downtime <= 0:
            raise ConfigurationError(
                "poisson_churn means must be positive seconds"
            )
        return cls(
            mean_lifetime=mean_lifetime,
            mean_downtime=mean_downtime,
            start=float(obj.get("start", 0.0)),
            targets=tuple(int(n) for n in obj.get("targets", ())),
        )


@dataclass(frozen=True)
class FleetScenario:
    """One validated fleet scenario (see module docstring for schema)."""

    nodes: int
    duration: float
    seed: int = 1
    host: str = "127.0.0.1"
    base_port: int = 9700
    node: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultProfile] = None
    fault_seed: Optional[int] = None
    publishes: Tuple[FleetEvent, ...] = ()
    churn: Tuple[FleetEvent, ...] = ()
    poisson: Optional[PoissonChurn] = None

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "FleetScenario":
        if not isinstance(obj, Mapping):
            raise ConfigurationError(
                f"fleet scenario must be an object, got {obj!r}"
            )
        known = {
            "nodes",
            "duration",
            "seed",
            "host",
            "base_port",
            "node",
            "faults",
            "fault_seed",
            "publishes",
            "churn",
            "poisson_churn",
        }
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigurationError(
                f"fleet scenario has unknown keys {unknown} "
                f"(expected a subset of {sorted(known)})"
            )
        for required in ("nodes", "duration"):
            if required not in obj:
                raise ConfigurationError(
                    f"fleet scenario requires {required!r}"
                )
        nodes = int(obj["nodes"])
        if nodes < 2:
            raise ConfigurationError(
                f"fleet scenario needs at least 2 nodes, got {nodes}"
            )
        duration = float(obj["duration"])
        if not (math.isfinite(duration) and duration > 0):
            raise ConfigurationError(
                f"fleet duration must be positive finite seconds, "
                f"got {duration}"
            )
        overrides = obj.get("node", {})
        if not isinstance(overrides, Mapping):
            raise ConfigurationError(
                f"scenario 'node' must be an object of NodeConfig "
                f"overrides, got {overrides!r}"
            )
        bad = sorted(set(overrides) - NODE_TUNABLES)
        if bad:
            raise ConfigurationError(
                f"scenario 'node' has unknown overrides {bad} "
                f"(allowed: {sorted(NODE_TUNABLES)})"
            )
        checked = NodeConfig(**overrides)
        faults = None
        if "faults" in obj and obj["faults"] is not None:
            faults = FaultProfile.from_dict(obj["faults"])
        publishes = tuple(
            _parse_publish(entry, index)
            for index, entry in enumerate(obj.get("publishes", ()))
        )
        churn = tuple(
            _parse_churn(entry, index)
            for index, entry in enumerate(obj.get("churn", ()))
        )
        poisson = None
        if "poisson_churn" in obj and obj["poisson_churn"] is not None:
            poisson = PoissonChurn.from_dict(obj["poisson_churn"])
        scenario = cls(
            nodes=nodes,
            duration=duration,
            seed=int(obj.get("seed", 1)),
            host=str(obj.get("host", "127.0.0.1")),
            base_port=int(obj.get("base_port", 9700)),
            node={name: getattr(checked, name) for name in overrides},
            faults=faults,
            fault_seed=(
                int(obj["fault_seed"])
                if obj.get("fault_seed") is not None
                else None
            ),
            publishes=publishes,
            churn=churn,
            poisson=poisson,
        )
        fleet_timeline(scenario)  # validate the schedule up front
        return scenario


def _parse_publish(entry: Any, index: int) -> FleetEvent:
    if not isinstance(entry, Mapping):
        raise ConfigurationError(
            f"publishes[{index}] must be an object, got {entry!r}"
        )
    unknown = sorted(set(entry) - {"at", "node", "payload"})
    if unknown:
        raise ConfigurationError(
            f"publishes[{index}] has unknown keys {unknown}"
        )
    if "at" not in entry:
        raise ConfigurationError(f"publishes[{index}] requires 'at'")
    return FleetEvent(
        at=float(entry["at"]),
        action="publish",
        node=int(entry.get("node", 0)),
        payload=entry.get("payload", "hello"),
    )


def _parse_churn(entry: Any, index: int) -> FleetEvent:
    if not isinstance(entry, Mapping):
        raise ConfigurationError(
            f"churn[{index}] must be an object, got {entry!r}"
        )
    unknown = sorted(set(entry) - {"at", "action", "node"})
    if unknown:
        raise ConfigurationError(
            f"churn[{index}] has unknown keys {unknown}"
        )
    for required in ("at", "action", "node"):
        if required not in entry:
            raise ConfigurationError(
                f"churn[{index}] requires {required!r}"
            )
    action = str(entry["action"])
    if action not in ("kill", "restart", "join"):
        raise ConfigurationError(
            f"churn[{index}] action must be kill/restart/join, "
            f"got {action!r}"
        )
    return FleetEvent(
        at=float(entry["at"]), action=action, node=int(entry["node"])
    )


def load_fleet_scenario(path: Path) -> FleetScenario:
    """Read and validate a :class:`FleetScenario` from a JSON file."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read fleet scenario {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"fleet scenario {path} is not valid JSON: {exc}"
        ) from exc
    return FleetScenario.from_dict(obj)


def _poisson_events(scenario: FleetScenario) -> List[FleetEvent]:
    """Draw the Poisson kill/restart schedule (deterministic per seed).

    Node 0 is excluded by default: it is every other node's bootstrap,
    and churning it turns a churn experiment into a partition one.
    """
    spec = scenario.poisson
    if spec is None:
        return []
    targets = spec.targets or tuple(range(1, scenario.nodes))
    for node in targets:
        if not 0 <= node < scenario.nodes:
            raise ConfigurationError(
                f"poisson_churn target {node} outside the initial "
                f"population [0, {scenario.nodes})"
            )
    events: List[FleetEvent] = []
    for node in sorted(set(targets)):
        rng = random.Random(child_seed(scenario.seed, f"churn-{node}"))
        t = spec.start
        while True:
            t += rng.expovariate(1.0 / spec.mean_lifetime)
            if t >= scenario.duration:
                break
            events.append(FleetEvent(at=t, action="kill", node=node))
            t += rng.expovariate(1.0 / spec.mean_downtime)
            if t >= scenario.duration:
                break
            events.append(FleetEvent(at=t, action="restart", node=node))
    return events


def fleet_timeline(scenario: FleetScenario) -> List[FleetEvent]:
    """The merged, sorted, and statically validated event schedule.

    Validation walks the timeline with an up/down state machine, so a
    scenario that kills a dead node, restarts a live one, or publishes
    through a down node fails *before* any process is launched.
    """
    events = sorted(
        [*scenario.publishes, *scenario.churn, *_poisson_events(scenario)],
        key=lambda event: event.sort_key,
    )
    up = set(range(scenario.nodes))
    known = set(up)
    for event in events:
        if not 0.0 <= event.at <= scenario.duration:
            raise ConfigurationError(
                f"event {event.to_dict()} outside the scenario window "
                f"[0, {scenario.duration}]"
            )
        if event.action == "publish":
            if event.node not in up:
                raise ConfigurationError(
                    f"publish at t={event.at} targets node {event.node}, "
                    f"which is down at that time"
                )
        elif event.action == "kill":
            if event.node not in up:
                raise ConfigurationError(
                    f"kill at t={event.at} targets node {event.node}, "
                    f"which is already down"
                )
            up.discard(event.node)
        elif event.action == "restart":
            if event.node in up or event.node not in known:
                raise ConfigurationError(
                    f"restart at t={event.at} targets node {event.node}, "
                    f"which is not a previously killed node"
                )
            up.add(event.node)
        elif event.action == "join":
            if event.node in known:
                raise ConfigurationError(
                    f"join at t={event.at} reuses node index "
                    f"{event.node}; joins must introduce a new index "
                    f"(>= {scenario.nodes})"
                )
            known.add(event.node)
            up.add(event.node)
    return events


def realized_lifetimes(
    scenario: FleetScenario, timeline: Sequence[FleetEvent]
) -> List[int]:
    """Whole-second uptimes the schedule realizes, one per up-interval.

    The live counterpart of the Fig. 12 lifetime series: intervals
    still open at scenario end are counted up to ``duration``.
    """
    up_since: Dict[int, float] = {node: 0.0 for node in range(scenario.nodes)}
    lifetimes: List[int] = []
    for event in timeline:
        if event.action == "kill":
            lifetimes.append(int(round(event.at - up_since.pop(event.node))))
        elif event.action in ("restart", "join"):
            up_since[event.node] = event.at
    for since in up_since.values():
        lifetimes.append(int(round(scenario.duration - since)))
    return lifetimes


@dataclass
class FleetResult:
    """What one fleet run produced (and where the evidence lives)."""

    mode: str
    log_dir: str
    duration: float
    nodes: int
    events: List[Dict[str, Any]]
    lifetime_hist: Dict[int, int]
    report: Optional[NetRunReport] = None

    def to_dict(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "mode": self.mode,
            "log_dir": self.log_dir,
            "duration": self.duration,
            "nodes": self.nodes,
            "events": self.events,
            "lifetime_hist": {
                str(k): v for k, v in sorted(self.lifetime_hist.items())
            },
        }
        if self.report is not None:
            obj["report"] = self.report.to_dict()
        return obj


def _node_config(
    scenario: FleetScenario,
    index: int,
    log_dir: Path,
    append: bool,
) -> NodeConfig:
    """The full NodeConfig of fleet member ``index``."""
    bootstrap: Tuple[Tuple[str, int], ...] = ()
    if index != 0:
        bootstrap = ((scenario.host, scenario.base_port),)
    return NodeConfig(
        host=scenario.host,
        port=scenario.base_port + index,
        bootstrap=bootstrap,
        log_dir=log_dir,
        log_append=append,
        # Watchdog: if the supervisor dies, orphans still exit.
        run_for=scenario.duration + 30.0,
        seed=child_seed(scenario.seed, f"node-{index}"),
        faults=scenario.faults,
        fault_seed=scenario.fault_seed,
        **dict(scenario.node),
    )


class _InlineFleet:
    """All nodes as GossipNode objects inside the supervisor's loop."""

    mode = "inline"

    def __init__(self, scenario: FleetScenario, log_dir: Path) -> None:
        self.scenario = scenario
        self.log_dir = log_dir
        self._nodes: Dict[int, GossipNode] = {}

    async def start_node(self, index: int, append: bool) -> None:
        node = GossipNode(
            _node_config(self.scenario, index, self.log_dir, append)
        )
        await node.start()
        self._nodes[index] = node

    async def kill_node(self, index: int) -> None:
        node = self._nodes.pop(index)
        await node.shutdown()

    async def publish(self, index: int, payload: Any) -> None:
        self._nodes[index].publish(payload)

    async def stop_all(self) -> None:
        for index in sorted(self._nodes):
            await self._nodes[index].shutdown()
        self._nodes.clear()


class _ProcessFleet:
    """All nodes as real ``repro node`` subprocesses."""

    mode = "process"

    def __init__(self, scenario: FleetScenario, log_dir: Path) -> None:
        self.scenario = scenario
        self.log_dir = log_dir
        self._procs: Dict[int, subprocess.Popen] = {}
        self._profile_path: Optional[Path] = None
        if scenario.faults is not None:
            self._profile_path = log_dir / "fault-profile.json"
            log_dir.mkdir(parents=True, exist_ok=True)
            self._profile_path.write_text(
                json.dumps(scenario.faults.to_dict(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
        src_dir = str(Path(__file__).resolve().parents[2])
        self._env = dict(os.environ)
        existing = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = (
            src_dir if not existing else os.pathsep.join((src_dir, existing))
        )

    def _command(self, index: int, append: bool) -> List[str]:
        config = _node_config(self.scenario, index, self.log_dir, append)
        argv = node_argv(config, self._profile_path)
        return [sys.executable, "-m", "repro", "node", *argv]

    async def start_node(self, index: int, append: bool) -> None:
        # A node that dies (a rejected argv, a port in use) says why
        # here; the analyzer reads only *.jsonl.
        path = self.log_dir / f"node-{index}.stderr"
        with open(path, "ab" if append else "wb") as stderr:
            self._procs[index] = subprocess.Popen(
                self._command(index, append),
                env=self._env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )

    async def kill_node(self, index: int) -> None:
        proc = self._procs.pop(index)
        proc.send_signal(signal.SIGTERM)
        await self._reap(proc)

    async def _reap(self, proc: subprocess.Popen) -> None:
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                loop.run_in_executor(None, proc.wait), timeout=10.0
            )
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            proc.kill()
            await loop.run_in_executor(None, proc.wait)

    async def publish(self, index: int, payload: Any) -> None:
        endpoint = (self.scenario.host, self.scenario.base_port + index)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None,
            lambda: send_publish(endpoint, payload, timeout=2.0, retries=5),
        )

    async def stop_all(self) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs.values():
            await self._reap(proc)
        self._procs.clear()


async def _run_fleet_async(
    scenario: FleetScenario,
    log_dir: Path,
    mode: str,
    settle: float,
) -> List[Dict[str, Any]]:
    timeline = fleet_timeline(scenario)
    supervisor = (
        _InlineFleet(scenario, log_dir)
        if mode == "inline"
        else _ProcessFleet(scenario, log_dir)
    )
    executed: List[Dict[str, Any]] = []
    loop = asyncio.get_running_loop()
    try:
        for index in range(scenario.nodes):
            await supervisor.start_node(index, append=False)
        start = loop.time()
        for event in timeline:
            delay = event.at - (loop.time() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            if event.action == "publish":
                await supervisor.publish(event.node, event.payload)
            elif event.action == "kill":
                await supervisor.kill_node(event.node)
            elif event.action in ("restart", "join"):
                await supervisor.start_node(
                    event.node, append=event.action == "restart"
                )
            executed.append(event.to_dict())
        remaining = scenario.duration - (loop.time() - start)
        if remaining > 0:
            await asyncio.sleep(remaining)
        if settle > 0:
            await asyncio.sleep(settle)
    finally:
        await supervisor.stop_all()
    return executed


def run_fleet(
    scenario: FleetScenario,
    log_dir: Path,
    mode: str = "process",
    analyze: bool = True,
    sim_trials: int = 50,
    sim_seed: int = 1,
    settle: float = 0.0,
) -> FleetResult:
    """Run one fleet scenario end to end and analyze its logs.

    ``settle`` adds a grace period after ``duration`` before teardown —
    useful when the last scheduled event needs a few more pull rounds
    to finish recovering.
    """
    if mode not in ("process", "inline"):
        raise ConfigurationError(
            f"fleet mode must be 'process' or 'inline', got {mode!r}"
        )
    log_dir = Path(log_dir)
    log_dir.mkdir(parents=True, exist_ok=True)
    timeline = fleet_timeline(scenario)
    executed = asyncio.run(
        _run_fleet_async(scenario, log_dir, mode, settle)
    )
    result = FleetResult(
        mode=mode,
        log_dir=str(log_dir),
        duration=scenario.duration,
        nodes=scenario.nodes,
        events=executed,
        lifetime_hist=lifetime_histogram(
            realized_lifetimes(scenario, timeline)
        ),
    )
    if analyze:
        result.report = analyze_run(
            log_dir, sim_trials=sim_trials, sim_seed=sim_seed
        )
    return result
