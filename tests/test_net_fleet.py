"""Tests for the fleet supervisor (:mod:`repro.net.fleet`).

Scenario validation and timeline mechanics are pure unit tests; the
end-to-end runs use the ``inline`` mode (every node a
:class:`~repro.net.node.GossipNode` in one asyncio loop over real
loopback UDP) to keep them fast. The two headline assertions mirror the
paper's §5 claim on live sockets: a node that is down at publish time
misses the push phase (push-only ratio < 1.0) and (only) with the pull
loop enabled recovers to a perfect delivery ratio.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.net.fleet import (
    FleetScenario,
    _node_config,
    _ProcessFleet,
    fleet_timeline,
    load_fleet_scenario,
    realized_lifetimes,
    run_fleet,
)
from tests import analyzer_reference

# One churned publish: node 3 is dead while node 0 publishes, then
# comes back — push cannot reach it, only §5 pull can.
CHURN_SCENARIO = {
    "nodes": 5,
    "seed": 11,
    "duration": 4.0,
    "base_port": 9520,
    "node": {
        "gossip_period": 0.1,
        "ping_period": 0.5,
        "ping_timeout": 0.25,
        "ping_retries": 2,
        "pull_period": 0.12,
    },
    "faults": {"loss": 0.05},
    "fault_seed": 7,
    "churn": [
        {"at": 0.8, "action": "kill", "node": 3},
        {"at": 1.6, "action": "restart", "node": 3},
    ],
    "publishes": [{"at": 1.2, "node": 0, "payload": "churned"}],
}


def _scenario(**overrides):
    obj = dict(CHURN_SCENARIO)
    obj.update(overrides)
    return FleetScenario.from_dict(obj)


class TestScenarioValidation:
    def test_minimal_scenario_parses(self):
        scenario = FleetScenario.from_dict({"nodes": 3, "duration": 2.0})
        assert scenario.nodes == 3
        assert scenario.faults is None
        assert fleet_timeline(scenario) == []

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(CHURN_SCENARIO))
        scenario = load_fleet_scenario(path)
        assert scenario.nodes == 5
        assert scenario.faults is not None
        assert scenario.faults.default.loss == 0.05
        path.write_text("{broken")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_fleet_scenario(path)

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"nodes": 1}, "at least 2"),
            ({"duration": 0}, "positive"),
            ({"extra": 1}, "unknown keys"),
            ({"node": {"port": 1}}, "unknown overrides"),
            ({"churn": [{"at": 1, "action": "pause", "node": 2}]},
             "kill/restart/join"),
            ({"publishes": [{"at": 99.0, "node": 0}]}, "outside"),
            ({"duration": float("nan")}, "finite"),
            ({"duration": float("inf")}, "finite"),
        ],
    )
    def test_bad_scenarios_rejected(self, patch, match):
        obj = dict(CHURN_SCENARIO)
        obj.update(patch)
        with pytest.raises(ConfigurationError, match=match):
            FleetScenario.from_dict(obj)

    @pytest.mark.parametrize(
        "override",
        [
            {"protocol": "bogus"},
            {"fanout": "3"},
            {"fanout": 2.5},
            {"gossip_period": float("nan")},
            {"gossip_period": 0},
            {"ping_retries": -1},
        ],
    )
    def test_bad_node_overrides_fail_at_load(self, tmp_path, override):
        # Checked like `repro node` flags, before either fleet mode
        # launches a node.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(CHURN_SCENARIO, node=override)))
        (name,) = override
        with pytest.raises(ConfigurationError, match=name):
            load_fleet_scenario(path)

    def test_timeline_state_machine_catches_schedule_bugs(self):
        with pytest.raises(ConfigurationError, match="already down"):
            _scenario(
                churn=[
                    {"at": 1.0, "action": "kill", "node": 3},
                    {"at": 2.0, "action": "kill", "node": 3},
                ],
                publishes=[],
            )
        with pytest.raises(ConfigurationError, match="not a previously"):
            _scenario(
                churn=[{"at": 1.0, "action": "restart", "node": 3}],
                publishes=[],
            )
        with pytest.raises(ConfigurationError, match="down at that time"):
            _scenario(
                churn=[{"at": 1.0, "action": "kill", "node": 0}],
                publishes=[{"at": 2.0, "node": 0}],
            )
        with pytest.raises(ConfigurationError, match="reuses node index"):
            _scenario(
                churn=[{"at": 1.0, "action": "join", "node": 2}],
                publishes=[],
            )


_SECONDS = st.sampled_from([0.1, 1e-3]) | st.floats(1e-6, 1e4)


@st.composite
def _fleet_member(draw):
    """A scenario, one member index and whether it is a restart."""
    nodes = draw(st.integers(2, 6))
    obj = {
        "nodes": nodes,
        "duration": draw(_SECONDS),
        "seed": draw(st.integers(0, 2**64)),
        "base_port": draw(st.integers(1, 65535 - nodes)),
        "node": draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "protocol": st.sampled_from(["randcast", "flooding"]),
                    "fanout": st.integers(0, 10),
                    "view_size": st.integers(1, 30),
                    "gossip_period": _SECONDS,
                    "ping_timeout": _SECONDS,
                    "ping_retries": st.integers(0, 5),
                    "ping_backoff": st.floats(1.0, 10.0),
                    "pull_period": st.just(0.0) | _SECONDS,
                    "shuffle_timeout": st.none() | _SECONDS,
                    "addr_ttl": st.just(0.0) | _SECONDS,
                },
            )
        ),
        "fault_seed": draw(st.none() | st.integers(0, 2**32)),
    }
    if draw(st.booleans()):
        latency = sorted(
            draw(st.lists(st.floats(0, 500), min_size=2, max_size=2))
        )
        obj["faults"] = {
            "loss": draw(st.floats(0, 1)),
            "latency_ms": latency,
            "links": {"127.0.0.1:9701": {"reorder": draw(st.floats(0, 1))}},
        }
    scenario = FleetScenario.from_dict(obj)
    return scenario, draw(st.integers(0, nodes - 1)), draw(st.booleans())


class TestProcessArgv:
    @settings(max_examples=60, deadline=None)
    @given(_fleet_member())
    def test_process_nodes_run_the_inline_config(self, member):
        """`repro node` parses a process member's argv back to the
        NodeConfig the inline fleet runs for it."""
        scenario, index, append = member
        seen = []

        async def fake_run_node(config, install_signal_handlers):
            seen.append(config)

        with tempfile.TemporaryDirectory() as tmp:
            log_dir = Path(tmp)
            inline = _node_config(scenario, index, log_dir, append)
            argv = _ProcessFleet(scenario, log_dir)._command(index, append)
            assert argv[:4] == [sys.executable, "-m", "repro", "node"]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("repro.net.node.run_node", fake_run_node)
                main(argv[3:])
        assert seen == [inline]


class TestTimeline:
    def test_events_sorted_publish_before_simultaneous_kill(self):
        scenario = _scenario(
            churn=[{"at": 1.2, "action": "kill", "node": 0}],
            publishes=[{"at": 1.2, "node": 0, "payload": "x"}],
        )
        timeline = fleet_timeline(scenario)
        assert [e.action for e in timeline] == ["publish", "kill"]

    def test_poisson_schedule_is_deterministic(self):
        scenario = _scenario(
            churn=[],
            publishes=[],
            duration=60.0,
            poisson_churn={
                "mean_lifetime": 8.0,
                "mean_downtime": 3.0,
                "start": 2.0,
            },
        )
        first = fleet_timeline(scenario)
        second = fleet_timeline(scenario)
        assert first == second
        assert any(e.action == "kill" for e in first)
        # Node 0 (the bootstrap) is never churned by default.
        assert all(e.node != 0 for e in first)

    def test_poisson_target_validation(self):
        with pytest.raises(ConfigurationError, match="outside"):
            fleet_timeline(
                _scenario(
                    churn=[],
                    publishes=[],
                    poisson_churn={
                        "mean_lifetime": 5.0,
                        "mean_downtime": 1.0,
                        "targets": [99],
                    },
                )
            )

    def test_realized_lifetimes(self):
        scenario = FleetScenario.from_dict(
            {
                "nodes": 3,
                "duration": 10.0,
                "churn": [
                    {"at": 4.0, "action": "kill", "node": 1},
                    {"at": 6.0, "action": "restart", "node": 1},
                ],
            }
        )
        lifetimes = realized_lifetimes(scenario, fleet_timeline(scenario))
        # Node 1: up 0-4 then 6-10; nodes 0 and 2: up 0-10.
        assert sorted(lifetimes) == [4, 4, 10, 10]


class TestFleetRuns:
    def test_pull_recovery_closes_the_churn_gap(self, tmp_path):
        """The live Figs. 9/11 mirror: push misses the churned node,
        pull delivers everywhere."""
        result = run_fleet(
            _scenario(),
            log_dir=tmp_path,
            mode="inline",
            sim_trials=5,
            settle=1.5,
        )
        report = result.report
        assert report.population == 5
        (message,) = report.messages
        # Node 3 was down at publish time: push cannot have reached it.
        assert message.push_deliveries < 5
        assert report.push_delivery_ratio < 1.0
        # ... but §5 anti-entropy recovered it after the restart.
        assert message.pull_deliveries >= 1
        assert report.delivery_ratio == 1.0
        # Six up-intervals: four uninterrupted, two for churned node 3.
        assert sum(result.lifetime_hist.values()) == 6
        # A real log, appended restart and pull deliveries included:
        # the indexed analyzer reports what the per-message rescan did.
        rescan = analyzer_reference.analyze_run(tmp_path, sim_trials=5)
        assert report.to_dict() == rescan.to_dict()

    def test_without_pull_the_gap_stays_open(self, tmp_path):
        overrides = dict(CHURN_SCENARIO["node"])
        overrides["pull_period"] = 0.0
        result = run_fleet(
            _scenario(node=overrides),
            log_dir=tmp_path,
            mode="inline",
            sim_trials=5,
            settle=1.0,
        )
        report = result.report
        assert report.population == 5
        # No recovery path: the churned node stays undelivered.
        assert report.delivery_ratio < 1.0
        assert report.push_delivery_ratio < 1.0

    def test_fault_injection_run_is_reproducible(self, tmp_path):
        """Acceptance pin: same scenario + fault seed, identical
        delivery/hop reports.

        Full loss makes the network silent, so the only deliveries are
        the origins' own — timing races cannot perturb the report, and
        any nondeterminism in the fault layer would surface as a diff.
        """
        scenario = FleetScenario.from_dict(
            {
                "nodes": 4,
                "seed": 23,
                "duration": 1.5,
                "base_port": 9560,
                "node": {"gossip_period": 0.1, "join_retries": 2},
                "faults": {"loss": 1.0},
                "fault_seed": 13,
                "publishes": [{"at": 0.5, "node": 0, "payload": "silent"}],
            }
        )
        stable_fields = (
            "msg_id",
            "origin",
            "population",
            "delivered",
            "delivery_ratio",
            "push_ratio",
            "push_deliveries",
            "pull_deliveries",
            "hop_histogram",
            "gossip_sends",
        )
        reports = []
        for run in ("a", "b"):
            result = run_fleet(
                scenario,
                log_dir=tmp_path / run,
                mode="inline",
                sim_trials=5,
            )
            reports.append(
                [
                    {name: getattr(m, name) for name in stable_fields}
                    for m in result.report.messages
                ]
            )
        assert reports[0] == reports[1]
        (message,) = reports[0]
        assert message["delivered"] == 1  # only the origin
        assert message["hop_histogram"] == {0: 1}
        assert message["gossip_sends"] == 0
