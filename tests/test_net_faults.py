"""Tests for deterministic network impairment (:mod:`repro.net.faults`).

The injector's contract is bit-for-bit reproducibility: same profile +
same seed means the k-th datagram on a link meets the same fate in
every run, per link, regardless of what other links do in between.
These tests pin that contract at the unit level (stream independence,
fixed draw counts) and at the node level (a fault-configured
:class:`~repro.net.node.GossipNode` drops/duplicates on its send path).
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.net.faults import (
    FaultInjector,
    FaultProfile,
    LinkFaults,
    load_fault_profile,
    parse_latency_spec,
)

A = ("127.0.0.1", 9001)
B = ("127.0.0.1", 9002)


class TestLatencySpec:
    def test_window_and_scalar_forms(self):
        assert parse_latency_spec("5:20") == (0.005, 0.02)
        assert parse_latency_spec("10") == (0.01, 0.01)
        assert parse_latency_spec("0:0") == (0.0, 0.0)

    @pytest.mark.parametrize(
        "bad", ["", "a:b", "1:2:3", "-1:5", "9:3", "nan", "1:nan", "inf"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_latency_spec(bad)


class TestLinkFaults:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="probability"):
            LinkFaults(loss=1.5)
        with pytest.raises(ConfigurationError, match="latency"):
            LinkFaults(latency=(0.5, 0.1))
        with pytest.raises(ConfigurationError, match="reorder_extra"):
            LinkFaults(reorder_extra=-1.0)
        # A NaN delay handed to loop.call_later reorders every other
        # timer on the node's loop.
        with pytest.raises(ConfigurationError, match="latency"):
            LinkFaults.from_dict({"latency_ms": [0, float("nan")]})
        with pytest.raises(ConfigurationError, match="reorder_extra"):
            LinkFaults(reorder_extra=float("nan"))

    def test_from_dict_converts_milliseconds(self):
        link = LinkFaults.from_dict(
            {"loss": 0.1, "latency_ms": [5, 20], "reorder_extra_ms": 40}
        )
        assert link.loss == 0.1
        assert link.latency == (0.005, 0.02)
        assert link.reorder_extra == 0.04

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            LinkFaults.from_dict({"loss": 0.1, "lossy": True})

    def test_dict_roundtrip(self):
        link = LinkFaults.from_dict(
            {"loss": 0.2, "latency_ms": [1, 4], "duplicate": 0.05}
        )
        assert LinkFaults.from_dict(link.to_dict()) == link

    def test_active(self):
        assert not LinkFaults().active
        assert LinkFaults(loss=0.01).active
        assert LinkFaults(latency=(0.0, 0.001)).active


class TestFaultProfile:
    def test_per_link_override_inherits_default(self):
        profile = FaultProfile.from_dict(
            {
                "loss": 0.1,
                "latency_ms": [5, 10],
                "links": {"10.0.0.9:9000": {"loss": 1.0}},
            }
        )
        override = profile.for_link("10.0.0.9:9000")
        assert override.loss == 1.0
        # Unnamed parameters come from the default link.
        assert override.latency == (0.005, 0.01)
        assert profile.for_link("10.0.0.1:1234").loss == 0.1

    def test_bad_links_rejected(self):
        with pytest.raises(ConfigurationError, match="links"):
            FaultProfile.from_dict({"links": [1, 2]})
        with pytest.raises(ConfigurationError, match="override"):
            FaultProfile.from_dict({"links": {"h:1": 3}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"loss": 0.25}')
        assert load_fault_profile(path).default.loss == 0.25
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_fault_profile(path)
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_fault_profile(tmp_path / "absent.json")


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        profile = FaultProfile.from_dict(
            {"loss": 0.3, "latency_ms": [1, 5], "duplicate": 0.1,
             "reorder": 0.1}
        )
        runs = []
        for _ in range(2):
            injector = FaultInjector(profile, seed=42)
            runs.append(
                [injector.plan(A) for _ in range(50)]
                + [injector.plan(B) for _ in range(50)]
            )
        assert runs[0] == runs[1]

    def test_links_are_independent_streams(self):
        """Traffic on one link must not perturb another link's fate."""
        profile = FaultProfile.from_dict({"loss": 0.5, "latency_ms": [0, 9]})
        solo = FaultInjector(profile, seed=7)
        solo_plans = [solo.plan(A) for _ in range(30)]
        mixed = FaultInjector(profile, seed=7)
        mixed_plans = []
        for _ in range(30):
            mixed.plan(B)  # interleaved traffic on another link
            mixed_plans.append(mixed.plan(A))
        assert mixed_plans == solo_plans

    def test_loss_one_drops_everything(self):
        injector = FaultInjector(
            FaultProfile(default=LinkFaults(loss=1.0)), seed=1
        )
        assert all(injector.plan(A) == [] for _ in range(20))
        assert injector.decisions == 20

    def test_duplicate_one_sends_twice(self):
        injector = FaultInjector(
            FaultProfile(default=LinkFaults(duplicate=1.0)), seed=1
        )
        assert all(len(injector.plan(A)) == 2 for _ in range(20))

    def test_latency_within_window(self):
        injector = FaultInjector(
            FaultProfile(default=LinkFaults(latency=(0.005, 0.02))), seed=1
        )
        for _ in range(50):
            (delay,) = injector.plan(A)
            assert 0.005 <= delay <= 0.02

    def test_reorder_adds_holdback(self):
        injector = FaultInjector(
            FaultProfile(
                default=LinkFaults(reorder=1.0, reorder_extra=0.5)
            ),
            seed=1,
        )
        (delay,) = injector.plan(A)
        assert delay >= 0.5


class _FakeTransport:
    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((data, addr))

    def is_closing(self):
        return False


def _wired_node(**config_overrides):
    """A GossipNode with a fake transport (no sockets, no loop)."""
    from repro.net.node import GossipNode, NodeConfig

    node = GossipNode(NodeConfig(seed=1, **config_overrides))
    node.transport = _FakeTransport()
    node.local_addr = ("127.0.0.1", 1)
    return node


class TestNodeSendPath:
    def test_no_faults_sends_directly(self):
        node = _wired_node()
        node._send_obj({"t": "ping", "from": node.node_id}, A)
        assert len(node.transport.sent) == 1
        assert node.faults is None

    def test_loss_one_silences_the_node(self):
        node = _wired_node(
            faults=FaultProfile(default=LinkFaults(loss=1.0)), fault_seed=3
        )
        for _ in range(10):
            node._send_obj({"t": "ping", "from": node.node_id}, A)
        assert node.transport.sent == []
        assert node.counters["faults.dropped"] == 10

    def test_inactive_profile_disables_injection(self):
        node = _wired_node(faults=FaultProfile(), fault_seed=3)
        assert node.faults is None

    def test_shared_fault_seed_diversifies_per_node(self):
        """Two nodes with the same --fault-seed must not share streams."""
        from repro.common.rng import child_seed
        from repro.net.node import GossipNode, NodeConfig

        profile = FaultProfile(default=LinkFaults(loss=0.5))
        one = GossipNode(NodeConfig(seed=1, faults=profile, fault_seed=9))
        two = GossipNode(NodeConfig(seed=2, faults=profile, fault_seed=9))
        assert one.faults.seed == child_seed(9, f"node-{one.node_id}")
        assert one.faults.seed != two.faults.seed
