"""Tests for the live-network runtime (:mod:`repro.net`).

Everything runs on real UDP sockets on loopback, inside ``asyncio.run``
(no external processes, no pytest-asyncio): datagram codec and address
book, the bootstrap join/welcome handshake, gossip convergence of the
CYCLON+VICINITY cores over the wire, dissemination with delivery ratio
1.0 across a 5-node cluster, ping/pong liveness declaring a silently
dead peer down, §5 pull recovery for a late joiner, and the log
analyzer — both over logs a real cluster just wrote and over synthetic
logs with hand-computable numbers.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.experiments.sweep_backends import parse_endpoint
from repro.net.analyzer import analyze_run, render_net_report
from repro.net.node import GossipNode, NodeConfig
from repro.net.wire import (
    MAX_DATAGRAM_BYTES,
    AddressBook,
    decode_datagram,
    encode_datagram,
    send_publish,
)
from tests.net_logs import chain_logs as _chain_logs
from tests.net_logs import write_log

# Fast-but-not-frantic timings for loopback tests on a 1-CPU runner.
FAST = dict(
    gossip_period=0.08,
    ping_period=0.5,
    ping_timeout=0.3,
    ping_retries=2,
    ping_backoff=1.5,
)


async def wait_until(predicate, timeout=10.0, interval=0.05):
    """Poll ``predicate`` inside the event loop until true or timeout."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        if predicate():
            return
        if loop.time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


async def start_cluster(count, log_dir=None, **overrides):
    """One bootstrap + ``count - 1`` joiners, already started."""
    settings = dict(FAST)
    settings.update(overrides)
    boot = GossipNode(NodeConfig(seed=1, log_dir=log_dir, **settings))
    addr = await boot.start()
    nodes = [boot]
    for seed in range(2, count + 1):
        node = GossipNode(
            NodeConfig(seed=seed, bootstrap=(addr,), log_dir=log_dir, **settings)
        )
        await node.start()
        nodes.append(node)
    return nodes


async def stop_all(nodes):
    for node in nodes:
        await node.shutdown()


# ----------------------------------------------------------------------
# wire layer
# ----------------------------------------------------------------------


class TestWire:
    def test_datagram_roundtrip_is_canonical(self):
        obj = {"t": "ping", "from": 3, "nonce": 7}
        data = encode_datagram(obj)
        assert data == b'{"from":3,"nonce":7,"t":"ping"}'
        assert decode_datagram(data) == obj

    def test_oversized_datagram_refused(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_datagram({"t": "gossip", "payload": "x" * MAX_DATAGRAM_BYTES})

    @pytest.mark.parametrize(
        "junk", [b"\x00\x01\x02", b"[1,2,3]", b'{"no":"tag"}', b"{trunc"]
    )
    def test_junk_datagrams_rejected(self, junk):
        with pytest.raises(ProtocolError):
            decode_datagram(junk)

    def test_parse_endpoint(self):
        # `repro node --bootstrap` and `repro net-send --to` parse with
        # the sweep's parser, port-range check included.
        assert parse_endpoint("host:99") == ("host", 99)
        for bad in ("nohost", ":1", "host:x", "host:65536", "host:-1"):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)

    def test_address_book(self):
        book = AddressBook()
        book.learn(7, ("127.0.0.1", 4000))
        book.learn_all({8: ("127.0.0.1", 4001)})
        assert book.get(7) == ("127.0.0.1", 4000)
        assert 8 in book and len(book) == 2
        assert set(book.known_ids()) == {7, 8}
        book.forget(7)
        assert book.get(7) is None and 7 not in book

    def test_address_book_staleness(self):
        book = AddressBook()
        book.learn(7, ("127.0.0.1", 4000), now=10.0)
        book.learn_all({8: ("127.0.0.1", 4001)}, now=50.0)
        assert book.last_seen(7) == 10.0
        assert book.last_seen(9) is None
        # Only entries older than the cutoff are stale ...
        assert set(book.stale_ids(cutoff=20.0)) == {7}
        # ... unless protected (view member, pending partner).
        assert book.stale_ids(cutoff=20.0, protect=(7,)) == ()
        # Re-learning refreshes the stamp.
        book.learn(7, ("127.0.0.1", 4000), now=60.0)
        assert book.stale_ids(cutoff=20.0) == ()
        book.forget(7)
        assert book.last_seen(7) is None

    def test_send_publish_acked_by_fake_node(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))

        def responder():
            data, addr = sock.recvfrom(65536)
            obj = decode_datagram(data)
            assert obj["t"] == "publish" and obj["payload"] == "hi"
            sock.sendto(
                encode_datagram({"t": "publish_ack", "msg_id": "x-1"}), addr
            )

        thread = threading.Thread(target=responder, daemon=True)
        thread.start()
        try:
            msg_id = send_publish(
                sock.getsockname()[:2], "hi", timeout=10.0, retries=1
            )
        finally:
            thread.join(timeout=10)
            sock.close()
        assert msg_id == "x-1"

    def test_send_publish_gives_up_without_ack(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))  # bound but never answering
        try:
            with pytest.raises(ProtocolError, match="publish_ack"):
                send_publish(
                    sock.getsockname()[:2], "hi", timeout=0.05, retries=2
                )
        finally:
            sock.close()


# ----------------------------------------------------------------------
# the live node
# ----------------------------------------------------------------------


class TestNodeLifecycle:
    def test_join_welcome_seeds_views_both_ways(self):
        async def scenario():
            nodes = await start_cluster(2)
            boot, joiner = nodes
            await wait_until(
                lambda: joiner.cyclon.view.contains(boot.node_id)
                and boot.cyclon.view.contains(joiner.node_id)
            )
            assert joiner.addrs.get(boot.node_id) == boot.local_addr
            assert boot.addrs.get(joiner.node_id) is not None
            await stop_all(nodes)

        asyncio.run(scenario())

    def test_gossip_converges_five_nodes(self):
        async def scenario():
            nodes = await start_cluster(5)
            # Every node learns r-links and both d-links over real UDP.
            await wait_until(
                lambda: all(n.cyclon.view.size >= 2 for n in nodes)
                and all(
                    None not in n.vicinity.ring_neighbors() for n in nodes
                )
            )
            counts = [n.counters.get("recv.shuffle_response", 0) for n in nodes]
            assert all(c > 0 for c in counts)
            await stop_all(nodes)

        asyncio.run(scenario())

    def test_peer_down_after_missed_pongs(self):
        async def scenario():
            nodes = await start_cluster(2, ping_period=0.15, ping_timeout=0.1)
            boot, joiner = nodes
            await wait_until(lambda: boot.cyclon.view.contains(joiner.node_id))
            await joiner.shutdown()  # silently gone: no farewell datagram
            await wait_until(
                lambda: boot.counters.get("ping.peer_down", 0) >= 1
            )
            assert not boot.cyclon.view.contains(joiner.node_id)
            assert not boot.vicinity.view.contains(joiner.node_id)
            assert boot.addrs.get(joiner.node_id) is None
            await boot.shutdown()

        asyncio.run(scenario())

    def test_five_node_dissemination_delivers_everywhere(self, tmp_path):
        async def scenario():
            nodes = await start_cluster(5, log_dir=tmp_path)
            await wait_until(
                lambda: all(n.cyclon.view.size >= 2 for n in nodes)
            )
            msg_id = nodes[0].publish("smoke")
            await wait_until(
                lambda: all(msg_id in n.dissemination.seen for n in nodes)
            )
            # One more gossip round so the analyzer sees fresh views.
            await asyncio.sleep(0.2)
            await stop_all(nodes)
            return msg_id

        msg_id = asyncio.run(scenario())

        report = analyze_run(tmp_path)
        assert report.population == 5
        assert report.delivery_ratio == 1.0
        (message,) = report.messages
        assert message.msg_id == msg_id
        assert message.delivered == 5
        assert message.hop_histogram.get(0) == 1  # the origin
        assert message.predicted is not None
        assert message.predicted["delivery_ratio"] > 0.0
        assert message.hops_within_tolerance is not None
        text = render_net_report(report)
        assert "ratio 1.000" in text and "sim prediction" in text

    def test_pull_recovery_for_late_joiner(self):
        async def scenario():
            boot = GossipNode(NodeConfig(seed=1, **FAST))
            addr = await boot.start()
            msg_id = boot.publish("early")  # view empty: reaches nobody
            late = GossipNode(
                NodeConfig(seed=2, bootstrap=(addr,), pull_period=0.1, **FAST)
            )
            await late.start()
            await wait_until(lambda: msg_id in late.dissemination.seen)
            # Push gossip for the message ended before the joiner
            # existed; only §5 anti-entropy can have delivered it.
            assert late.dissemination.seen[msg_id] is None
            assert late.dissemination.store[msg_id] == (boot.node_id, "early")
            await stop_all([boot, late])

        asyncio.run(scenario())

    def test_stop_log_carries_counters(self, tmp_path):
        async def scenario():
            nodes = await start_cluster(2, log_dir=tmp_path)
            await wait_until(
                lambda: any(
                    n.counters.get("recv.shuffle_request") for n in nodes
                )
            )
            await stop_all(nodes)

        asyncio.run(scenario())
        events = []
        for path in tmp_path.glob("*.jsonl"):
            with open(path, encoding="utf-8") as handle:
                events.extend(json.loads(line) for line in handle if line.strip())
        stops = [e for e in events if e["event"] == "stop"]
        assert len(stops) == 2
        assert any(e["counters"].get("recv.shuffle_request") for e in stops)
        starts = [e for e in events if e["event"] == "start"]
        assert all("ring_id" in e and "addr" in e for e in starts)


# ----------------------------------------------------------------------
# hardening under loss: shuffle reaping, address eviction, clean stops
# ----------------------------------------------------------------------


class _SilentTransport:
    """Transport double: records sends, never delivers anything."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((data, addr))

    def is_closing(self):
        return False


def _standalone_node(**overrides):
    """A node with a peer in view and a fake transport — no sockets."""
    import time

    from repro.core.views import NodeDescriptor
    from repro.sim.node import NodeProfile

    node = GossipNode(NodeConfig(seed=1, **overrides))
    node.transport = _SilentTransport()
    node.local_addr = ("127.0.0.1", 1)
    peer_id = 0xBEEF
    node.cyclon.view.add(NodeDescriptor(peer_id, 0, NodeProfile(ring_ids=(5,))))
    node.addrs.learn(peer_id, ("127.0.0.1", 2), now=time.monotonic())
    return node, peer_id


class TestHardening:
    def test_pending_shuffle_reaped_under_total_loss(self):
        """A shuffle whose request the network ate must not pend forever.

        With loss=1.0 the request never leaves the host and the partner
        never answers; pings can't flag the partner either (they're
        dropped too, and ping_retries is huge here). Only the
        shuffle-timeout reaper can free the pending slot.
        """
        import time

        from repro.net.faults import FaultProfile, LinkFaults

        node, peer_id = _standalone_node(
            faults=FaultProfile(default=LinkFaults(loss=1.0)),
            fault_seed=1,
            shuffle_timeout=1.0,
            ping_retries=1000,
        )
        node._cyclon_round()
        assert node.cyclon.pending_partners() == (peer_id,)
        now = time.monotonic()
        node.ping_tick(now + 0.5)  # not yet overdue
        assert node.cyclon.pending_partners() == (peer_id,)
        node.ping_tick(now + 1.5)
        assert node.cyclon.pending_partners() == ()
        assert node.counters["shuffle.reaped"] == 1

    def test_answered_shuffle_is_not_reaped(self):
        import time

        node, peer_id = _standalone_node(shuffle_timeout=1.0)
        node._cyclon_round()
        # The response arrives: core state clears, and the reaper must
        # drop its stale timestamp instead of aborting anything.
        node.cyclon.abort_shuffle(peer_id)
        node.ping_tick(time.monotonic() + 5.0)
        assert node.counters.get("shuffle.reaped", 0) == 0
        assert node._pending_since == {}

    def test_stale_addresses_evicted_unless_protected(self):
        import time

        node, peer_id = _standalone_node(addr_ttl=1.0)
        stranger = 0xDEAD
        now = time.monotonic()
        node.addrs.learn(stranger, ("127.0.0.1", 3), now=now - 10.0)
        node.addrs.learn(peer_id, ("127.0.0.1", 2), now=now - 10.0)
        node.ping_tick(now)
        # The stranger (in no view) is gone; the view member survives.
        assert node.addrs.get(stranger) is None
        assert node.addrs.get(peer_id) is not None
        assert node.counters["addrs.evicted"] == 1

    def test_addr_ttl_zero_disables_eviction(self):
        import time

        node, _peer_id = _standalone_node(addr_ttl=0.0)
        stranger = 0xDEAD
        node.addrs.learn(stranger, ("127.0.0.1", 3), now=0.0)
        node.ping_tick(time.monotonic())
        assert node.addrs.get(stranger) is not None

    def test_shutdown_logs_final_views_once(self, tmp_path):
        async def scenario():
            node = GossipNode(NodeConfig(seed=1, log_dir=tmp_path, **FAST))
            await node.start()
            await node.shutdown()
            await node.shutdown()  # idempotent: no duplicate events

        asyncio.run(scenario())
        (path,) = tmp_path.glob("*.jsonl")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        finals = [e for e in events if e["event"] == "views" and e.get("final")]
        assert len(finals) == 1
        assert [e["event"] for e in events[-2:]] == ["views", "stop"]

    def test_sigterm_flushes_log_cleanly(self, tmp_path):
        """A SIGTERM'd `repro node` process ends its log with stop."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src
            if not env.get("PYTHONPATH")
            else os.pathsep.join((src, env["PYTHONPATH"]))
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "node", "--port", "0",
                "--seed", "5", "--run-for", "30",
                "--log-dir", str(tmp_path),
            ],
            env=env,
        )
        try:
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                logs = list(tmp_path.glob("*.jsonl"))
                if logs and "start" in logs[0].read_text():
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("node never wrote its start event")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        (path,) = tmp_path.glob("*.jsonl")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[-1]["event"] == "stop"
        assert any(
            e["event"] == "views" and e.get("final") for e in events
        )


# ----------------------------------------------------------------------
# analyzer on synthetic logs: hand-computable numbers
# ----------------------------------------------------------------------


class TestAnalyzerSyntheticLogs:
    def test_exact_numbers_on_flooding_chain(self, tmp_path):
        _chain_logs(tmp_path)
        report = analyze_run(tmp_path, sim_trials=5)
        assert report.population == 3
        (m,) = report.messages
        assert m.delivered == 3
        assert m.delivery_ratio == 1.0
        assert m.hop_histogram == {0: 1, 1: 1, 2: 1}
        assert m.mean_hops == 1.0
        assert m.max_hops == 2
        assert m.gossip_sends == 2
        assert m.msgs_per_node == pytest.approx(2 / 3)
        assert m.latency_seconds == pytest.approx(0.02)
        # Flooding over this frozen chain is deterministic: the sim
        # prediction must agree exactly.
        assert m.predicted["delivery_ratio"] == 1.0
        assert m.predicted["mean_hops"] == 1.0
        assert m.predicted["max_hops"] == 2
        assert m.hops_within_tolerance is True

    def test_partial_delivery_and_pull_tally(self, tmp_path):
        _chain_logs(tmp_path)
        # Node 3 recovered by pull instead (hop is null), and a fourth
        # node never delivered at all.
        write_log(
            tmp_path,
            3,
            [
                {"ts": 90.0, "node": 3, "event": "start",
                 "protocol": "flooding", "fanout": 1, "ring_id": 30},
                {"ts": 99.0, "node": 3, "event": "views", "cycle": 9,
                 "rlinks": [2], "dlinks": []},
                {"ts": 101.0, "node": 3, "event": "deliver", "msg_id": "m-1",
                 "origin": 1, "hop": None, "via": "pull"},
            ],
        )
        write_log(
            tmp_path,
            4,
            [
                {"ts": 90.0, "node": 4, "event": "start",
                 "protocol": "flooding", "fanout": 1, "ring_id": 40},
                {"ts": 99.0, "node": 4, "event": "views", "cycle": 9,
                 "rlinks": [], "dlinks": []},
            ],
        )
        report = analyze_run(tmp_path, sim_trials=5)
        assert report.population == 4
        (m,) = report.messages
        assert m.delivered == 3
        assert m.delivery_ratio == 0.75
        assert m.push_deliveries == 2
        assert m.pull_deliveries == 1
        assert report.delivery_ratio == 0.75

    def test_missing_views_skip_prediction(self, tmp_path):
        _chain_logs(tmp_path)
        write_log(
            tmp_path,
            5,
            [
                {"ts": 90.0, "node": 5, "event": "start",
                 "protocol": "flooding", "fanout": 1, "ring_id": 50},
                # no views event: the overlay cannot be reconstructed
            ],
        )
        report = analyze_run(tmp_path, sim_trials=5)
        (m,) = report.messages
        assert m.predicted is None
        assert m.hops_within_tolerance is None
        assert "sim prediction" not in render_net_report(report)

    def test_zero_sim_trials_skips_the_cross_check(self, tmp_path):
        _chain_logs(tmp_path)
        report = analyze_run(tmp_path, sim_trials=0)
        (m,) = report.messages
        assert m.delivery_ratio == 1.0  # observed side is unaffected
        assert m.predicted is None
        assert m.hops_within_tolerance is None
        assert "sim prediction" not in render_net_report(report)
        with pytest.raises(ConfigurationError, match="sim_trials"):
            analyze_run(tmp_path, sim_trials=-1)

    def test_empty_log_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no .jsonl"):
            analyze_run(tmp_path)

    def test_garbage_lines_skipped_with_count(self, tmp_path):
        """A node crashed mid-write must not take the analysis down."""
        _chain_logs(tmp_path)
        path = tmp_path / f"node-{1:012x}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 101.0, "node": 1, "event": "vi')  # truncated
            handle.write("\n[1, 2, 3]\n")  # not an object
            handle.write('{"ts": 101.0, "event": "no-node-key"}\n')
        report = analyze_run(tmp_path, sim_trials=5)
        assert report.skipped_lines == 3
        # The parseable telemetry still yields the full numbers.
        assert report.population == 3
        assert report.delivery_ratio == 1.0
        text = render_net_report(report)
        assert "skipped 3 unparseable" in text
        assert report.to_dict()["skipped_lines"] == 3

    def test_clean_logs_report_zero_skips(self, tmp_path):
        _chain_logs(tmp_path)
        report = analyze_run(tmp_path, sim_trials=5)
        assert report.skipped_lines == 0
        assert "unparseable" not in render_net_report(report)

    def test_push_only_vs_post_pull_ratios(self, tmp_path):
        _chain_logs(tmp_path)
        # Node 3's delivery becomes a pull recovery: push-only drops
        # to 2/3 while the post-pull ratio stays perfect.
        write_log(
            tmp_path,
            3,
            [
                {"ts": 90.0, "node": 3, "event": "start",
                 "protocol": "flooding", "fanout": 1, "ring_id": 30},
                {"ts": 99.0, "node": 3, "event": "views", "cycle": 9,
                 "rlinks": [2], "dlinks": []},
                {"ts": 101.0, "node": 3, "event": "deliver", "msg_id": "m-1",
                 "origin": 1, "hop": None, "via": "pull"},
            ],
        )
        report = analyze_run(tmp_path, sim_trials=5)
        (m,) = report.messages
        assert m.delivery_ratio == 1.0
        assert m.push_ratio == pytest.approx(2 / 3)
        assert report.push_delivery_ratio == pytest.approx(2 / 3)
        assert report.delivery_ratio == 1.0
        assert "push-only 0.667" in render_net_report(report)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestNetCli:
    def test_node_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "node", "--port", "7000", "--bootstrap", "127.0.0.1:7001",
                "--bootstrap", "127.0.0.1:7002", "--protocol", "randcast",
                "--run-for", "5", "--seed", "3",
            ]
        )
        assert args.port == 7000
        assert args.bootstrap == ["127.0.0.1:7001", "127.0.0.1:7002"]
        assert args.protocol == "randcast"
        assert args.run_for == 5.0

    def test_net_analyze_runs_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        _chain_logs(tmp_path)
        json_out = tmp_path / "report.json"
        assert (
            main(
                [
                    "net-analyze", str(tmp_path), "--sim-trials", "5",
                    "--expect-ratio", "1.0", "--json", str(json_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ratio 1.000" in out
        saved = json.loads(json_out.read_text())
        assert saved["delivery_ratio"] == 1.0

    def test_net_analyze_push_ratio_gate(self, tmp_path, capsys):
        from repro.cli import main

        _chain_logs(tmp_path)
        # All-push logs: the gate must fail (impairment didn't bite).
        with pytest.raises(SystemExit, match="not below"):
            main(["net-analyze", str(tmp_path), "--sim-trials", "5",
                  "--expect-push-ratio-below", "1.0"])
        # Turn node 3's delivery into a pull recovery: gate passes.
        write_log(
            tmp_path,
            3,
            [
                {"ts": 90.0, "node": 3, "event": "start",
                 "protocol": "flooding", "fanout": 1, "ring_id": 30},
                {"ts": 99.0, "node": 3, "event": "views", "cycle": 9,
                 "rlinks": [2], "dlinks": []},
                {"ts": 101.0, "node": 3, "event": "deliver", "msg_id": "m-1",
                 "origin": 1, "hop": None, "via": "pull"},
            ],
        )
        assert (
            main(["net-analyze", str(tmp_path), "--sim-trials", "5",
                  "--expect-ratio", "1.0",
                  "--expect-push-ratio-below", "1.0"])
            == 0
        )
        out = capsys.readouterr().out
        assert "pull closed the gap to 1.000" in out

    def test_net_analyze_ratio_gate_fails(self, tmp_path):
        from repro.cli import main

        _chain_logs(tmp_path)
        (tmp_path / f"node-{9:012x}.jsonl").write_text(
            json.dumps(
                {"ts": 90.0, "node": 9, "event": "start",
                 "protocol": "flooding", "fanout": 1, "ring_id": 90}
            )
            + "\n"
        )
        with pytest.raises(SystemExit, match="below"):
            main(["net-analyze", str(tmp_path), "--sim-trials", "5",
                  "--expect-ratio", "1.0"])
