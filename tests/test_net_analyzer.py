"""The indexed analyzer against the per-message rescan it replaced.

:func:`repro.net.analyzer.analyze_run` reads each log once into an
index; ``tests/analyzer_reference.py`` keeps the parent implementation
(load everything, rescan it per message) verbatim. These tests are
differential, not golden: on every log both accept, the two must return
an equal ``NetRunReport.to_dict()`` — on hand-written fixtures, on a
bench-shaped synthetic run and on hypothesis-generated logs that go
looking for the corners (tied and non-monotone timestamps, several
``start`` records, duplicate delivers, a ``msg_id`` published twice,
nodes without ``views``, one node spread over several files). What the
reference does *not* accept — a parseable record with a malformed field
crashed it — is pinned separately: counted in ``skipped_lines``, never
raised. The real-fleet differential rides on an existing fleet test
(``tests/test_net_fleet.py``), so nothing here sleeps, and only the
restart test opens sockets (two, one per incarnation).

The hypothesis budget is the active profile's (CI's ``analyzer-scaling``
job raises it with ``--hypothesis-profile=deep``).
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dissemination import PROTOCOLS
from repro.net import analyzer
from repro.net.analyzer import analyze_run, render_net_report, ring_convergence
from repro.net.node import GossipNode, NodeConfig, _last_publish_seq
from tests import analyzer_reference as reference
from tests.net_logs import (
    chain_logs,
    chain_run,
    converging_run,
    log_path,
    steady_run,
    write_lines,
    write_run,
)


def assert_same_report(log_dir, sim_trials):
    """Equal as values and, rendered, as bytes."""
    ours = analyze_run(log_dir, sim_trials=sim_trials, sim_seed=3)
    theirs = reference.analyze_run(log_dir, sim_trials=sim_trials, sim_seed=3)
    assert ours.to_dict() == theirs.to_dict()
    assert json.dumps(ours.to_dict()) == json.dumps(theirs.to_dict())
    assert render_net_report(ours) == render_net_report(theirs)
    return ours


# ----------------------------------------------------------------------
# differential: fixtures
# ----------------------------------------------------------------------


def _pulled_chain():
    """Node 3 recovers by pull, a fourth node never delivers."""
    run = chain_run()
    run[3][-1] = {"ts": 101.0, "node": 3, "event": "deliver", "msg_id": "m-1",
                  "origin": 1, "hop": None, "via": "pull"}
    run[4] = [
        {"ts": 90.0, "node": 4, "event": "start", "protocol": "flooding",
         "fanout": 1, "ring_id": 40},
        {"ts": 99.0, "node": 4, "event": "views", "rlinks": [], "dlinks": []},
    ]
    return run


def _chain_without_views():
    """A node that never reported views: no overlay, no prediction."""
    run = chain_run()
    run[5] = [{"ts": 90.0, "node": 5, "event": "start", "ring_id": 50}]
    return run


def _republished_chain():
    """The same ``msg_id`` published again (a restart before the fix):
    two messages, both tallying the merged records."""
    run = chain_run()
    run[1] += [
        {"ts": 95.0, "node": 1, "event": "start", "protocol": "ringcast",
         "fanout": 2, "ring_id": 15},
        {"ts": 105.0, "node": 1, "event": "publish", "msg_id": "m-1"},
        {"ts": 105.0, "node": 1, "event": "deliver", "msg_id": "m-1",
         "hop": 0},
        {"ts": 105.0, "node": 1, "event": "forward", "msg_id": "m-1",
         "targets": [2, 3]},
    ]
    return run


FIXTURES = {
    "chain": chain_run,
    "pulled-chain": _pulled_chain,
    "chain-without-views": _chain_without_views,
    "republished-chain": _republished_chain,
    "converging": converging_run,
    "regressing": lambda: converging_run(regress=True),
    "steady-6x40": lambda: steady_run(6, 40, seed=5),
    "steady-1x3": lambda: steady_run(1, 3),
    "steady-2x4": lambda: steady_run(2, 4),
}


@pytest.mark.parametrize("sim_trials", [0, 1, 5])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_reports_equal_the_reference(tmp_path, name, sim_trials):
    write_run(tmp_path, FIXTURES[name]())
    report = assert_same_report(tmp_path, sim_trials)
    assert report.skipped_lines == 0


def test_fixture_convergence_equals_the_reference_on_event_lists():
    """``ring_convergence`` keeps taking the per-node event lists."""
    for name in sorted(FIXTURES):
        events = FIXTURES[name]()
        ours = ring_convergence(events)
        theirs = reference.ring_convergence(events)
        assert (ours and ours.to_dict()) == (theirs and theirs.to_dict()), name


# ----------------------------------------------------------------------
# differential: generated logs
# ----------------------------------------------------------------------

NODE_IDS = [1, 2, 3, 7]
# Few distinct instants, as ints and as floats: ties, and records a file
# holds out of time order, are the common case rather than the rare one.
TS = st.sampled_from([0, 1, 1.0, 2, 2.5, 3, 3.0, 4.25, 5, 9.75])
MSG_IDS = st.sampled_from(["a-1", "a-2", "b-1"])
LINKS = st.lists(st.sampled_from(NODE_IDS + [99]), max_size=3)


def _record(event, required=(), **optional):
    return st.fixed_dictionaries(
        {"event": st.just(event), "ts": TS, "node": st.sampled_from(NODE_IDS),
         **dict(required)},
        optional=optional,
    )


RECORDS = st.one_of(
    _record(
        "start",
        ring_id=st.integers(0, 3),
        protocol=st.sampled_from(PROTOCOLS),
        fanout=st.integers(1, 3),
    ),
    _record("views", rlinks=LINKS, dlinks=LINKS, cycle=st.integers(0, 9)),
    _record("publish", {"msg_id": MSG_IDS}, payload=st.just("p")),
    _record(
        "deliver",
        {"msg_id": MSG_IDS},
        hop=st.none() | st.integers(0, 4),
        via=st.sampled_from(["push", "pull", "publish"]),
    ),
    _record("forward", {"msg_id": MSG_IDS}, targets=LINKS),
    _record("peer_down", peer=st.sampled_from(NODE_IDS)),
)
# A file may hold any node's records, so one node can span files and
# the order nodes first appear in is not the order of their IDs.
LOG_FILES = st.lists(st.lists(RECORDS, max_size=12), min_size=1, max_size=3)


@settings(deadline=None)
@given(files=LOG_FILES, sim_trials=st.sampled_from([0, 1, 5]))
def test_generated_reports_equal_the_reference(files, sim_trials):
    with tempfile.TemporaryDirectory() as scratch:
        for serial, records in enumerate(files):
            write_lines(Path(scratch) / f"file-{serial}.jsonl", records)
        assert_same_report(Path(scratch), sim_trials)
        by_node = {}
        for records in files:
            for record in records:
                by_node.setdefault(record["node"], []).append(record)
        ours = ring_convergence(by_node)
        theirs = reference.ring_convergence(by_node)
        assert (ours and ours.to_dict()) == (theirs and theirs.to_dict())


# ----------------------------------------------------------------------
# the overlay at publish time
# ----------------------------------------------------------------------


def _two_overlays(view_ts):
    """Flooding pair; node 1 reports ``rlinks=[2]`` then ``rlinks=[]``
    at ``view_ts``, and publishes at ts=10."""
    connected, cut_off = view_ts
    start = {"event": "start", "protocol": "flooding", "fanout": 1}
    return {
        1: [
            dict(start, ts=0.0, node=1, ring_id=1),
            {"ts": connected, "node": 1, "event": "views", "rlinks": [2]},
            {"ts": cut_off, "node": 1, "event": "views", "rlinks": []},
            {"ts": 10.0, "node": 1, "event": "publish", "msg_id": "m"},
        ],
        2: [
            dict(start, ts=0.0, node=2, ring_id=2),
            {"ts": 1.0, "node": 2, "event": "views", "rlinks": [1]},
        ],
    }


@pytest.mark.parametrize(
    "view_ts, reached",
    [
        ((2.0, 3.0), 0.5),  # in order: the later report counts
        ((2.0, 2.0), 0.5),  # tied: the later *record* counts
        # Clock stepped back: still the last record in file order with
        # ts <= publish, not the latest by time.
        ((5.0, 3.0), 0.5),
        ((5.0, 12.0), 1.0),  # second report is after the publish
        ((11.0, 12.0), 1.0),  # none precede the publish: the first
        ((12.0, 11.0), 1.0),  # ... in file order
    ],
)
def test_overlay_is_the_last_report_in_file_order(tmp_path, view_ts, reached):
    write_run(tmp_path, _two_overlays(view_ts))
    (message,) = assert_same_report(tmp_path, 1).messages
    assert message.predicted["delivery_ratio"] == reached


def test_no_sim_trials_reconstructs_no_overlay(tmp_path, monkeypatch):
    def refuse(**_kwargs):
        raise AssertionError("sim_trials=0 must not build an overlay")

    monkeypatch.setattr(analyzer, "OverlaySnapshot", refuse)
    write_run(tmp_path, steady_run(4, 8))
    report = analyze_run(tmp_path, sim_trials=0)
    assert len(report.messages) == 8
    assert all(m.predicted is None for m in report.messages)
    with pytest.raises(AssertionError, match="must not build"):
        analyze_run(tmp_path, sim_trials=1)


def test_fanout_zero_origin_is_reported_without_a_prediction(tmp_path):
    """A node may run F=0 (d-links only); the simulator has no F=0, and
    the reference raised ``ConfigurationError`` from ``disseminate``."""
    run = chain_run()
    for records in run.values():
        records[0]["fanout"] = 0
    write_run(tmp_path, run)
    (message,) = analyze_run(tmp_path, sim_trials=5).messages
    assert message.delivered == 3
    assert message.predicted is None and message.hops_within_tolerance is None


# ----------------------------------------------------------------------
# hostile input: count it, never raise
# ----------------------------------------------------------------------

# Appended to node 1's log of the flooding chain. "crashes" names what
# the reference raises on the line (None: it survives, some by luck).
MALFORMED = {
    "no-event": ('{"ts":101.0,"node":1,"msg_id":"m-1"}', KeyError),
    "views-without-ts": (
        '{"node":1,"event":"views","rlinks":[2],"dlinks":[]}', KeyError),
    "first-deliver-without-ts": (
        '{"node":2,"event":"deliver","msg_id":"m-1","hop":1}', KeyError),
    "ring-id-not-a-number": (
        '{"ts":91.0,"node":1,"event":"start","ring_id":"x"}', ValueError),
    "rlinks-not-ids": (
        '{"ts":99.5,"node":1,"event":"views","rlinks":["a"]}', ValueError),
    "ts-not-a-number": (
        '{"ts":"soon","node":1,"event":"views","rlinks":[2]}', ValueError),
    "targets-not-a-list": (
        '{"ts":101.0,"node":1,"event":"forward","msg_id":"m-1","targets":3}',
        TypeError),
    "hop-not-a-number": (
        '{"ts":99.0,"node":2,"event":"deliver","msg_id":"m-1","hop":"two"}',
        TypeError),
    "publish-without-msg-id": (
        '{"ts":101.0,"node":1,"event":"publish"}', KeyError),
    "msg-id-not-a-string": (
        '{"ts":101.0,"node":1,"event":"publish","msg_id":["m"]}', None),
    "node-infinite": ('{"ts":101.0,"node":Infinity,"event":"stop"}',
                      OverflowError),
    "unknown-protocol": (
        '{"ts":91.0,"node":1,"event":"start","protocol":"smoke-signals"}',
        Exception),
    "ts-nan": ('{"ts":NaN,"node":1,"event":"views","rlinks":[2]}', None),
    "ts-bool": ('{"ts":true,"node":1,"event":"views","rlinks":[2]}', None),
    "ts-too-large-for-a-float": (
        '{"ts":1%s,"node":1,"event":"views","rlinks":[2]}' % ("0" * 400),
        OverflowError),
    "hop-negative": (
        '{"ts":99.0,"node":2,"event":"deliver","msg_id":"m-1","hop":-1}',
        None),
    "hop-bool": (
        '{"ts":99.0,"node":2,"event":"deliver","msg_id":"m-1","hop":true}',
        None),
    "fanout-not-a-number": (
        '{"ts":91.0,"node":1,"event":"start","fanout":[3]}', TypeError),
    "event-not-a-string": ('{"ts":101.0,"node":1,"event":7}', None),
    "int-literal-too-long": (
        '{"ts":101.0,"node":1,"event":"stop","n":%s}' % ("9" * 5000),
        ValueError),
    "nested-too-deep": ("[" * 100_000, RecursionError),
    "not-an-object": ('"deliver"', None),
    "truncated": ('{"ts":101.0,"node":1,"event":"vi', None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_record_is_skipped_not_raised(tmp_path, name):
    line, crashes = MALFORMED[name]
    chain_logs(tmp_path)
    clean = analyze_run(tmp_path, sim_trials=5).to_dict()
    with open(log_path(tmp_path, 1), "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    if crashes is not None:
        with pytest.raises(crashes):
            reference.analyze_run(tmp_path, sim_trials=5)
    report = analyze_run(tmp_path, sim_trials=5)
    # Counted, and otherwise as if the line were not there.
    assert report.skipped_lines == 1
    assert "skipped 1 unparseable" in render_net_report(report)
    assert dict(report.to_dict(), skipped_lines=0) == clean


def test_malformed_records_do_not_count_toward_the_population(tmp_path):
    chain_logs(tmp_path)
    with open(log_path(tmp_path, 1), "a", encoding="utf-8") as handle:
        handle.write('{"node":4,"event":"views","rlinks":[1]}\n')  # no ts
    assert analyze_run(tmp_path, sim_trials=0).population == 3
    # ... while ring_convergence's caller names the population itself.
    events = chain_run()
    events[4] = [{"node": 4, "event": "views", "rlinks": [1]}]
    assert ring_convergence(events) is None  # node 4 has no start


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# Records that get past the parser and the node check, with anything at
# all in the fields the analyzer reads.
RECORD_LIKE = st.fixed_dictionaries(
    {"node": st.sampled_from([1, 2, 3, 4, "2", 2.5, None])},
    optional={
        "event": st.sampled_from(
            ["start", "views", "publish", "deliver", "forward", "stop"]
        )
        | JSON_VALUES,
        "ts": st.sampled_from([99.5, 100.5, 200]) | JSON_VALUES,
        "msg_id": st.sampled_from(["m-1", "m-2"]) | JSON_VALUES,
        "hop": JSON_VALUES,
        "targets": JSON_VALUES,
        "rlinks": JSON_VALUES,
        "dlinks": JSON_VALUES,
        "ring_id": JSON_VALUES,
        "protocol": st.sampled_from(PROTOCOLS) | JSON_VALUES,
        "fanout": st.integers(-1, 3) | JSON_VALUES,
    },
)
HOSTILE_LINES = st.lists(
    (JSON_VALUES | RECORD_LIKE).map(json.dumps) | st.text(max_size=40),
    min_size=1,
    max_size=8,
)


@settings(deadline=None)
@given(lines=HOSTILE_LINES, sim_trials=st.sampled_from([0, 2]))
def test_arbitrary_lines_never_raise(lines, sim_trials):
    with tempfile.TemporaryDirectory() as scratch:
        log_dir = Path(scratch)
        chain_logs(log_dir)
        with open(log_path(log_dir, 2), "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(" ".join(line.splitlines()) + "\n")
        report = analyze_run(log_dir, sim_trials=sim_trials)
        assert report.skipped_lines <= len(lines)
        assert {1, 2, 3} <= set(report.node_ids)
        json.dumps(report.to_dict())
        render_net_report(report)


# ----------------------------------------------------------------------
# a restarted node continues its message IDs
# ----------------------------------------------------------------------


class TestRestartedNodeIds:
    def test_appending_incarnation_continues_the_sequence(self, tmp_path):
        """Peers drop a reused ID as a duplicate, and the analyzer merges
        both publishes' records: the second payload was lost while the
        report read two full deliveries."""

        async def incarnation(append, payloads):
            node = GossipNode(
                NodeConfig(seed=5, log_dir=tmp_path, log_append=append)
            )
            await node.start()
            ids = [node.publish(payload) for payload in payloads]
            await node.shutdown()
            return ids

        first = asyncio.run(incarnation(False, ["a", "b"]))
        second = asyncio.run(incarnation(True, ["c"]))
        prefix = first[0].rsplit("-", 1)[0]
        assert first == [f"{prefix}-1", f"{prefix}-2"]  # format unchanged
        assert second == [f"{prefix}-3"]
        report = assert_same_report(tmp_path, 0)
        assert [m.msg_id for m in report.messages] == first + second
        assert all(m.delivered == 1 for m in report.messages)

    def test_sequence_survives_a_log_killed_mid_write(self, tmp_path):
        path = tmp_path / "node.jsonl"
        assert _last_publish_seq(path, "00ab-") == 0  # no file yet
        path.write_text(
            '{"event":"publish","msg_id":"00ab-2","node":171,"ts":1.0}\n'
            '{"event":"deliver","msg_id":"00ab-9","node":171,"ts":1.0}\n'
            '{"event":"publish","msg_id":"00cd-7","node":171,"ts":1.0}\n'
            '{"event":"publish","msg_id":"00ab-x","node":171,"ts":1.0}\n'
            '{"event":"publish","msg_id":["00ab-8"],"node":171,"ts":1.0}\n'
            '["publish"]\n'
            '{"event":"publish","msg_id":"00ab-4","node":171,"ts":2.0}\n'
            '{"event":"publish","msg_id":"00ab-5","no',
            encoding="utf-8",
        )
        assert _last_publish_seq(path, "00ab-") == 4
