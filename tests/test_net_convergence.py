"""Tests for the live-network ring-convergence metric: completeness of
the VICINITY ring over time, reconstructed from the nodes' periodic
``views`` JSONL events (the live twin of the paper's Fig. 4 curve),
plus the ``repro net-analyze --expect-converged-by`` CI gate.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.net.analyzer import ConvergenceReport, analyze_run, ring_convergence
from tests.net_logs import converging_run, ring_neighbors, write_run


def converging_cluster(log_dir: Path, nodes=(1, 2, 3, 4), regress=False):
    write_run(log_dir, converging_run(nodes, regress))


def events_of(records_by_node):
    return {node: list(records) for node, records in records_by_node.items()}


class TestRingConvergence:
    def test_converges_at_first_sustained_perfect_sample(self, tmp_path):
        converging_cluster(tmp_path)
        report = analyze_run(tmp_path).convergence
        assert isinstance(report, ConvergenceReport)
        assert report.population == 4
        assert report.converged_at == 5.0
        assert report.final_completeness == 1.0
        # The half-formed ring at ts=1 scores below 1 but above 0.
        by_ts = dict(report.samples)
        assert 0.0 < by_ts[1.0] < 1.0
        assert by_ts[5.0] == 1.0

    def test_regression_resets_convergence(self, tmp_path):
        converging_cluster(tmp_path, regress=True)
        report = analyze_run(tmp_path).convergence
        assert report is not None
        # The ring was perfect at ts=5 but broke at ts=8: convergence
        # must be sustained through the last sample to count.
        assert report.converged_at is None
        assert report.final_completeness < 1.0

    def test_missing_start_event_yields_none(self):
        events = {
            1: [
                {"event": "start", "node": 1, "ts": 0.0, "ring_id": 1},
                {"event": "views", "node": 1, "ts": 1.0, "dlinks": [2]},
            ],
            2: [
                # No start event: the ring sequence ID is unknown, so
                # completeness against the true ring is undefined.
                {"event": "views", "node": 2, "ts": 1.0, "dlinks": [1]},
            ],
        }
        assert ring_convergence(events) is None

    def test_no_views_events_yields_none(self):
        events = {
            1: [{"event": "start", "node": 1, "ts": 0.0, "ring_id": 1}],
        }
        assert ring_convergence(events) is None

    def test_samples_are_start_relative(self, tmp_path):
        nodes = (1, 2, 3, 4)
        ring = sorted(nodes)
        records = {}
        for node in nodes:
            full = ring_neighbors(node, ring)
            records[node] = [
                {"event": "start", "node": node, "ts": 100.0, "ring_id": node},
                {"event": "views", "node": node, "ts": 103.0,
                 "dlinks": full, "rlinks": full},
            ]
        write_run(tmp_path, records)
        report = analyze_run(tmp_path).convergence
        assert report.converged_at == 3.0
        assert report.samples[0][0] == 3.0

    def test_report_dict_and_rendering(self, tmp_path):
        from repro.net.analyzer import render_net_report

        converging_cluster(tmp_path)
        net_report = analyze_run(tmp_path)
        payload = net_report.to_dict()
        assert payload["convergence"]["converged_at"] == 5.0
        text = render_net_report(net_report)
        assert "ring complete after 5.0 s" in text


class TestConvergenceGate:
    def test_gate_passes_within_deadline(self, tmp_path, capsys):
        converging_cluster(tmp_path)
        assert (
            main(["net-analyze", str(tmp_path), "--expect-converged-by", "6"])
            == 0
        )
        assert "converged after 5.0 s <= 6.0 s" in capsys.readouterr().out

    def test_gate_fails_past_deadline(self, tmp_path):
        converging_cluster(tmp_path)
        with pytest.raises(SystemExit, match="later than the required"):
            main(["net-analyze", str(tmp_path), "--expect-converged-by", "3"])

    def test_gate_fails_on_regression(self, tmp_path):
        converging_cluster(tmp_path, regress=True)
        with pytest.raises(SystemExit, match="never fully converged"):
            main(["net-analyze", str(tmp_path), "--expect-converged-by", "60"])

    def test_gate_fails_without_convergence_data(self, tmp_path):
        write_run(
            tmp_path,
            {1: [{"event": "start", "node": 1, "ts": 0.0, "ring_id": 1}]},
        )
        with pytest.raises(SystemExit, match="no ring-convergence data"):
            main(["net-analyze", str(tmp_path), "--expect-converged-by", "60"])
