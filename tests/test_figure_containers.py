"""Tests for figure data containers and sweep accessors (pure logic,
no simulation)."""

import pytest

from repro.dissemination.executor import DisseminationResult
from repro.experiments.figures import (
    EffectivenessFigure,
    MessageFigure,
)
from repro.experiments.scenarios import FanoutSweep
from repro.metrics.dissemination import EffectivenessStats


def stats(miss, complete):
    return EffectivenessStats(
        runs=4,
        mean_miss_ratio=miss,
        complete_fraction=complete,
        mean_hops=3.0,
        max_hops=4,
        mean_msgs_virgin=10.0,
        mean_msgs_redundant=5.0,
        mean_msgs_to_dead=0.0,
        mean_total_messages=15.0,
    )


def result(notified, population=10, hops=2):
    return DisseminationResult(
        origin=0,
        fanout=2,
        population=population,
        notified=notified,
        hops=hops,
        per_hop_new=(1, notified - 1) if notified > 1 else (1,),
        msgs_virgin=notified - 1,
        msgs_redundant=0,
        msgs_to_dead=0,
        missed_ids=tuple(range(notified, population)),
    )


class TestEffectivenessFigure:
    def test_series_accessors_align_with_fanouts(self):
        figure = EffectivenessFigure(
            label="x",
            fanouts=(2, 4),
            stats={
                "randcast": {2: stats(0.5, 0.0), 4: stats(0.25, 0.5)},
                "ringcast": {2: stats(0.0, 1.0), 4: stats(0.0, 1.0)},
            },
        )
        assert figure.miss_percent("randcast") == [50.0, 25.0]
        assert figure.complete_percent("ringcast") == [100.0, 100.0]

    def test_unknown_protocol_raises(self):
        figure = EffectivenessFigure(
            label="x", fanouts=(2,), stats={"randcast": {2: stats(0, 1)}}
        )
        with pytest.raises(KeyError):
            figure.miss_percent("carrier-pigeon")


class TestMessageFigure:
    def test_total_sums_components(self):
        figure = MessageFigure(
            label="x",
            fanouts=(1, 2),
            virgin={"ringcast": [9.0, 9.0]},
            redundant={"ringcast": [1.0, 9.0]},
            to_dead={"ringcast": [0.0, 2.0]},
        )
        assert figure.total("ringcast") == [10.0, 20.0]


class TestFanoutSweep:
    def test_add_and_merge(self):
        a = FanoutSweep(protocol="ringcast")
        a.add(2, [result(10)])
        b = FanoutSweep(protocol="ringcast")
        b.add(2, [result(9)])
        b.add(3, [result(10)])
        a.merge(b)
        assert a.fanouts() == (2, 3)
        assert len(a.runs[2]) == 2

    def test_stats_of_missing_fanout_is_empty(self):
        sweep = FanoutSweep(protocol="ringcast")
        assert sweep.stats(99).runs == 0

    def test_progress_of_missing_fanout(self):
        sweep = FanoutSweep(protocol="ringcast")
        assert sweep.progress(99) == ([], [], [])

    def test_stats_aggregates(self):
        sweep = FanoutSweep(protocol="x")
        sweep.add(2, [result(10), result(5)])
        cell = sweep.stats(2)
        assert cell.runs == 2
        assert cell.mean_miss_ratio == pytest.approx(0.25)
        assert cell.complete_fraction == 0.5


class TestMainModule:
    def test_python_dash_m_entrypoint(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fig6" in proc.stdout

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--replicates", "0"], "replicates must be >= 1"),
            (["--nodes", "1", "--scale", "tiny"], "num_nodes must be >= 3"),
            (
                ["--scenarios", "catastrophic", "--kill-fraction", "nan"],
                "'kill_fraction' expects a finite number",
            ),
            (["--diff", "a.json", "b.json", "--nodes", "5"], "--nodes"),
        ],
    )
    def test_configuration_error_is_one_line_exit_2(self, argv, message):
        # Like argparse's own usage errors: no traceback, status 2.
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro: error: ConfigurationError: ")
        assert message in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
