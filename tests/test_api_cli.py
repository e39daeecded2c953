"""Tests for the high-level API facade and the CLI."""

import pytest

from repro.api import build_overlay, disseminate, run_experiment
from repro.cli import build_parser, main
from repro.common.errors import ConfigurationError
from repro.experiments.scenarios import ChurnOutcome, FanoutSweep


class TestBuildOverlay:
    def test_builds_each_protocol(self):
        for protocol in ("ringcast", "randcast"):
            snapshot = build_overlay(
                num_nodes=80, protocol=protocol, seed=2, warmup_cycles=40
            )
            assert snapshot.kind == protocol
            assert snapshot.population == 80

    def test_deterministic(self):
        a = build_overlay(num_nodes=60, seed=3, warmup_cycles=30)
        b = build_overlay(num_nodes=60, seed=3, warmup_cycles=30)
        assert a.rlinks == b.rlinks

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            build_overlay(num_nodes=60, protocol="smoke")


class TestDisseminate:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return build_overlay(num_nodes=100, seed=4, warmup_cycles=50)

    def test_default_policy_from_kind(self, snapshot):
        result = disseminate(snapshot, fanout=3, seed=1)
        assert result.complete

    def test_random_origin_when_unspecified(self, snapshot):
        a = disseminate(snapshot, fanout=2, seed=1)
        b = disseminate(snapshot, fanout=2, seed=2)
        assert a.origin != b.origin or a.per_hop_new != b.per_hop_new

    def test_accepts_rng_instance(self, snapshot):
        import random

        result = disseminate(snapshot, fanout=2, seed=random.Random(5))
        assert result.complete

    def test_explicit_origin(self, snapshot):
        result = disseminate(snapshot, fanout=2, origin=7, seed=1)
        assert result.origin == 7


class TestRunExperiment:
    def test_static_returns_sweep(self):
        sweep = run_experiment(
            scenario="static",
            protocol="ringcast",
            scale="tiny",
            seed=5,
            num_messages=3,
            fanouts=(2, 3),
            warmup_cycles=40,
            num_nodes=100,
        )
        assert isinstance(sweep, FanoutSweep)
        assert sweep.fanouts() == (2, 3)

    def test_catastrophic_scenario(self):
        sweep = run_experiment(
            scenario="catastrophic",
            protocol="ringcast",
            scale="tiny",
            kill_fraction=0.05,
            num_messages=3,
            fanouts=(3,),
            warmup_cycles=40,
            num_nodes=100,
        )
        assert sweep.runs[3][0].population == 95

    def test_churn_returns_outcome(self):
        outcome = run_experiment(
            scenario="churn",
            protocol="randcast",
            scale="tiny",
            num_messages=2,
            fanouts=(3,),
            warmup_cycles=30,
            num_nodes=80,
            churn_rate=0.02,
            churn_max_cycles=150,
            churn_networks=1,
        )
        assert isinstance(outcome, ChurnOutcome)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(scenario="apocalypse")


class TestRunSweepApi:
    def test_returns_aggregated_result(self):
        from repro.api import run_sweep
        from repro.experiments.sweep_results import SweepResult

        result = run_sweep(
            scenarios=("static",),
            protocols=("ringcast",),
            num_nodes=(40,),
            fanouts=(2, 3),
            replicates=1,
            num_messages=2,
            scale="tiny",
            seed=9,
            warmup_cycles=10,
        )
        assert isinstance(result, SweepResult)
        assert result.root_seed == 9
        assert len(result.trials) == 2
        assert result.cell("static", "ringcast", 40, 2).replicates == 1

    def test_rejects_unknown_scenario(self):
        from repro.api import run_sweep

        with pytest.raises(ConfigurationError):
            run_sweep(scenarios=("apocalypse",))


class TestCli:
    def test_parser_has_all_figures(self):
        parser = build_parser()
        text = parser.format_help()
        for name in (
            "fig6",
            "fig9",
            "fig13",
            "all",
            "demo",
            "sweep",
        ):
            assert name in text

    def test_sweep_backend_flags_parse(self):
        # --workers alone picks inline (1) or a process pool (more);
        # there is no --backend to disagree with it.
        parser = build_parser()
        assert parser.parse_args(["sweep", "--workers", "3"]).workers == 3
        assert parser.parse_args(["sweep"]).workers == 1
        assert not hasattr(parser.parse_args(["sweep"]), "backend")
        for backend in ("socket", "process", "inline"):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(["sweep", "--backend", backend])
            assert excinfo.value.code == 2, backend

    def test_sweep_worker_flags_parse(self, capsys):
        # The remote sweep worker is gone with the socket work queue.
        assert "sweep-worker" not in build_parser().format_help()
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-worker", "--connect", "127.0.0.1:7777"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_listen_without_socket_backend_rejected(self, capsys):
        # No backend opens a port, so --listen is no flag at all.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--listen", "127.0.0.1:7777", "--workers", "2"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_all_backend_rejects_socket(self):
        # `repro all` has no --backend at all: it only ever meant
        # "inline at one worker, a process pool otherwise", which
        # --workers says.
        parser = build_parser()
        for backend in ("socket", "process", "inline"):
            with pytest.raises(SystemExit):
                parser.parse_args(["all", "--backend", backend])
        assert parser.parse_args(["all", "--workers", "2"]).workers == 2

    @pytest.mark.parametrize("port", ["99999", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["net-send", "--to", "127.0.0.1:{port}"],
            ["node", "--bootstrap", "127.0.0.1:{port}"],
        ],
    )
    def test_net_commands_reject_out_of_range_ports(
        self, monkeypatch, argv, port
    ):
        # Both parse with repro.net.wire.parse_endpoint, before any
        # socket is opened.
        import socket

        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "socket", no_socket)
        with pytest.raises(ConfigurationError, match="out of range"):
            main([arg.format(port=port) for arg in argv])

    def test_sweep_backend_inline_end_to_end(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--scale",
                "tiny",
                "--seed",
                "4",
                "--protocols",
                "ringcast",
                "--nodes",
                "40",
                "--fanouts",
                "2",
                "--replicates",
                "1",
                "--messages",
                "2",
                "--warmup",
                "10",
                "--workers",
                "1",
                "--json",
                str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep.json").exists()

    def test_sweep_subcommand_prints_cells(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--scale",
                "tiny",
                "--seed",
                "4",
                "--protocols",
                "ringcast",
                "--nodes",
                "40",
                "--fanouts",
                "2,3",
                "--replicates",
                "1",
                "--messages",
                "2",
                "--warmup",
                "10",
                "--json",
                str(tmp_path / "sweep.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[sweep:static]" in out
        assert "ringcast" in out
        assert (tmp_path / "sweep.json").exists()

    def test_sweep_cache_resume(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--scale",
            "tiny",
            "--seed",
            "4",
            "--protocols",
            "ringcast",
            "--nodes",
            "40",
            "--fanouts",
            "2",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--warmup",
            "10",
            "--cache",
            str(tmp_path),
            "--verbose",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert "(cached)" not in first
        assert "(cached)" in second

    def test_fig6_runs_at_tiny_scale(self, capsys):
        code = main(["fig6", "--scale", "tiny", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[fig6]" in out
        assert "ringcast miss%" in out

    def test_fig8_reuses_fig6_cache(self, capsys):
        # Figs. 6 and 8 are views of the same static runs: RINGCAST
        # misses nothing in Fig. 6, so in Fig. 8 it reaches all N - 1
        # other nodes at every fanout.
        main(["fig8", "--scale", "tiny", "--seed", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "[fig8]"
        rows = [line.split() for line in lines[3:] if line.strip()]
        assert [row[0] for row in rows] == [str(f) for f in range(1, 9)]
        assert all(row[4] == "149" for row in rows)

    def test_out_directory_written(self, capsys, tmp_path):
        main(
            [
                "fig6",
                "--scale",
                "tiny",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert (tmp_path / "fig6.txt").exists()
        assert (tmp_path / "fig6.dat").exists()

    def test_fig7_reuses_static_cache(self, capsys):
        # Fig. 7 reads the static runs Fig. 6 does: RINGCAST reaches
        # everyone, so its not-reached% ends at 0 for every fanout.
        main(["fig7", "--scale", "tiny", "--seed", "3"])
        out = capsys.readouterr().out
        blocks = out.strip().split("\n\n")
        assert blocks[0] == "[fig7]"
        assert [block.splitlines()[0] for block in blocks[1:]] == [
            "fanout 2:",
            "fanout 3:",
            "fanout 5:",
        ]
        for block in blocks[1:]:
            assert block.splitlines()[1].endswith("ringcast not-reached%")
            assert block.splitlines()[-1].split()[-1] == "0"

    def test_fig9_out_matches_all_out(self, capsys, monkeypatch, tmp_path):
        # One table lists the figures, so `repro fig9 --out` writes the
        # same files, byte for byte, as `repro all --out`.
        import repro.cli
        from tests.conftest import QUICK_FIGURE_CONFIG

        monkeypatch.setattr(
            repro.cli, "scale_config", lambda scale, seed: QUICK_FIGURE_CONFIG
        )
        main(["fig9", "--out", str(tmp_path / "fig9")])
        main(["all", "--out", str(tmp_path / "all")])
        capsys.readouterr()
        fig9 = {path.name for path in (tmp_path / "fig9").iterdir()}
        assert fig9 == {
            "fig9_kill01.txt",
            "fig9_kill02.txt",
            "fig9_kill05.txt",
            "fig9_kill10.txt",
        }
        for name in fig9:
            assert (tmp_path / "fig9" / name).read_bytes() == (
                tmp_path / "all" / name
            ).read_bytes()

    def test_demo_runs(self, capsys):
        code = main(["demo", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RINGCAST" in out
        assert "RANDCAST" in out

    def test_theory_subcommand(self, capsys):
        code = main(["theory"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pi = 1 - exp(-F*pi)" in out
        assert out.count("\n") > 20

    def test_convergence_subcommand(self, capsys):
        code = main(["convergence", "--scale", "tiny", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "perfect VICINITY ring" in out
        assert "100" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
