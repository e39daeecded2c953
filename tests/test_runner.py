"""Tests for the regenerate-everything orchestrator."""

import hashlib

import pytest

from repro.experiments.figures import regenerate_all
from repro.experiments.scenarios import ScenarioRuns
from tests.conftest import QUICK_FIGURE_CONFIG

EXPECTED_NAMES = {
    "fig6",
    "fig7",
    "fig8",
    "fig9_kill01",
    "fig9_kill02",
    "fig9_kill05",
    "fig9_kill10",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
}

# sha256 of every rendered table (and of fig6.dat) at FIGURE_CONFIG.
# Each scenario run draws from its own RNG universes, so these bytes do
# not depend on which runs were computed first, in which process, or how
# the figures share them. The fig9/fig10 tables are kills of the static
# overlay that fig6-8 read.
TABLE_SHA256 = {
    "fig6": "f6ec6e9a3def5c56e1b120fdf2b64c0dbd45274367361d3295b83f0ab4b4421e",
    "fig7": "6801fe2fa4bf6e72c8cb445e106057970d02dd79d22b420528408f793e680d44",
    "fig8": "871d9e622de514dd2c9b31fa50520ae1fec513d3bae58cf08a5dc927cef287ce",
    "fig9_kill01": "267960814ba77d7980e9f6519628cb326d386896e13039a475e3af6bc79c044b",
    "fig9_kill02": "5cc57fea14018a82c05a7698ec1b717a94c4b5a9829b368d13340bc3283a68c1",
    "fig9_kill05": "fae6fb8482f0f6cc9a808a66f3c27c62e45f2ab16c3cba376e7477d0c55ad5fc",
    "fig9_kill10": "8fc3301e58046b084c4a987f9871898688ede4082b3fa5fd781f091c33106382",
    "fig10": "522ec745c166365d1a97560d52fd2106925150bf65ca9c847ee0e37eef8342f1",
    "fig11": "16eedc7d2b9bd738a58fce755458a23d70bbe8cd8d73cd03c84a2243a94c56ac",
    "fig12": "ad6d9f0cc592c69072d03bf183c6df768afc0387272aeb1c77d7376838d6111d",
    "fig13": "35a1a2dba69d888fd8bda7c0661fa5062aec6a6c68998354b1baa9dc55bfb6e2",
}
FIG6_DAT_SHA256 = (
    "daac6c224b5bdde2015d38034d2e7a9a15759925c7b3daf69cd90cf95603e607"
)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def tables(tmp_path_factory, figure_runs):
    out = tmp_path_factory.mktemp("results")
    progress_log = []
    result = regenerate_all(
        figure_runs,
        out_dir=out,
        progress=lambda name, secs: progress_log.append(name),
    )
    assert {
        name: sha256(text.encode("utf-8")) for name, text in result.items()
    } == TABLE_SHA256
    assert sha256((out / "fig6.dat").read_bytes()) == FIG6_DAT_SHA256
    return result, out, progress_log


class TestRegenerateAll:
    def test_produces_every_figure(self, tables):
        result, _out, _log = tables
        assert set(result) == EXPECTED_NAMES

    def test_tables_are_rendered_text(self, tables):
        result, _out, _log = tables
        assert "[fig6]" in result["fig6"]
        assert "fanout" in result["fig6"]
        assert "fig9@5%" in result["fig9_kill05"]

    def test_writes_output_files(self, tables):
        _result, out, _log = tables
        for name in EXPECTED_NAMES:
            assert (out / f"{name}.txt").exists(), name
        assert (out / "fig6.dat").exists()
        dat = (out / "fig6.dat").read_text()
        assert dat.startswith("# fanout")

    def test_progress_hook_called_per_step(self, tables):
        _result, _out, log = tables
        assert "fig6" in log
        assert "fig9" in log
        assert "fig13" in log

    def test_without_out_dir(self, tables, figure_runs):
        # The runs are computed by the fixture: this is instantaneous.
        result, _out, _log = tables
        assert regenerate_all(figure_runs) == result


class TestParallelRegeneration:
    """``workers > 1`` computes the runs on a process pool first; the
    rendered tables must be identical to serial."""

    def test_parallel_matches_serial(self):
        serial = regenerate_all(ScenarioRuns(QUICK_FIGURE_CONFIG))
        progress_log = []
        parallel = regenerate_all(
            ScenarioRuns(QUICK_FIGURE_CONFIG),
            workers=2,
            progress=lambda name, secs: progress_log.append(name),
        )
        assert serial == parallel
        assert progress_log[0] == "prefetch"
