"""Tests for the experiment service: sweep history store, adaptive
replicate allocation, spec diffing, and the HTML report.

The history store carries the same hardening contract as the snapshot
store — a truncated, bit-flipped, or otherwise malformed entry is a
cache miss, never a crash — and a history hit performs zero trial
executions (pinned here by monkeypatching the executor to explode).
Adaptive runs must be deterministic and per-cell prefix byte-identical
to fixed-replicate runs of the same depth.
"""

import json
import shutil
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api
from repro.api import run_adaptive_sweep, run_sweep, run_sweep_diff
from repro.common import castore
from repro.common.errors import ConfigurationError
from repro.experiments.adaptive import (
    AdaptiveSettings,
    run_adaptive_sweep as run_adaptive_core,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.history import (
    diff_sweeps,
    find_history_entry,
    gc_history_store,
    history_address,
    history_mode,
    list_history,
    load_history_entry,
    render_sweep_diff,
    store_history_entry,
)
from repro.experiments.htmlreport import (
    render_html_report,
    source_from_entry,
    write_html_report,
)
from repro.experiments.sweep import TrialListGrid
from repro.experiments.sweep import run_sweep as run_sweep_core
from repro.experiments.sweep_results import TrialSpec, config_fingerprint
from repro.experiments.sweep_spec import SweepSpec, flat_spec, scenario
from tests.store_defects import FILE_DEFECTS

HISTORY_MAGIC = b"RHISTZ1\n"  # pinned: the on-disk format, not an import

BASE = ExperimentConfig(num_nodes=40, warmup_cycles=10, seed=5)

SMALL_SPEC = SweepSpec(
    scenarios=("static",),
    protocols=("randcast", "ringcast"),
    num_nodes=(40,),
    fanouts=(2, 3),
    replicates=2,
    num_messages=2,
)

DATA_DIR = Path(__file__).parent / "data"


def small_result():
    return run_sweep_core(SMALL_SPEC, base_config=BASE, root_seed=5)


@pytest.fixture(scope="module")
def result():
    return small_result()


def store_small(tmp_path, result, mode=None, adaptive=None):
    mode = mode if mode is not None else history_mode()
    return store_history_entry(
        tmp_path,
        SMALL_SPEC,
        result,
        5,
        config_fingerprint(BASE),
        mode,
        adaptive=adaptive,
    )


class TestHistoryStore:
    def test_round_trip(self, tmp_path, result):
        path = store_small(tmp_path, result)
        assert path.exists()
        entry = load_history_entry(
            tmp_path, SMALL_SPEC, 5, config_fingerprint(BASE), history_mode()
        )
        assert entry is not None
        assert entry.result.to_json() == result.to_json()
        assert entry.fingerprint == SMALL_SPEC.fingerprint()
        assert entry.root_seed == 5

    def test_identity_mismatch_is_a_miss(self, tmp_path, result):
        store_small(tmp_path, result)
        digest = config_fingerprint(BASE)
        # Different seed, different config, different mode: all misses.
        assert load_history_entry(tmp_path, SMALL_SPEC, 6, digest, history_mode()) is None
        assert (
            load_history_entry(tmp_path, SMALL_SPEC, 5, "0" * 16, history_mode())
            is None
        )
        assert (
            load_history_entry(
                tmp_path, SMALL_SPEC, 5, digest, history_mode(overlay_reuse="grid")
            )
            is None
        )
        other_spec = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2,),
            replicates=2,
            num_messages=2,
        )
        assert (
            load_history_entry(tmp_path, other_spec, 5, digest, history_mode())
            is None
        )

    def test_adaptive_mode_never_answers_fixed_lookup(self, tmp_path, result):
        digest = config_fingerprint(BASE)
        adaptive_mode = history_mode(
            adaptive=AdaptiveSettings(ci_width=1.0, max_replicates=4).to_dict()
        )
        store_small(tmp_path, result, mode=adaptive_mode)
        assert (
            load_history_entry(tmp_path, SMALL_SPEC, 5, digest, history_mode())
            is None
        )
        assert (
            load_history_entry(tmp_path, SMALL_SPEC, 5, digest, adaptive_mode)
            is not None
        )

    def test_address_is_deterministic(self):
        digest = config_fingerprint(BASE)
        a = history_address(SMALL_SPEC, 5, digest, history_mode())
        b = history_address(SMALL_SPEC, 5, digest, history_mode())
        assert a == b
        assert a != history_address(SMALL_SPEC, 6, digest, history_mode())

    def test_list_newest_first_and_junk_skipped(self, tmp_path, result):
        import os

        path = store_small(tmp_path, result)
        other_mode = history_mode(overlay_reuse="grid")
        other = store_small(tmp_path, result, mode=other_mode)
        os.utime(path, (1_000_000, 1_000_000))
        os.utime(other, (2_000_000, 2_000_000))
        (tmp_path / "sweep_junk.json").write_text("{not json", encoding="utf-8")
        entries = list_history(tmp_path)
        assert [e.path for e in entries] == [other, path]

    def test_find_by_prefix_and_ambiguity(self, tmp_path, result):
        store_small(tmp_path, result)
        store_small(tmp_path, result, mode=history_mode(overlay_reuse="grid"))
        entries = list_history(tmp_path)
        found = find_history_entry(tmp_path, entries[0].address[:8])
        assert found.address == entries[0].address
        # The exact label `history list` prints resolves too (the
        # fingerprint alone is ambiguous here, the label never is).
        found = find_history_entry(tmp_path, entries[1].label)
        assert found.address == entries[1].address
        # Both entries share the spec fingerprint: a fingerprint ref is
        # ambiguous, an unknown ref is an error.
        with pytest.raises(ConfigurationError):
            find_history_entry(tmp_path, SMALL_SPEC.fingerprint())
        with pytest.raises(ConfigurationError):
            find_history_entry(tmp_path, "zzzz")

    def test_gc_keeps_newest_under_any_budget(self, tmp_path, result):
        import os

        paths = []
        for index, mode in enumerate(
            (
                history_mode(),
                history_mode(overlay_reuse="grid"),
                history_mode(core="object"),
            )
        ):
            path = store_small(tmp_path, result, mode=mode)
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            paths.append(path)
        removed = gc_history_store(tmp_path, 0)
        assert removed == 2
        assert [e.path for e in list_history(tmp_path)] == [paths[-1]]
        with pytest.raises(ConfigurationError):
            gc_history_store(tmp_path, -1)


class TestHistoryHardening:
    @pytest.mark.parametrize("defect", sorted(FILE_DEFECTS))
    def test_each_defect_class_is_a_miss(self, tmp_path, result, defect):
        """The shared layer's defect classes (fuzzed in test_castore),
        once each through this store's two public loaders."""
        path = store_small(tmp_path, result)
        corrupt = FILE_DEFECTS[defect]
        path.write_bytes(corrupt(path.read_bytes(), HISTORY_MAGIC))
        assert (
            load_history_entry(
                tmp_path, SMALL_SPEC, 5, config_fingerprint(BASE), history_mode()
            )
            is None
        )
        assert list_history(tmp_path) == []

    def test_truncation_is_a_miss(self, tmp_path, result):
        path = store_small(tmp_path, result)
        raw = path.read_bytes()
        for cut in (0, 1, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            assert (
                load_history_entry(
                    tmp_path, SMALL_SPEC, 5, config_fingerprint(BASE), history_mode()
                )
                is None
            ), f"truncation at {cut} bytes must be a miss"

    @settings(
        max_examples=25,
        deadline=None,
        # The entry file is rewritten from the pristine bytes on every
        # example, so sharing one tmp_path across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bit_flips_never_crash(self, tmp_path, result, data):
        # Store exactly once per test invocation: the entry embeds a
        # wall-clock `created` stamp, so re-storing per example would
        # vary the file length and with it the draw bounds below.
        existing = sorted(tmp_path.glob("sweep_*.json"))
        path = existing[0] if existing else store_small(tmp_path, result)
        raw = bytearray(path.read_bytes())
        position = data.draw(st.integers(0, len(raw) - 1))
        bit = data.draw(st.integers(0, 7))
        raw[position] ^= 1 << bit
        victim = tmp_path / "flipped" / path.name
        victim.parent.mkdir(exist_ok=True)
        victim.write_bytes(bytes(raw))
        entry = load_history_entry(
            tmp_path / "flipped",
            SMALL_SPEC,
            5,
            config_fingerprint(BASE),
            history_mode(),
        )
        # A flipped bit must never surface corrupt data: either the
        # integrity hash catches it (miss) or the flip landed in a
        # part of the file that decodes back to the identical result.
        if entry is not None:
            assert entry.result.to_json() == result.to_json()

    def test_tampered_result_payload_is_a_miss(self, tmp_path, result):
        """Edits that keep the file well-formed *and* correctly sealed
        get past the shared layer; this store's own validation of the
        payload must still refuse them."""
        path = store_small(tmp_path, result)
        pristine = path.read_bytes()
        for tamper in (
            lambda entry: entry["result"].update(root_seed=99),
            lambda entry: entry["result"]["trials"][0].update(
                mean_hops=float("nan")
            ),
            lambda entry: entry.update(created="yesterday"),
        ):
            path.write_bytes(pristine)
            entry = castore.read_entry(path, HISTORY_MAGIC)
            tamper(entry)
            castore.write_entry(
                path, castore.seal_entry(entry), HISTORY_MAGIC, newline=False
            )
            assert castore.read_entry(path, HISTORY_MAGIC) is not None
            assert (
                load_history_entry(
                    tmp_path,
                    SMALL_SPEC,
                    5,
                    config_fingerprint(BASE),
                    history_mode(),
                )
                is None
            )

    def test_compressed_garbage_is_a_miss(self, tmp_path, result):
        path = store_small(tmp_path, result)
        path.write_bytes(b"RHISTZ1\n" + zlib.compress(b"not json at all"))
        assert (
            load_history_entry(
                tmp_path, SMALL_SPEC, 5, config_fingerprint(BASE), history_mode()
            )
            is None
        )


def pure_hit_store(fixture, tmp_path, monkeypatch):
    """A copy of a committed history store (a hit bumps the entry's
    mtime), with both trial executors made to fail: any answer must
    come from the store."""

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("history address moved: entry missed")

    monkeypatch.setattr(repro.api, "_run_sweep", explode)
    monkeypatch.setattr(repro.api, "_run_adaptive", explode)
    return shutil.copytree(DATA_DIR / "stores" / fixture, tmp_path / "store")


class TestHistoryFacade:
    SPEC = flat_spec(
        scenarios=("static",),
        protocols=("randcast",),
        num_nodes=(40,),
        fanouts=(2,),
        replicates=2,
        num_messages=2,
    )
    KW = dict(warmup_cycles=10)

    def test_identical_rerun_executes_zero_trials(self, tmp_path, monkeypatch):
        first = run_sweep(self.SPEC, history=tmp_path, **self.KW)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("history hit must not execute trials")

        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        second = run_sweep(self.SPEC, history=tmp_path, **self.KW)
        assert second.to_json() == first.to_json()

    def test_parent_written_plain_name_entry_is_a_pure_hit(
        self, tmp_path, monkeypatch, capsys
    ):
        """``tests/data/stores/history_plain_name/`` was written at
        commit ``f335329`` (before ``SweepGrid`` was removed) by exactly
        this plain-name call. The address hashes the spec fingerprint,
        so the entry answers only if a plain-name grid still resolves
        to ``flat_spec`` with nothing of seed/scale/overrides baked in
        — from the facade and from a bare-flags ``repro sweep``."""
        store = shutil.copytree(
            DATA_DIR / "stores" / "history_plain_name", tmp_path / "store"
        )  # a copy: a hit bumps the entry's mtime
        (entry,) = list_history(store)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("history address moved: entry missed")

        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        result = run_sweep(
            flat_spec(
                scenarios=("static", "catastrophic"),
                protocols=("ringcast",),
                num_nodes=(40,),
                fanouts=(2,),
                replicates=1,
                num_messages=2,
            ),
            scale="tiny",
            seed=5,
            warmup_cycles=10,
            history=store,
        )
        assert [t.spec.key for t in result.trials] == [
            "sweep/static/ringcast/n40/f2/m2/kill0.0/churn0.0/cm4/p1/rep0",
            "sweep/catastrophic/ringcast/n40/f2/m2/kill0.05/churn0.0/cm4/p1/rep0",
        ]
        from repro.cli import main

        out = tmp_path / "cli.json"
        argv = "sweep --scale tiny --seed 5 --scenarios static,catastrophic"
        argv += " --protocols ringcast --nodes 40 --fanouts 2 --replicates 1"
        argv += f" --messages 2 --warmup 10 --history {store} --json {out}"
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == result.to_json() + "\n"
        assert [e.address for e in list_history(store)] == [entry.address]

    def test_parent_written_param_flag_entry_is_a_pure_hit(
        self, tmp_path, monkeypatch, capsys
    ):
        """``tests/data/stores/history_param_flags/`` was written by the
        ``repro sweep`` below before the grid keywords were removed
        (8.0.0). Parameter flags bake seed, scale and overrides into
        the spec, so the facade answers from the entry only with that
        same spec."""
        store = pure_hit_store("history_param_flags", tmp_path, monkeypatch)
        (entry,) = list_history(store)
        out = tmp_path / "cli.json"
        argv = "sweep --scale tiny --seed 5 --scenarios static,catastrophic"
        argv += " --protocols ringcast --nodes 40 --fanouts 2 --replicates 1"
        argv += " --messages 2 --warmup 10 --kill-fraction 0.05,0.1"
        argv += f" --history {store} --json {out}"
        from repro.cli import main

        assert main(argv.split()) == 0
        capsys.readouterr()
        result = run_sweep(
            SweepSpec(
                scenarios=(
                    "static",
                    scenario("catastrophic", kill_fraction=[0.05, 0.1]),
                ),
                protocols=("ringcast",),
                num_nodes=(40,),
                fanouts=(2,),
                replicates=1,
                num_messages=2,
                seed=5,
                scale="tiny",
                config_overrides={"warmup_cycles": 10},
            ),
            history=store,
        )
        assert [t.spec.key for t in result.trials] == [
            "sweep/static/ringcast/n40/f2/m2/kill0.0/churn0.0/cm1/p1/rep0",
            "sweep/catastrophic/ringcast/n40/f2/m2/kill0.05/churn0.0/cm1/p1/rep0",
            "sweep/catastrophic/ringcast/n40/f2/m2/kill0.1/churn0.0/cm1/p1/rep0",
        ]
        assert out.read_text(encoding="utf-8") == result.to_json() + "\n"
        assert [e.address for e in list_history(store)] == [entry.address]

    def test_parent_written_adaptive_entry_is_a_pure_hit(
        self, tmp_path, monkeypatch, capsys
    ):
        """``tests/data/stores/history_adaptive/`` was written by the
        bare-flag ``repro sweep --adaptive`` below before the grid
        keywords were removed (8.0.0)."""
        store = pure_hit_store("history_adaptive", tmp_path, monkeypatch)
        (entry,) = list_history(store)
        out = tmp_path / "cli.json"
        argv = "sweep --scale tiny --seed 5 --scenarios static"
        argv += " --protocols ringcast,randcast --nodes 40 --fanouts 2"
        argv += " --replicates 2 --messages 2 --warmup 10"
        argv += " --adaptive --ci-width 0.5 --max-replicates 3"
        argv += f" --history {store} --json {out}"
        from repro.cli import main

        assert main(argv.split()) == 0
        assert "trials executed: 5 (fixed run at the cap: 6)" in (
            capsys.readouterr().out
        )
        outcome = run_adaptive_sweep(
            flat_spec(
                scenarios=("static",),
                protocols=("ringcast", "randcast"),
                num_nodes=(40,),
                fanouts=(2,),
                replicates=2,
                num_messages=2,
            ),
            scale="tiny",
            seed=5,
            warmup_cycles=10,
            ci_width=0.5,
            max_replicates=3,
            history=store,
        )
        assert outcome.rounds == 2
        assert sorted(c.replicates for c in outcome.allocation) == [2, 3]
        expected = outcome.result.to_json() + "\n"
        assert out.read_text(encoding="utf-8") == expected
        assert [e.address for e in list_history(store)] == [entry.address]

    def test_different_seed_misses(self, tmp_path):
        first = run_sweep(self.SPEC, history=tmp_path, **self.KW)
        other = run_sweep(self.SPEC, history=tmp_path, seed=7, **self.KW)
        assert other.root_seed != first.root_seed
        assert len(list_history(tmp_path)) == 2

    def test_adaptive_hit_restores_outcome(self, tmp_path, monkeypatch):
        kw = dict(self.KW, ci_width=0.5, max_replicates=4)
        first = run_adaptive_sweep(self.SPEC, history=tmp_path, **kw)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("adaptive history hit must not run")

        monkeypatch.setattr(repro.api, "_run_adaptive", explode)
        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        second = run_adaptive_sweep(self.SPEC, history=tmp_path, **kw)
        assert second.result.to_json() == first.result.to_json()
        assert second.to_history_dict() == first.to_history_dict()


class TestAdaptive:
    GRID = flat_spec(
        scenarios=("static",),
        protocols=("randcast", "ringcast"),
        num_nodes=(40,),
        fanouts=(2, 3),
        replicates=2,
        num_messages=2,
    )

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveSettings(ci_width=0.0, max_replicates=4)
        with pytest.raises(ConfigurationError):
            AdaptiveSettings(ci_width=1.0, max_replicates=1)
        with pytest.raises(ConfigurationError):
            AdaptiveSettings(ci_width=1.0, max_replicates=4, metric="latency")

    def test_fewer_trials_than_fixed_at_cap(self):
        settings_ = AdaptiveSettings(ci_width=50.0, max_replicates=6)
        outcome = run_adaptive_core(
            self.GRID, settings_, base_config=BASE, root_seed=5
        )
        # A sloppy 50-point target is met by the initial batch: no cell
        # should grow, so the run stays far below the fixed-cap cost.
        assert outcome.total_trials == len(self.GRID.expand())
        assert outcome.total_trials < outcome.fixed_trials
        assert outcome.converged

    def test_deterministic(self):
        settings_ = AdaptiveSettings(ci_width=1.0, max_replicates=4)
        a = run_adaptive_core(self.GRID, settings_, base_config=BASE, root_seed=5)
        b = run_adaptive_core(self.GRID, settings_, base_config=BASE, root_seed=5)
        assert a.result.to_json() == b.result.to_json()
        assert a.to_history_dict() == b.to_history_dict()

    def test_prefix_byte_identical_to_fixed_run(self):
        settings_ = AdaptiveSettings(ci_width=1.0, max_replicates=5)
        outcome = run_adaptive_core(
            self.GRID, settings_, base_config=BASE, root_seed=5
        )
        fixed = run_sweep_core(
            flat_spec(
                scenarios=("static",),
                protocols=("randcast", "ringcast"),
                num_nodes=(40,),
                fanouts=(2, 3),
                replicates=5,
                num_messages=2,
            ),
            base_config=BASE,
            root_seed=5,
        )
        fixed_by_key = {t.spec.key: t for t in fixed.trials}
        assert outcome.total_trials >= len(self.GRID.expand())
        for trial in outcome.result.trials:
            twin = fixed_by_key[trial.spec.key]
            assert json.dumps(trial.to_dict(), sort_keys=True) == json.dumps(
                twin.to_dict(), sort_keys=True
            ), f"adaptive trial {trial.spec.key} diverged from fixed run"

    def test_allocation_respects_cap_and_reports_ci(self):
        settings_ = AdaptiveSettings(ci_width=0.001, max_replicates=3)
        outcome = run_adaptive_core(
            self.GRID, settings_, base_config=BASE, root_seed=5
        )
        assert all(cell.replicates <= 3 for cell in outcome.allocation)
        # An impossibly tight target drives every noisy cell to the cap.
        assert any(cell.replicates == 3 for cell in outcome.allocation)
        for cell in outcome.allocation:
            if not cell.converged:
                assert cell.ci95 is not None and cell.ci95 > 0.001

    def test_golden_allocation_pinned(self):
        settings_ = AdaptiveSettings(ci_width=1.0, max_replicates=4)
        outcome = run_adaptive_core(
            self.GRID, settings_, base_config=BASE, root_seed=5
        )
        golden = DATA_DIR / "golden_adaptive_allocation.json"
        payload = json.dumps(outcome.to_history_dict(), indent=2, sort_keys=True)
        assert payload + "\n" == golden.read_text(encoding="utf-8")

    def test_trial_list_grid_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            TrialListGrid(())
        spec = TrialSpec(
            scenario="static", protocol="ringcast", num_nodes=40, fanout=2
        )
        with pytest.raises(ConfigurationError):
            TrialListGrid((spec, spec))


class TestDiff:
    def test_diff_flags_distinct_and_unmatched(self, result):
        other_spec = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2, 4),
            replicates=2,
            num_messages=2,
        )
        other = run_sweep_core(other_spec, base_config=BASE, root_seed=5)
        diff = diff_sweeps(result, other, label_a="A", label_b="B")
        matched_keys = {(d.a.protocol, d.a.fanout) for d in diff.matched}
        assert matched_keys == {("randcast", 2)}

        def describe(cell):
            return f"{cell.scenario}/{cell.protocol}/n{cell.num_nodes}/f{cell.fanout}"

        assert [describe(c) for c in diff.only_a] == [
            "static/randcast/n40/f3",
            "static/ringcast/n40/f2",
            "static/ringcast/n40/f3",
        ]
        assert [describe(c) for c in diff.only_b] == ["static/randcast/n40/f4"]
        # Same spec cell, same seeds: the delta is exactly zero.
        assert diff.matched[0].delta_miss_percent == 0.0
        assert not diff.matched[0].distinct

    def test_facade_runs_missing_specs_through_history(self, tmp_path, monkeypatch):
        spec_b = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2,),
            replicates=2,
            num_messages=2,
        )
        diff = run_sweep_diff(
            SMALL_SPEC, spec_b, history=tmp_path, warmup_cycles=10
        )
        assert diff.label_a == SMALL_SPEC.fingerprint()
        assert len(list_history(tmp_path)) == 2

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resolved diff must be a pure lookup")

        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        again = run_sweep_diff(
            SMALL_SPEC, spec_b, history=tmp_path, warmup_cycles=10
        )
        assert render_sweep_diff(again) == render_sweep_diff(diff)

    def test_golden_diff_rendering_pinned(self, result):
        other_spec = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2, 4),
            replicates=2,
            num_messages=2,
        )
        other = run_sweep_core(other_spec, base_config=BASE, root_seed=5)
        text = render_sweep_diff(diff_sweeps(result, other, "A", "B"))
        golden = DATA_DIR / "golden_sweep_diff.txt"
        assert text + "\n" == golden.read_text(encoding="utf-8")


class TestExperimentServiceCli:
    SWEEP_ARGS = [
        "sweep",
        "--scenarios", "static",
        "--protocols", "randcast",
        "--nodes", "40",
        "--fanouts", "2",
        "--replicates", "2",
        "--messages", "2",
        "--warmup", "10",
    ]

    def run_cli(self, *args):
        from repro.cli import main

        return main(list(args))

    def test_sweep_history_then_list_show_gc(self, tmp_path, capsys):
        store = tmp_path / "hist"
        assert self.run_cli(*self.SWEEP_ARGS, "--history", str(store)) == 0
        assert self.run_cli("history", "list", "--store", str(store)) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        entry = list_history(store)[0]
        assert (
            self.run_cli(
                "history", "show", entry.address[:8], "--store", str(store)
            )
            == 0
        )
        out = capsys.readouterr().out
        assert entry.label in out and "randcast" in out
        assert (
            self.run_cli(
                "history", "gc", "--store", str(store), "--max-bytes", "1"
            )
            == 0
        )
        # The newest (only) entry is never evicted.
        assert len(list_history(store)) == 1

    def test_adaptive_flags_require_adaptive(self):
        with pytest.raises(ConfigurationError):
            self.run_cli("sweep", "--ci-width", "1.0")
        with pytest.raises(ConfigurationError):
            self.run_cli("sweep", "--max-replicates", "4")

    def test_auth_token_requires_socket_backend(self, capsys):
        # Frame auth went with the socket backend; the flag is unknown.
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli("sweep", "--auth-token", "secret")
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_adaptive_sweep_prints_allocation(self, tmp_path, capsys):
        assert (
            self.run_cli(
                *self.SWEEP_ARGS,
                "--adaptive", "--ci-width", "0.5", "--max-replicates", "3",
                "--history", str(tmp_path / "hist"),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive allocation:" in out
        assert "trials executed" in out

    def test_diff_rejects_spec_and_adaptive(self, tmp_path):
        spec = SMALL_SPEC.save(tmp_path / "a.json")
        with pytest.raises(ConfigurationError):
            self.run_cli(
                "sweep", "--diff", str(spec), str(spec), "--adaptive"
            )
        with pytest.raises(ConfigurationError):
            self.run_cli(
                "sweep", "--diff", str(spec), str(spec), "--spec", str(spec)
            )
        # The diff is a text report; --json used to be dropped silently.
        out = tmp_path / "out.json"
        with pytest.raises(ConfigurationError, match="--json"):
            self.run_cli(
                "sweep", "--diff", str(spec), str(spec), "--json", str(out)
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--nodes", "999"], "--nodes"),
            (["--scenarios", "static"], "--scenarios"),
            (["--replicates", "5"], "--replicates"),
            (["--kill-fraction", "0.5"], "--kill-fraction"),
        ],
    )
    def test_diff_rejects_grid_and_param_flags(
        self, tmp_path, monkeypatch, extra, flag
    ):
        # The two spec files define both grids; a grid or parameter
        # flag used to be dropped silently, running the specs' own.
        spec = SMALL_SPEC.save(tmp_path / "a.json")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a refused --diff ran trials")

        monkeypatch.setattr(repro.api, "_run_sweep", explode)
        with pytest.raises(ConfigurationError, match="already defines") as e:
            self.run_cli("sweep", "--diff", str(spec), str(spec), *extra)
        assert flag in str(e.value)

    def test_diff_applies_warmup_to_both_specs(
        self, tmp_path, monkeypatch, capsys
    ):
        seen = []
        real = repro.api._run_sweep

        def spy(spec, base_config, **kwargs):
            seen.append((spec.fingerprint(), base_config.warmup_cycles))
            return real(spec, base_config=base_config, **kwargs)

        monkeypatch.setattr(repro.api, "_run_sweep", spy)
        other = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2,),
            replicates=1,
            num_messages=2,
        )
        path_a = SMALL_SPEC.save(tmp_path / "a.json")
        path_b = other.save(tmp_path / "b.json")
        assert (
            self.run_cli(
                "sweep", "--diff", str(path_a), str(path_b), "--warmup", "7"
            )
            == 0
        )
        assert "sweep diff:" in capsys.readouterr().out
        assert seen == [
            (SMALL_SPEC.fingerprint(), 7),
            (other.fingerprint(), 7),
        ]

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--adaptive"], "--adaptive"),
            (["--adaptive", "--ci-width", "0.5"], "--adaptive"),
            (["--adaptive", "--max-replicates", "4"], "--adaptive"),
            (["--adaptive", "--ci-metric", "hops"], "--adaptive"),
            (["--ci-width", "0.5"], "--ci-width"),
            (["--json", "out.json"], "--json"),
            (["--history", "hist"], "--history"),
        ],
    )
    def test_dump_spec_rejects_what_a_spec_file_cannot_carry(
        self, tmp_path, monkeypatch, extra, flag
    ):
        # These used to be dropped silently: the dump ran nothing and
        # the written spec could not carry them.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError, match=flag):
            self.run_cli(*self.SWEEP_ARGS, "--dump-spec", "spec.json", *extra)
        assert list(tmp_path.iterdir()) == []

    def test_diff_and_report_end_to_end(self, tmp_path, capsys):
        store = tmp_path / "hist"
        spec_a = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(2,),
            replicates=2,
            num_messages=2,
            config_overrides={"warmup_cycles": 10},
        )
        spec_b = SweepSpec(
            scenarios=("static",),
            protocols=("randcast",),
            num_nodes=(40,),
            fanouts=(3,),
            replicates=2,
            num_messages=2,
            config_overrides={"warmup_cycles": 10},
        )
        path_a = spec_a.save(tmp_path / "a.json")
        path_b = spec_b.save(tmp_path / "b.json")
        assert (
            self.run_cli(
                "sweep", "--diff", str(path_a), str(path_b),
                "--history", str(store),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep diff:" in out
        assert spec_a.fingerprint() in out
        assert len(list_history(store)) == 2
        html = tmp_path / "report.html"
        assert (
            self.run_cli(
                "report", "--store", str(store), "--html", str(html),
                "--title", "cli smoke",
            )
            == 0
        )
        text = html.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        assert "cli smoke" in text


class TestHtmlReport:
    def test_report_is_self_contained(self, tmp_path, result):
        store_small(tmp_path, result)
        entry = list_history(tmp_path)[0]
        html = render_html_report([source_from_entry(entry)], title="t")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<style>" in html
        for forbidden in ("http://", "https://", "src=", "<link", "@import"):
            assert forbidden not in html, f"network asset leak: {forbidden}"
        assert entry.fingerprint in html

    def test_theory_overlay_for_static_scenario(self, tmp_path, result):
        store_small(tmp_path, result)
        entry = list_history(tmp_path)[0]
        html = render_html_report([source_from_entry(entry)])
        assert "mean-field" in html

    def test_write_creates_parents(self, tmp_path, result):
        store_small(tmp_path, result)
        entry = list_history(tmp_path)[0]
        target = tmp_path / "deep" / "report.html"
        written = write_html_report(target, [source_from_entry(entry)])
        assert written == target
        assert target.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
