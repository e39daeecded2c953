"""Shared benchmark infrastructure.

Every figure bench runs the corresponding generator from
:mod:`repro.experiments.figures` exactly once (``benchmark.pedantic``
with one round — these are minutes-long experiments, not
microseconds-long functions), asserts the paper's qualitative shape,
and records a paper-style ASCII table. Recorded tables are written to
``results/`` and echoed into the terminal summary, so a
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` run
captures both timings and the regenerated figure data.

Scale selection: ``REPRO_SCALE`` (tiny / small / medium / paper),
default ``small``. Figure benches share scenario runs through the
session's one :class:`~repro.experiments.scenarios.ScenarioRuns`
(the ``runs`` fixture) — e.g. Figs. 7/8 pay for one static run per
protocol between them, so the first bench to need a run is timed
computing it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.experiments.config import scale_config
from repro.experiments.scenarios import ScenarioRuns
from repro.experiments.sweep_results import canonical_json

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BENCH_SEED = 42

_TABLES: List[Tuple[str, str]] = []


def record_table(name: str, text: str) -> None:
    """Persist a rendered figure table and queue it for the summary."""
    _TABLES.append((name, text))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def record_json(name: str, payload: dict) -> Path:
    """Persist a structured benchmark record as canonical JSON."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    target = RESULTS_DIR / f"{name}.json"
    target.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    return target


@pytest.fixture(scope="session")
def cfg():
    """The benchmark-wide experiment configuration."""
    return scale_config(os.environ.get("REPRO_SCALE", "small"), seed=BENCH_SEED)


@pytest.fixture(scope="session")
def runs(cfg):
    """The scenario runs every figure bench reads, at ``cfg``."""
    return ScenarioRuns(cfg)


def sweep_workers() -> int:
    """Worker-process count for sweep-engine benches.

    ``REPRO_SWEEP_WORKERS`` overrides; the default uses every core,
    capped at 8 (sweep results are identical at any width).
    """
    override = os.environ.get("REPRO_SWEEP_WORKERS")
    if override:
        return max(1, int(override))
    return min(8, os.cpu_count() or 1)


def sweep_backend():
    """Execution backend for sweep-engine benches.

    ``REPRO_SWEEP_BACKEND`` selects ``inline``, ``process``, or
    ``socket``; the default (``None``) keeps the engine's historical
    auto-selection. Results are byte-identical under every backend, so
    this only changes where the CPU time is spent.
    """
    return os.environ.get("REPRO_SWEEP_BACKEND") or None


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "regenerated paper figures")
    for name, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {name} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(tables also written to {RESULTS_DIR}/)"
    )
