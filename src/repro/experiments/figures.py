"""Regeneration of every evaluation figure (paper Figs. 6–13).

Each ``figure*`` function is a pure view over one
:class:`~repro.experiments.scenarios.ScenarioRuns` and returns
structured series data; rendering to paper-style ASCII tables lives in
:mod:`repro.experiments.report`. Figures sharing runs share them
through that object: Figs. 6/7/8 read one static run per protocol,
Figs. 9/10 one catastrophic run per (protocol, kill fraction) — kills of
the overlays the static run measured — and Figs. 11/12/13 one churn run
per protocol.

:data:`FIGURES` lists the figures in paper order, each rendering its
named tables; ``repro figN``, ``repro all`` and :func:`regenerate_all`
all read it, so the table names (and ``fig6.dat``) are defined here
only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import report
from repro.experiments.scenarios import (
    PAPER_KILL_FRACTIONS,
    PROTOCOLS,
    FanoutSweep,
    ScenarioRuns,
)
from repro.metrics.dissemination import EffectivenessStats

__all__ = [
    "EffectivenessFigure",
    "FIGURES",
    "LifetimeFigure",
    "MessageFigure",
    "MissLifetimeFigure",
    "ProgressFigure",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "regenerate_all",
    "write_tables",
]

PAPER_PROGRESS_FANOUTS = (2, 3, 5, 10)
PAPER_LIFETIME_FANOUTS = (3, 6)

ProgressHook = Callable[[str, float], None]


def _progress_fanouts(runs: ScenarioRuns) -> Tuple[int, ...]:
    available = set(runs.config.fanouts)
    return tuple(f for f in PAPER_PROGRESS_FANOUTS if f in available)


def _percent(fraction: float) -> int:
    return round(fraction * 100)


# ----------------------------------------------------------------------
# figure data containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EffectivenessFigure:
    """Miss-ratio + completeness vs fanout (Figs. 6, 9, 11)."""

    label: str
    fanouts: Tuple[int, ...]
    stats: Dict[str, Dict[int, EffectivenessStats]]

    def miss_percent(self, protocol: str) -> List[float]:
        """Mean miss-ratio series (percent), one value per fanout."""
        return [
            self.stats[protocol][f].mean_miss_percent for f in self.fanouts
        ]

    def complete_percent(self, protocol: str) -> List[float]:
        """Complete-dissemination percentage series."""
        return [
            self.stats[protocol][f].complete_percent for f in self.fanouts
        ]


@dataclass(frozen=True)
class ProgressFigure:
    """Percent-not-reached-yet vs hop (Figs. 7, 10)."""

    label: str
    fanouts: Tuple[int, ...]
    mean_series: Dict[str, Dict[int, List[float]]]
    worst_series: Dict[str, Dict[int, List[float]]]


@dataclass(frozen=True)
class MessageFigure:
    """Virgin/redundant message split vs fanout (Fig. 8)."""

    label: str
    fanouts: Tuple[int, ...]
    virgin: Dict[str, List[float]]
    redundant: Dict[str, List[float]]
    to_dead: Dict[str, List[float]]

    def total(self, protocol: str) -> List[float]:
        """Mean total messages per dissemination, one value per fanout."""
        return [
            v + r + d
            for v, r, d in zip(
                self.virgin[protocol],
                self.redundant[protocol],
                self.to_dead[protocol],
            )
        ]


@dataclass(frozen=True)
class LifetimeFigure:
    """Population lifetime distribution (Fig. 12)."""

    label: str
    series: Tuple[Tuple[int, int], ...]
    churn_cycles: Tuple[int, ...]


@dataclass(frozen=True)
class MissLifetimeFigure:
    """Missed-node lifetime distributions (Fig. 13)."""

    label: str
    fanouts: Tuple[int, ...]
    series: Dict[str, Dict[int, Tuple[Tuple[int, int], ...]]]


# ----------------------------------------------------------------------
# figure generators
# ----------------------------------------------------------------------


def figure6(runs: ScenarioRuns) -> EffectivenessFigure:
    """Fig. 6: dissemination effectiveness, static failure-free network.

    Expected shape: RINGCAST misses nothing at any fanout; RANDCAST's
    miss ratio decays ~exponentially in F and its complete-dissemination
    share crosses 0% → 100% steeply.
    """
    fanouts = runs.config.fanouts
    stats = {
        kind: {fanout: runs.static(kind).stats(fanout) for fanout in fanouts}
        for kind in PROTOCOLS
    }
    return EffectivenessFigure(label="fig6", fanouts=fanouts, stats=stats)


def _progress_figure(
    label: str, runs: ScenarioRuns, sweep_of: Callable[[str], FanoutSweep]
) -> ProgressFigure:
    fanouts = _progress_fanouts(runs)
    mean_series: Dict[str, Dict[int, List[float]]] = {}
    worst_series: Dict[str, Dict[int, List[float]]] = {}
    for kind in PROTOCOLS:
        sweep = sweep_of(kind)
        mean_series[kind] = {}
        worst_series[kind] = {}
        for fanout in fanouts:
            means, _best, worst = sweep.progress(fanout)
            mean_series[kind][fanout] = means
            worst_series[kind][fanout] = worst
    return ProgressFigure(
        label=label,
        fanouts=fanouts,
        mean_series=mean_series,
        worst_series=worst_series,
    )


def figure7(runs: ScenarioRuns) -> ProgressFigure:
    """Fig. 7: per-hop dissemination progress, static network."""
    return _progress_figure("fig7", runs, runs.static)


def figure8(runs: ScenarioRuns) -> MessageFigure:
    """Fig. 8: messages to virgin vs already-notified nodes, static."""
    fanouts = runs.config.fanouts
    virgin: Dict[str, List[float]] = {}
    redundant: Dict[str, List[float]] = {}
    to_dead: Dict[str, List[float]] = {}
    for kind in PROTOCOLS:
        sweep = runs.static(kind)
        virgin[kind] = [sweep.stats(f).mean_msgs_virgin for f in fanouts]
        redundant[kind] = [
            sweep.stats(f).mean_msgs_redundant for f in fanouts
        ]
        to_dead[kind] = [sweep.stats(f).mean_msgs_to_dead for f in fanouts]
    return MessageFigure(
        label="fig8",
        fanouts=fanouts,
        virgin=virgin,
        redundant=redundant,
        to_dead=to_dead,
    )


def figure9(
    runs: ScenarioRuns,
    kill_fractions: Tuple[float, ...] = PAPER_KILL_FRACTIONS,
) -> Dict[float, EffectivenessFigure]:
    """Fig. 9: effectiveness after catastrophic failures of 1/2/5/10%."""
    fanouts = runs.config.fanouts
    return {
        fraction: EffectivenessFigure(
            label=f"fig9@{_percent(fraction)}%",
            fanouts=fanouts,
            stats={
                kind: {
                    fanout: runs.catastrophic(kind, fraction).stats(fanout)
                    for fanout in fanouts
                }
                for kind in PROTOCOLS
            },
        )
        for fraction in kill_fractions
    }


def figure10(
    runs: ScenarioRuns, kill_fraction: float = 0.05
) -> ProgressFigure:
    """Fig. 10: per-hop progress after a 5% catastrophic failure."""
    return _progress_figure(
        f"fig10@{_percent(kill_fraction)}%",
        runs,
        lambda kind: runs.catastrophic(kind, kill_fraction),
    )


def figure11(runs: ScenarioRuns) -> EffectivenessFigure:
    """Fig. 11: effectiveness under continuous churn.

    Expected shape: RINGCAST ahead at low fanouts (2–5), slightly behind
    at 6+, with its misses concentrated on fresh joiners (Fig. 13).
    """
    fanouts = runs.config.fanouts
    stats = {
        kind: {
            fanout: runs.churn(kind).sweep.stats(fanout)
            for fanout in fanouts
        }
        for kind in PROTOCOLS
    }
    return EffectivenessFigure(label="fig11", fanouts=fanouts, stats=stats)


def figure12(runs: ScenarioRuns) -> LifetimeFigure:
    """Fig. 12: lifetime distribution of the churned population.

    Protocol-independent population structure; both protocols' churn
    runs are summed, as the paper sums its 100 experiments.
    """
    combined: Dict[int, int] = {}
    cycles: List[int] = []
    for kind in PROTOCOLS:
        outcome = runs.churn(kind)
        for lifetime, count in outcome.population_lifetimes.items():
            combined[lifetime] = combined.get(lifetime, 0) + count
        cycles.extend(outcome.churn_cycles)
    return LifetimeFigure(
        label="fig12",
        series=tuple(sorted(combined.items())),
        churn_cycles=tuple(cycles),
    )


def figure13(
    runs: ScenarioRuns,
    fanouts: Tuple[int, ...] = PAPER_LIFETIME_FANOUTS,
) -> MissLifetimeFigure:
    """Fig. 13: lifetimes of the nodes disseminations missed."""
    available = set(runs.config.fanouts)
    chosen = tuple(f for f in fanouts if f in available)
    series: Dict[str, Dict[int, Tuple[Tuple[int, int], ...]]] = {}
    for kind in PROTOCOLS:
        outcome = runs.churn(kind)
        series[kind] = {}
        for fanout in chosen:
            histogram = outcome.missed_lifetimes.get(fanout, {})
            series[kind][fanout] = tuple(sorted(histogram.items()))
    return MissLifetimeFigure(
        label="fig13", fanouts=chosen, series=series
    )


# ----------------------------------------------------------------------
# rendered tables
# ----------------------------------------------------------------------

# Figure name -> its rendered tables, {table name: text}, in paper order.
FIGURES: Dict[str, Callable[[ScenarioRuns], Dict[str, str]]] = {
    "fig6": lambda runs: {
        "fig6": report.render_effectiveness(figure6(runs))
    },
    "fig7": lambda runs: {"fig7": report.render_progress(figure7(runs))},
    "fig8": lambda runs: {"fig8": report.render_messages(figure8(runs))},
    "fig9": lambda runs: {
        f"fig9_kill{_percent(fraction):02d}": report.render_effectiveness(
            data
        )
        for fraction, data in figure9(runs).items()
    },
    "fig10": lambda runs: {
        "fig10": report.render_progress(figure10(runs))
    },
    "fig11": lambda runs: {
        "fig11": report.render_effectiveness(figure11(runs))
    },
    "fig12": lambda runs: {
        "fig12": report.render_lifetimes(figure12(runs))
    },
    "fig13": lambda runs: {
        "fig13": report.render_miss_lifetimes(figure13(runs))
    },
}


def write_tables(
    tables: Dict[str, str], runs: ScenarioRuns, out_dir: Path
) -> None:
    """Write each table to ``<out_dir>/<name>.txt``; with Fig. 6 among
    them, its series also go to ``fig6.dat`` (gnuplot format)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    if "fig6" in tables:
        data = figure6(runs)
        report.write_dat(
            out_dir / "fig6.dat",
            ["fanout", "rand_miss", "ring_miss", "rand_compl", "ring_compl"],
            [
                [
                    fanout,
                    data.miss_percent("randcast")[i],
                    data.miss_percent("ringcast")[i],
                    data.complete_percent("randcast")[i],
                    data.complete_percent("ringcast")[i],
                ]
                for i, fanout in enumerate(data.fanouts)
            ],
        )


def regenerate_all(
    runs: ScenarioRuns,
    out_dir: Optional[Path] = None,
    progress: Optional[ProgressHook] = None,
    workers: int = 1,
) -> Dict[str, str]:
    """Regenerate Figs. 6–13 and return ``{table name: rendered text}``.

    Args:
        runs: The scenario runs at the chosen configuration.
        out_dir: When given, the tables are written there (see
            :func:`write_tables`).
        progress: Optional callback invoked as ``progress(name,
            seconds)`` after each figure completes — the CLI uses it to
            narrate long runs.
        workers: When ``> 1``, every run is first computed on a process
            pool (:meth:`ScenarioRuns.prefetch`); the tables are the
            same at any value.
    """

    def timed(name: str, produce: Callable[[], object]):
        started = time.perf_counter()
        result = produce()
        if progress is not None:
            progress(name, time.perf_counter() - started)
        return result

    # At one worker the figures compute their runs as they go, so the
    # progress hook reports each figure's own cost.
    if workers != 1:
        timed("prefetch", lambda: runs.prefetch(workers))
    tables: Dict[str, str] = {}
    for name, render in FIGURES.items():
        tables.update(timed(name, lambda: render(runs)))
    if out_dir is not None:
        write_tables(tables, runs, out_dir)
    return tables
