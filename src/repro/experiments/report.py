"""Paper-style ASCII rendering of figure data.

Each ``render_*`` function turns the structured series of
:mod:`repro.experiments.figures` into a fixed-width table mirroring the
corresponding paper figure's axes, plus :func:`write_dat` for
gnuplot-compatible data files (the format the original figures were
plotted from).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.experiments.figures import (
        EffectivenessFigure,
        LifetimeFigure,
        MessageFigure,
        MissLifetimeFigure,
        ProgressFigure,
    )

__all__ = [
    "render_effectiveness",
    "render_lifetimes",
    "render_messages",
    "render_miss_lifetimes",
    "render_progress",
    "render_sweep",
    "write_dat",
]

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _table(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_effectiveness(figure: EffectivenessFigure) -> str:
    """Miss% and complete% per fanout, both protocols side by side."""
    headers = [
        "fanout",
        "randcast miss%",
        "ringcast miss%",
        "randcast compl%",
        "ringcast compl%",
    ]
    rows: List[Sequence[Cell]] = []
    for index, fanout in enumerate(figure.fanouts):
        rows.append(
            [
                fanout,
                figure.miss_percent("randcast")[index],
                figure.miss_percent("ringcast")[index],
                figure.complete_percent("randcast")[index],
                figure.complete_percent("ringcast")[index],
            ]
        )
    return f"[{figure.label}]\n" + _table(headers, rows)


def render_progress(figure: ProgressFigure) -> str:
    """Per-hop percent-not-reached, one block per fanout."""
    blocks = [f"[{figure.label}]"]
    for fanout in figure.fanouts:
        rand = figure.mean_series["randcast"][fanout]
        ring = figure.mean_series["ringcast"][fanout]
        horizon = max(len(rand), len(ring))
        rows: List[Sequence[Cell]] = []
        for hop in range(horizon):
            rows.append(
                [
                    hop,
                    rand[min(hop, len(rand) - 1)],
                    ring[min(hop, len(ring) - 1)],
                ]
            )
        blocks.append(
            f"fanout {fanout}:\n"
            + _table(
                ["hop", "randcast not-reached%", "ringcast not-reached%"],
                rows,
            )
        )
    return "\n\n".join(blocks)


def render_messages(figure: MessageFigure) -> str:
    """Virgin/redundant/dead message split per fanout."""
    headers = [
        "fanout",
        "rand virgin",
        "rand redundant",
        "rand total",
        "ring virgin",
        "ring redundant",
        "ring total",
    ]
    rand_total = figure.total("randcast")
    ring_total = figure.total("ringcast")
    rows: List[Sequence[Cell]] = []
    for index, fanout in enumerate(figure.fanouts):
        rows.append(
            [
                fanout,
                figure.virgin["randcast"][index],
                figure.redundant["randcast"][index],
                rand_total[index],
                figure.virgin["ringcast"][index],
                figure.redundant["ringcast"][index],
                ring_total[index],
            ]
        )
    return f"[{figure.label}]\n" + _table(headers, rows)


def render_lifetimes(figure: LifetimeFigure, max_rows: int = 40) -> str:
    """Population lifetime histogram (log-log in the paper).

    Long tails are bucketed geometrically past ``max_rows`` rows to keep
    the table readable.
    """
    rows: List[Sequence[Cell]] = []
    series = list(figure.series)
    if len(series) <= max_rows:
        rows = [[lifetime, count] for lifetime, count in series]
    else:
        bucket_lo = 1
        while bucket_lo <= series[-1][0]:
            bucket_hi = bucket_lo * 2
            count = sum(
                c for lifetime, c in series if bucket_lo <= lifetime < bucket_hi
            )
            if count:
                rows.append([f"[{bucket_lo},{bucket_hi})", count])
            bucket_lo = bucket_hi
    cycles = ", ".join(str(c) for c in figure.churn_cycles)
    return (
        f"[{figure.label}] churn warm-up cycles per network: {cycles}\n"
        + _table(["lifetime", "nodes"], rows)
    )


def render_miss_lifetimes(figure: MissLifetimeFigure) -> str:
    """Missed-node lifetime histograms, one block per fanout."""
    blocks = [f"[{figure.label}]"]
    for fanout in figure.fanouts:
        buckets = sorted(
            {
                lifetime
                for protocol in figure.series.values()
                for lifetime, _count in protocol.get(fanout, ())
            }
        )
        rand = dict(figure.series["randcast"].get(fanout, ()))
        ring = dict(figure.series["ringcast"].get(fanout, ()))
        grouped: List[Sequence[Cell]] = []
        for lo, hi in _geometric_buckets(buckets):
            rand_count = sum(
                c for life, c in rand.items() if lo <= life < hi
            )
            ring_count = sum(
                c for life, c in ring.items() if lo <= life < hi
            )
            if rand_count or ring_count:
                grouped.append([f"[{lo},{hi})", rand_count, ring_count])
        blocks.append(
            f"fanout {fanout}:\n"
            + _table(
                ["lifetime", "randcast missed", "ringcast missed"], grouped
            )
        )
    return "\n\n".join(blocks)


def render_sweep(result) -> str:
    """Aggregated sweep cells as one table per scenario.

    Accepts a :class:`~repro.experiments.sweep_results.SweepResult`;
    the miss/complete columns carry a ±95% CI half-width over seed
    replicates when more than one replicate ran.
    """
    blocks: List[str] = []
    for scenario in result.scenarios():
        cells = [c for c in result.cells if c.scenario == scenario]
        # Kill/churn columns appear only when that axis varies or is
        # set — a multi-fraction sweep must label which row is which.
        show_kill = any(c.kill_fraction != 0.0 for c in cells)
        show_churn = any(c.churn_rate != 0.0 for c in cells)
        # Scenario-declared parameters (cell.params) get one column
        # each, so e.g. a num_parts axis labels its rows. Classic
        # scenarios carry no declared params: their tables are
        # unchanged.
        param_names = sorted(
            {name for c in cells for name, _value in c.params}
        )
        headers = ["protocol", "N", "fanout"]
        if show_kill:
            headers.append("kill%")
        if show_churn:
            headers.append("churn%")
        headers += param_names
        headers += [
            "reps",
            "miss%",
            "±miss",
            "compl%",
            "±compl",
            "msgs",
            "hops",
        ]
        rows: List[Sequence[Cell]] = []
        for cell in cells:
            row: List[Cell] = [
                cell.protocol,
                cell.num_nodes,
                cell.fanout,
            ]
            if show_kill:
                row.append(100.0 * cell.kill_fraction)
            if show_churn:
                row.append(100.0 * cell.churn_rate)
            cell_params = dict(cell.params)
            row += [cell_params.get(name, "") for name in param_names]
            row += [
                cell.replicates,
                cell.miss_percent,
                100.0 * cell.ci95_miss_ratio,
                cell.complete_percent,
                100.0 * cell.ci95_complete_fraction,
                cell.mean_total_messages,
                cell.mean_hops,
            ]
            rows.append(row)
        blocks.append(f"[sweep:{scenario}]\n" + _table(headers, rows))
    return "\n\n".join(blocks)


def _geometric_buckets(values: Sequence[int]) -> List[Tuple[int, int]]:
    if not values:
        return []
    top = max(values)
    buckets: List[Tuple[int, int]] = []
    lo = 1
    while lo <= top:
        hi = lo * 2
        buckets.append((lo, hi))
        lo = hi
    return buckets


def write_dat(
    path: Union[str, Path],
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
) -> Path:
    """Write a gnuplot-style whitespace-separated data file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# " + " ".join(headers)]
    for row in rows:
        lines.append(" ".join(_format_cell(cell) for cell in row))
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target
