"""Command-line interface: ``python -m repro`` / ``repro``.

Regenerates any of the paper's evaluation figures as ASCII tables
(``--out DIR`` also writes them as ``<table>.txt``, plus Fig. 6's
gnuplot ``fig6.dat``)::

    repro fig6 --scale small --seed 42
    repro fig9 --out results/
    repro all --scale medium --workers 4
    repro demo

Each ``figN`` subcommand and ``repro all`` render the tables listed in
:data:`repro.experiments.figures.FIGURES`, so a table has one name
everywhere; ``repro all --workers N`` computes the scenario runs on N
processes first, with the same output bytes at any N.

Running sweeps
--------------

``repro sweep`` expands a declarative (scenario × protocol × N ×
fanout × seed-replicate) grid, executes the trials serially or on a
local process pool (``--workers``), and prints per-cell aggregates
(mean ± 95% CI)::

    repro sweep --workers 4
    repro sweep --scenarios static,catastrophic --fanouts 1,2,3,4,6 \\
        --nodes 200,400 --replicates 3 --workers 8
    repro sweep --scenarios multi_message,pull_churn --cache runs/ \\
        --json runs/sweep.json

Scenario parameters are *auto-generated* flags: every parameter a
registered scenario declares in its schema
(:mod:`repro.experiments.scenario_matrix`) becomes one ``--<param>``
flag, CSV-valued when the parameter is sweepable — a scenario plugin
registered at import time shows up in ``repro sweep --help`` with no
CLI edits::

    repro sweep --scenarios catastrophic --kill-fraction 0.05,0.1,0.2
    repro sweep --scenarios scheduling_optimal --num-parts 1,4,16

Sweeps also load from (and dump to) declarative spec files — the
portable, serializable description of the whole grid (see
``docs/sweep_specs.md``)::

    repro sweep --dump-spec spec.json ...same flags...   # write, don't run
    repro sweep --spec spec.json --workers 8             # run a spec file

Results are byte-identical at any ``--workers`` value;
``--cache DIR`` persists finished trials so an interrupted
sweep resumes for free, and also enables the content-addressed overlay
snapshot store (``--snapshot-cache DIR`` / ``--no-snapshot-cache``)
that lets re-runs skip warm-up gossip entirely — still byte-identical.
``--overlay-reuse grid`` opts into sharing one overlay across fanout
siblings (the paper's freeze-once methodology; deterministic, but a
different experiment design). A sweep spreads over machines through
that cache: run parts of the grid (say one ``--protocols`` value each)
with their own ``--cache``, copy the directories together, and a final
run over the merged cache executes nothing and prints the same bytes.
See ``docs/distributed_sweeps.md`` and ``docs/performance.md``.

The experiment service (``docs/experiment_service.md``)
----------------------------------------------------------

``--history DIR`` persists every completed sweep keyed by its spec
fingerprint, config, and execution mode; re-running an identical
invocation is a pure lookup with zero trial executions::

    repro sweep --spec spec.json --history runs/history/
    repro history list --store runs/history/
    repro history show 3f2a9c --store runs/history/
    repro history gc --store runs/history/ --max-bytes 50000000

``--adaptive`` reallocates seed replicates to the cells whose 95% CIs
are still wider than ``--ci-width`` (up to ``--max-replicates``),
deterministically and prefix-byte-identically to fixed grids::

    repro sweep --spec spec.json --adaptive --ci-width 0.5

``--diff`` compares two specs cell by cell with CI-overlap verdicts,
and ``repro report`` renders stored results as one self-contained
HTML file::

    repro sweep --diff before.json after.json --history runs/history/
    repro report --store runs/history/ --html runs/report.html

Scales: tiny, small (default), medium, paper — see
:mod:`repro.experiments.config`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.api import build_overlay, disseminate
from repro.common.errors import ConfigurationError
from repro.experiments import figures as fig
from repro.experiments import report
from repro.experiments.config import scale_config
from repro.experiments.scenarios import ScenarioRuns
from repro.experiments.scenario_matrix import (
    registered_params,
    scenario_names,
    scenario_schema,
    scenarios_consuming,
)

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default=None,
        help="experiment scale: tiny, small, medium, paper "
        "(default: $REPRO_SCALE or small)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="root random seed"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the output there as .txt (and .dat) files",
    )


def _emit(text: str, name: str, out: Optional[Path]) -> None:
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def _run_figure(args) -> None:
    runs = ScenarioRuns(scale_config(args.scale, seed=args.seed))
    tables = fig.FIGURES[args.command](runs)
    for text in tables.values():
        print(text)
        print()
    if args.out is not None:
        fig.write_tables(tables, runs, args.out)


def _run_theory(args) -> None:
    from repro.metrics.theory import (
        epidemic_final_fraction,
        randcast_expected_miss_ratio,
    )

    lines = [
        "[theory] mean-field push epidemic: final fraction pi solves "
        "pi = 1 - exp(-F*pi)",
        f"{'F':>3}  {'final fraction':>14}  {'expected miss':>13}",
    ]
    for fanout in range(1, 21):
        lines.append(
            f"{fanout:>3}  {epidemic_final_fraction(fanout):14.6f}  "
            f"{randcast_expected_miss_ratio(fanout):13.6f}"
        )
    _emit("\n".join(lines), "theory", args.out)


def _run_convergence(args) -> None:
    from repro.experiments.convergence import measure_ring_convergence

    config = scale_config(args.scale, seed=args.seed)
    sizes = [s for s in (100, 200, 400, 800) if s <= config.num_nodes]
    lines = [
        "[convergence] first cycle with a perfect VICINITY ring "
        "(star bootstrap)",
        f"{'nodes':>6}  {'converged at cycle':>18}",
    ]
    for size in sizes:
        curve = measure_ring_convergence(
            num_nodes=size, seed=config.seed, max_cycles=150
        )
        lines.append(f"{size:>6}  {str(curve.converged_at):>18}")
    _emit("\n".join(lines), "convergence", args.out)


def _run_all(args) -> None:
    tables = fig.regenerate_all(
        ScenarioRuns(scale_config(args.scale, seed=args.seed)),
        out_dir=args.out,
        progress=lambda name, secs: print(f"({name} took {secs:.1f}s)"),
        workers=args.workers,
    )
    for name, text in tables.items():
        print(f"=== {name} ===")
        print(text)
        print()


def _csv(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _csv_ints(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in _csv(text))


def _csv_floats(text: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in _csv(text))


# The bare grid flags: flag -> (SweepSpec field, value parser, default,
# help). Parameter flags come from the scenario schemas instead.
_SWEEP_GRID_FLAGS = {
    "--scenarios": ("scenarios", _csv, ("static",), "scenario names"),
    "--protocols": (
        "protocols", _csv, ("randcast", "ringcast"), "overlay kinds"
    ),
    "--nodes": ("num_nodes", _csv_ints, (150,), "population sizes"),
    "--fanouts": ("fanouts", _csv_ints, (1, 2, 3, 4), "fanouts"),
    "--replicates": (
        "replicates", int, 2, "independent seed replicates per cell"
    ),
    "--messages": ("num_messages", int, 5, "messages posted per trial"),
}


def _param_flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _sweep_selections(scenarios, param_values):
    """Per-scenario selections from the auto-generated param flags.

    Each given parameter attaches to exactly the selected scenarios
    whose schema declares it; a parameter no selected scenario consumes
    is rejected with the list of scenarios that would.
    """
    from repro.experiments.sweep_spec import scenario as make_selection

    selections = []
    consumed = set()
    for name in scenarios:
        schema = scenario_schema(name)  # raises for unknown names
        params = {
            param: values
            for param, values in param_values.items()
            if schema.param(param) is not None
        }
        consumed.update(params)
        selections.append(make_selection(name, **params))
    for param in sorted(set(param_values) - consumed):
        consumers = scenarios_consuming(param)
        raise ConfigurationError(
            f"{_param_flag(param)} given, but none of the selected "
            f"scenarios {tuple(scenarios)} consume {param!r} "
            f"(consumed by: {list(consumers)})"
        )
    return tuple(selections)


def _refuse(reason: str, *flags: Tuple[str, bool]) -> None:
    """Raise when any ``(flag, given)`` pair was given: ``reason`` says
    why the invocation cannot honour it."""
    given = [flag for flag, present in flags if present]
    if given:
        raise ConfigurationError(f"{reason}; drop {given}")


def _sweep_specs(args, param_values, overrides):
    """``(run, dump)``: the spec this invocation runs and the
    self-contained one ``--dump-spec`` writes.

    Three forms: ``--spec FILE``; auto-generated parameter flags (built
    into scenario selections, with seed, scale and overrides baked
    in); or bare grid flags, which run ``flat_spec`` with nothing baked
    in — every stored history address of a bare-flag sweep hashes that
    spec's fingerprint. A dumped ``--spec`` file carries the given
    ``--seed``, ``--scale`` and ``--warmup`` over its own.
    """
    from dataclasses import replace

    from repro.experiments.sweep_spec import SweepSpec, flat_spec

    if args.spec is not None:
        spec = SweepSpec.load(args.spec)
        return spec, replace(
            spec,
            seed=spec.seed if args.seed is None else args.seed,
            scale=spec.scale if args.scale is None else args.scale,
            config_overrides={**dict(spec.config_overrides), **overrides},
        )
    grid = {}
    for field, _, default, _ in _SWEEP_GRID_FLAGS.values():
        given = getattr(args, field)
        grid[field] = default if given is None else given
    baked = dict(seed=args.seed, scale=args.scale, config_overrides=overrides)
    if param_values:
        selections = _sweep_selections(grid["scenarios"], param_values)
        spec = SweepSpec(**dict(grid, scenarios=selections), **baked)
        return spec, spec
    return flat_spec(**grid), flat_spec(**grid, **baked)


def _run_sweep(args) -> None:
    from repro.api import run_adaptive_sweep, run_sweep, run_sweep_diff

    if args.no_snapshot_cache and args.snapshot_cache is not None:
        raise ConfigurationError(
            "--snapshot-cache and --no-snapshot-cache contradict each "
            "other; pick one"
        )
    for flag in ("ci_width", "max_replicates", "ci_metric"):
        if getattr(args, flag) is not None and not args.adaptive:
            raise ConfigurationError(
                f"{_param_flag(flag)} only applies with --adaptive"
            )
    param_values = {
        name: getattr(args, f"param_{name}")
        for name in registered_params()
        if getattr(args, f"param_{name}") is not None
    }
    if args.diff is not None:
        _refuse(
            "--diff compares two spec files",
            ("--spec", args.spec is not None),
            ("--dump-spec", args.dump_spec is not None),
            ("--adaptive", args.adaptive),
            ("--json", args.json is not None),
        )
    if args.spec is not None or args.diff is not None:
        _refuse(
            f"{'--spec' if args.diff is None else '--diff'} already "
            "defines the grid (edit the spec file instead)",
            *(
                (flag, getattr(args, field) is not None)
                for flag, (field, *_) in sorted(_SWEEP_GRID_FLAGS.items())
            ),
            *((_param_flag(name), True) for name in sorted(param_values)),
        )
    if args.dump_spec is not None:
        _refuse(
            "--dump-spec writes a spec file and runs nothing; a spec "
            "file cannot carry these",
            ("--adaptive", args.adaptive),
            ("--json", args.json is not None),
            ("--history", args.history is not None),
        )
    snapshot_cache = args.snapshot_cache
    if (
        snapshot_cache is None
        and not args.no_snapshot_cache
        and args.cache is not None
    ):
        # Resumable sweeps get overlay reuse for free: the store rides
        # inside the trial cache directory unless explicitly declined.
        snapshot_cache = args.cache / "snapshots"
    done = {"count": 0}

    def narrate(key: str, seconds: float, cached: bool) -> None:
        done["count"] += 1
        tag = "cached" if cached else f"~{seconds:.1f}s"
        print(f"[{done['count']}] {key} ({tag})")

    overrides = {}
    if args.warmup is not None:
        overrides["warmup_cycles"] = args.warmup
    run_kwargs = dict(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache,
        progress=narrate if args.verbose else None,
        snapshot_cache=snapshot_cache,
        overlay_reuse=args.overlay_reuse,
        snapshot_cache_max_bytes=args.snapshot_cache_max_bytes,
        history=args.history,
        **overrides,
    )

    if args.diff is not None:
        from repro.experiments.history import render_sweep_diff

        spec_a, spec_b = args.diff
        diff = run_sweep_diff(spec_a, spec_b, **run_kwargs)
        _emit(render_sweep_diff(diff), "sweep-diff", args.out)
        return

    spec, dump = _sweep_specs(args, param_values, overrides)
    if args.dump_spec is not None:
        path = dump.save(args.dump_spec)
        print(
            f"(spec written to {path}; fingerprint "
            f"{dump.fingerprint()} — run it with "
            f"`repro sweep --spec {path}`)"
        )
        return

    if args.adaptive:
        from repro.experiments.adaptive import render_adaptive_summary

        outcome = run_adaptive_sweep(
            spec,
            ci_width=args.ci_width if args.ci_width is not None else 1.0,
            max_replicates=(
                args.max_replicates
                if args.max_replicates is not None
                else 8
            ),
            ci_metric=(
                args.ci_metric if args.ci_metric is not None else "miss_ratio"
            ),
            **run_kwargs,
        )
        result = outcome.result
        text = report.render_sweep(result)
        text += "\n\n" + render_adaptive_summary(outcome)
    else:
        result = run_sweep(spec, **run_kwargs)
        text = report.render_sweep(result)
    _emit(text, "sweep", args.out)
    if args.json is not None:
        path = result.save(args.json)
        print(f"(aggregated sweep written to {path})")


def _run_history(args) -> None:
    from repro.experiments.history import (
        find_history_entry,
        gc_history_store,
        list_history,
    )

    if args.history_command == "list":
        from repro.experiments.report import _table

        entries = list_history(args.store)
        if not entries:
            print(f"(no history entries under {args.store})")
            return
        rows = []
        for entry in entries:
            row = entry.summary_row()
            rows.append(
                [
                    entry.label,
                    str(row["root_seed"]),
                    row["scenarios"],
                    row["protocols"],
                    str(row["cells"]),
                    str(row["trials"]),
                    "yes" if row["adaptive"] else "-",
                ]
            )
        header = f"sweep history: {len(entries)} entries under {args.store}"
        table = _table(
            [
                "entry",
                "seed",
                "scenarios",
                "protocols",
                "cells",
                "trials",
                "adaptive",
            ],
            rows,
        )
        _emit(header + "\n" + table, "history", args.out)
    elif args.history_command == "show":
        entry = find_history_entry(args.store, args.entry)
        if args.json:
            print(entry.result.to_json())
            return
        print(f"entry     : {entry.label}")
        print(f"path      : {entry.path}")
        print(f"root seed : {entry.root_seed}")
        print(f"config    : {entry.config_digest}")
        print(f"mode      : {json.dumps(entry.mode, sort_keys=True)}")
        print()
        print(report.render_sweep(entry.result))
    elif args.history_command == "gc":
        removed = gc_history_store(args.store, args.max_bytes)
        print(
            f"(removed {removed} history entries to fit "
            f"{args.max_bytes} bytes)"
        )
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigurationError(
            f"unknown history command {args.history_command!r}"
        )


def _run_report(args) -> None:
    from repro.experiments.history import find_history_entry, list_history
    from repro.experiments.htmlreport import (
        source_from_entry,
        write_html_report,
    )

    if args.entries:
        entries = [
            find_history_entry(args.store, ref) for ref in args.entries
        ]
    else:
        entries = list(list_history(args.store))
    if not entries:
        raise ConfigurationError(
            f"no history entries under {args.store}; run a sweep with "
            "--history first"
        )
    sources = [source_from_entry(entry) for entry in entries]
    path = write_html_report(args.html, sources, title=args.title)
    print(
        f"(HTML report over {len(sources)} history entries written "
        f"to {path})"
    )


def _build_fault_profile(args):
    """Fault profile from ``repro node`` flags and/or a profile file.

    Flags override the *default link* of the file's profile; per-link
    overrides in the file are kept as-is.
    """
    from dataclasses import replace

    from repro.net.faults import (
        FaultProfile,
        LinkFaults,
        load_fault_profile,
        parse_latency_spec,
    )

    profile = (
        load_fault_profile(args.fault_profile)
        if args.fault_profile is not None
        else None
    )
    overrides = {}
    if args.loss is not None:
        overrides["loss"] = args.loss
    if args.latency_ms is not None:
        overrides["latency"] = parse_latency_spec(args.latency_ms)
    if args.duplicate is not None:
        overrides["duplicate"] = args.duplicate
    if args.reorder is not None:
        overrides["reorder"] = args.reorder
    if overrides:
        base = profile.default if profile is not None else LinkFaults()
        profile = FaultProfile(
            default=replace(base, **overrides),
            links=profile.links if profile is not None else {},
        )
    return profile


def _run_node(args) -> None:
    import asyncio

    from repro.net.node import node_config, run_node

    config = node_config(args, faults=_build_fault_profile(args))
    try:
        asyncio.run(run_node(config, install_signal_handlers=True))
    except KeyboardInterrupt:
        pass


def _run_net_send(args) -> None:
    from repro.net.wire import parse_endpoint, send_publish

    msg_id = send_publish(
        parse_endpoint(args.to),
        args.payload,
        timeout=args.timeout,
        retries=args.retries,
        jitter=args.jitter,
    )
    print(f"(published {msg_id} via {args.to})")


def _run_fleet(args) -> None:
    from repro.net.analyzer import render_net_report
    from repro.net.fleet import load_fleet_scenario, run_fleet

    scenario = load_fleet_scenario(args.scenario)
    result = run_fleet(
        scenario,
        log_dir=args.log_dir,
        mode=args.mode,
        analyze=not args.no_analyze,
        sim_trials=args.sim_trials,
        sim_seed=args.sim_seed,
        settle=args.settle,
    )
    print(
        f"fleet run: {scenario.nodes} nodes for {scenario.duration:.1f} s "
        f"({result.mode} mode), {len(result.events)} scripted events"
    )
    if result.lifetime_hist:
        realized = sum(result.lifetime_hist.values())
        print(f"  realized up-intervals: {realized} (histogram in --json)")
    if result.report is not None:
        print(render_net_report(result.report))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"(fleet result written to {args.json})")


def _run_net_analyze(args) -> None:
    from repro.net.analyzer import analyze_run, render_net_report

    net_report = analyze_run(
        args.log_dir,
        sim_trials=args.sim_trials,
        sim_seed=args.sim_seed,
        hops_tolerance=args.hops_tolerance,
    )
    _emit(render_net_report(net_report), "net-analyze", args.out)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(net_report.to_dict(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"(report written to {args.json})")
    if args.expect_ratio is not None:
        if net_report.delivery_ratio < args.expect_ratio:
            raise SystemExit(
                f"delivery ratio {net_report.delivery_ratio:.3f} below "
                f"the required {args.expect_ratio:.3f}"
            )
        print(
            f"(delivery ratio {net_report.delivery_ratio:.3f} >= "
            f"{args.expect_ratio:.3f})"
        )
    if args.expect_push_ratio_below is not None:
        if net_report.push_delivery_ratio >= args.expect_push_ratio_below:
            raise SystemExit(
                f"push-only delivery ratio "
                f"{net_report.push_delivery_ratio:.3f} not below "
                f"{args.expect_push_ratio_below:.3f} — the impairment "
                f"did not bite, so this run cannot demonstrate pull "
                f"recovery"
            )
        print(
            f"(push-only ratio {net_report.push_delivery_ratio:.3f} < "
            f"{args.expect_push_ratio_below:.3f}; pull closed the gap "
            f"to {net_report.delivery_ratio:.3f})"
        )
    if args.expect_converged_by is not None:
        convergence = net_report.convergence
        if convergence is None:
            raise SystemExit(
                "no ring-convergence data in the logs (need 'views' "
                "events from every node); cannot check "
                "--expect-converged-by"
            )
        if convergence.converged_at is None:
            raise SystemExit(
                "ring never fully converged (final completeness "
                f"{convergence.final_completeness * 100:.1f}%); required "
                f"within {args.expect_converged_by:.1f} s"
            )
        if convergence.converged_at > args.expect_converged_by:
            raise SystemExit(
                f"ring converged after {convergence.converged_at:.1f} s, "
                f"later than the required "
                f"{args.expect_converged_by:.1f} s"
            )
        print(
            f"(ring converged after {convergence.converged_at:.1f} s <= "
            f"{args.expect_converged_by:.1f} s)"
        )


def _run_demo(args) -> None:
    seed = args.seed if args.seed is not None else 1
    print("Building a 300-node RINGCAST overlay (CYCLON + VICINITY)...")
    snapshot = build_overlay(
        num_nodes=300, protocol="ringcast", seed=seed, warmup_cycles=80
    )
    result = disseminate(snapshot, fanout=3, seed=seed)
    print(
        f"fanout=3: reached {result.notified}/{result.population} nodes in "
        f"{result.hops} hops with {result.total_messages} messages "
        f"({result.msgs_redundant} redundant)"
    )
    print("Building a 300-node RANDCAST overlay (CYCLON only)...")
    snapshot = build_overlay(
        num_nodes=300, protocol="randcast", seed=seed, warmup_cycles=80
    )
    result = disseminate(snapshot, fanout=3, seed=seed)
    print(
        f"fanout=3: reached {result.notified}/{result.population} nodes in "
        f"{result.hops} hops with {result.total_messages} messages "
        f"({result.msgs_redundant} redundant)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    from repro.net.node import add_node_arguments

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Hybrid Dissemination' (Voulgaris & van "
            "Steen, Middleware 2007): regenerate any evaluation figure."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in fig.FIGURES:
        sub = subparsers.add_parser(
            name, help=f"regenerate paper {name}"
        )
        _add_common(sub)
        sub.set_defaults(func=_run_figure)
    sub = subparsers.add_parser("all", help="regenerate every figure")
    _add_common(sub)
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes for the scenario runs "
        "(default: 1; results identical at any value)",
    )
    sub.set_defaults(func=_run_all)
    sub = subparsers.add_parser(
        "sweep",
        help="run a parallel (scenario x protocol x N x fanout x seed) "
        "grid and print per-cell aggregates",
        description=(
            "Expand a declarative parameter grid into independent "
            "trials, execute them serially or on a local process pool, "
            "and aggregate per cell (mean and 95% CI over replicates). "
            "Results are byte-identical at any --workers value; --cache "
            "enables resume of interrupted sweeps, and caches of grid "
            "parts run on other machines merge by copying."
        ),
        # The removed --concurrent / --pulls must not prefix-match
        # --concurrent-messages / --pulls-per-round: those attach per
        # schema, not to every scenario, so an old script would keep
        # running in a different RNG universe without a message.
        allow_abbrev=False,
    )
    _add_common(sub)
    sub.add_argument(
        "--spec",
        type=Path,
        default=None,
        metavar="FILE",
        help="run a declarative sweep-spec JSON file (see "
        "docs/sweep_specs.md); the grid/parameter flags then stay home",
    )
    sub.add_argument(
        "--dump-spec",
        type=Path,
        default=None,
        metavar="FILE",
        help="write this invocation as a spec file and exit without "
        "running (pairs with --spec for a lossless round-trip)",
    )
    for flag, (field, parse, default, text) in _SWEEP_GRID_FLAGS.items():
        if parse is not int:
            text = "comma-separated " + text
            default = ",".join(map(str, default))
        if field == "scenarios":
            text += ", from: " + ",".join(scenario_names())
        sub.add_argument(
            flag,
            dest=field,
            type=parse,
            default=None,
            metavar=flag[2:].upper(),
            help=f"{text} (default: {default})",
        )
    params_group = sub.add_argument_group(
        "scenario parameters",
        "auto-generated from the registered scenario schemas — a "
        "plugin registered via register_scenario() appears here with "
        "no CLI edits; each parameter attaches to the selected "
        "scenarios that declare it",
    )
    for param_name, param in sorted(registered_params().items()):
        consumers = ",".join(scenarios_consuming(param_name))
        if param.sweepable:
            value_type = (
                _csv_ints if param.kind == "int" else _csv_floats
            )
            values_doc = "comma-separated values sweep an axis; "
        else:
            value_type = int if param.kind == "int" else float
            values_doc = ""
        params_group.add_argument(
            _param_flag(param_name),
            dest=f"param_{param_name}",
            type=value_type,
            default=None,
            metavar="V" + (",V,..." if param.sweepable else ""),
            help=f"{param.help} ({values_doc}scenarios: {consumers}; "
            f"default: {param.default})",
        )
    sub.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="override warm-up cycles (smoke runs)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes: 1 runs the trials serially in this "
        "process, more runs them on a local process pool; results are "
        "byte-identical at any value (default: 1)",
    )
    sub.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="per-trial cache directory (resume support); also enables "
        "the overlay snapshot store at CACHE/snapshots unless "
        "--no-snapshot-cache",
    )
    sub.add_argument(
        "--snapshot-cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed overlay snapshot store: built overlays "
        "are persisted here and re-runs skip warm-up entirely, with "
        "byte-identical output (default: CACHE/snapshots when --cache "
        "is given, otherwise off; see docs/performance.md)",
    )
    sub.add_argument(
        "--no-snapshot-cache",
        action="store_true",
        help="disable the overlay snapshot store (including the "
        "CACHE/snapshots default that --cache switches on)",
    )
    sub.add_argument(
        "--overlay-reuse",
        choices=("trial", "grid"),
        default="trial",
        help="'trial' (default): legacy per-trial overlay universes, "
        "every byte identical to historical sweeps; 'grid': fanout/"
        "kill-fraction/message-count siblings share one overlay per "
        "replicate (the paper's freeze-once methodology, ~|fanouts|x "
        "less warm-up) — deterministic but numerically a different "
        "experiment design",
    )
    sub.add_argument(
        "--snapshot-cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="size cap for the overlay snapshot store; least-recently-"
        "used entries are evicted after each write (default: unbounded)",
    )
    sub.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the aggregated sweep as canonical JSON here",
    )
    sub.add_argument(
        "--history",
        type=Path,
        default=None,
        metavar="DIR",
        help="sweep history store: persist the aggregated result keyed "
        "by spec fingerprint + config + mode, and answer an identical "
        "re-run from the store with zero trial executions (see "
        "docs/experiment_service.md)",
    )
    adaptive_group = sub.add_argument_group(
        "adaptive replication",
        "start from --replicates per cell, then add seed replicates "
        "only to cells whose 95% CI is still wider than --ci-width — "
        "deterministic, and any per-cell prefix is byte-identical to "
        "a fixed-replicate run",
    )
    adaptive_group.add_argument(
        "--adaptive",
        action="store_true",
        help="enable adaptive per-cell replicate allocation",
    )
    adaptive_group.add_argument(
        "--ci-width",
        type=float,
        default=None,
        metavar="W",
        help="target 95%% CI width per cell, in the unit of --ci-metric "
        "(default: 1.0)",
    )
    adaptive_group.add_argument(
        "--max-replicates",
        type=int,
        default=None,
        metavar="R",
        help="hard cap on replicates per cell (default: 8)",
    )
    adaptive_group.add_argument(
        "--ci-metric",
        choices=("miss_ratio", "hops"),
        default=None,
        help="metric whose CI drives allocation: miss_ratio "
        "(percentage points; default) or hops",
    )
    sub.add_argument(
        "--diff",
        nargs=2,
        type=Path,
        default=None,
        metavar=("SPEC_A", "SPEC_B"),
        help="compare two sweep-spec files cell by cell instead of "
        "running one grid; with --history, already-run specs are pure "
        "lookups and only missing ones execute",
    )
    sub.add_argument(
        "--verbose",
        action="store_true",
        help="narrate per-trial progress",
    )
    sub.set_defaults(func=_run_sweep)
    sub = subparsers.add_parser(
        "node",
        help="run one live asyncio/UDP gossip node",
        description=(
            "Run the simulator's protocol stack (CYCLON + VICINITY + "
            "hybrid dissemination) as one long-lived UDP process. "
            "Nodes find each other through --bootstrap endpoints, "
            "keep liveness with ping/pong retry+backoff, and append "
            "JSONL events to --log-dir for repro net-analyze. See "
            "docs/live_network.md."
        ),
    )
    add_node_arguments(sub)
    sub.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="drop each outgoing datagram with probability P "
        "(deterministic per link given the fault seed)",
    )
    sub.add_argument(
        "--latency-ms",
        default=None,
        metavar="LO:HI",
        help="delay each outgoing datagram uniformly in [LO, HI] "
        "milliseconds (a bare MS means a fixed delay)",
    )
    sub.add_argument(
        "--duplicate",
        type=float,
        default=None,
        metavar="P",
        help="send each outgoing datagram twice with probability P",
    )
    sub.add_argument(
        "--reorder",
        type=float,
        default=None,
        metavar="P",
        help="hold back each outgoing datagram (behind later traffic) "
        "with probability P",
    )
    sub.add_argument(
        "--fault-profile",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON fault profile (default link + per-endpoint "
        "overrides); --loss/--latency-ms/--duplicate/--reorder "
        "override its default link",
    )
    sub.set_defaults(func=_run_node)
    sub = subparsers.add_parser(
        "net-send",
        help="inject a message into a running live node",
        description=(
            "Send a publish datagram to one repro node endpoint and "
            "wait for the acknowledgement carrying the assigned "
            "message ID."
        ),
    )
    sub.add_argument(
        "--to",
        required=True,
        metavar="HOST:PORT",
        help="node endpoint to publish through",
    )
    sub.add_argument(
        "--payload", default="hello", help="message payload (default: hello)"
    )
    sub.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds to wait for the ack per attempt (default: 2)",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=5,
        help="publish attempts before giving up (default: 5)",
    )
    sub.add_argument(
        "--jitter",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="each retry waits an extra random [0, FRACTION*timeout) "
        "seconds so concurrent senders desynchronize; 0 disables "
        "(default: 0.25)",
    )
    sub.set_defaults(func=_run_net_send)
    sub = subparsers.add_parser(
        "fleet",
        help="run a scripted churn/fault fleet of live nodes",
        description=(
            "Launch a local cluster of repro node instances from one "
            "JSON scenario: scripted kill/restart/join events and "
            "publishes at absolute times, optional Poisson-lifetime "
            "churn, optional deterministic packet loss/latency/"
            "duplication via a fault profile. Collects the JSONL logs "
            "and runs the net-analyze report over them. See "
            "docs/live_network.md."
        ),
    )
    sub.add_argument(
        "scenario",
        type=Path,
        metavar="SCENARIO.json",
        help="fleet scenario file",
    )
    sub.add_argument(
        "--log-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help="directory for the per-node JSONL event logs",
    )
    sub.add_argument(
        "--mode",
        choices=("process", "inline"),
        default="process",
        help="process: one subprocess per node (default); inline: "
        "all nodes in the supervisor's asyncio loop (fast, for tests)",
    )
    sub.add_argument(
        "--sim-trials",
        type=int,
        default=50,
        help="simulated disseminations for the analyzer prediction "
        "(default: 50)",
    )
    sub.add_argument(
        "--sim-seed",
        type=int,
        default=1,
        help="RNG seed of the prediction runs (default: 1)",
    )
    sub.add_argument(
        "--settle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="extra grace period after the scenario window before "
        "teardown (default: 0)",
    )
    sub.add_argument(
        "--no-analyze",
        action="store_true",
        help="skip the net-analyze pass (collect logs only)",
    )
    sub.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the fleet result (events, lifetime histogram, "
        "analyzer report) as JSON here",
    )
    sub.set_defaults(func=_run_fleet)
    sub = subparsers.add_parser(
        "net-analyze",
        help="delivery/hop/overhead report from live-node logs",
        description=(
            "Parse the JSONL logs a cluster of repro node processes "
            "wrote, compute per-message delivery ratio, hop-count "
            "distribution and gossip overhead, and compare against a "
            "matched simulator prediction over the overlay "
            "reconstructed from the logs."
        ),
    )
    sub.add_argument(
        "log_dir",
        type=Path,
        metavar="LOGDIR",
        help="directory of node-*.jsonl event logs",
    )
    sub.add_argument(
        "--sim-trials",
        type=int,
        default=100,
        help="simulated disseminations for the prediction (default: 100)",
    )
    sub.add_argument(
        "--sim-seed",
        type=int,
        default=1,
        help="RNG seed of the prediction runs (default: 1)",
    )
    sub.add_argument(
        "--hops-tolerance",
        type=float,
        default=2.0,
        help="max |observed - predicted| mean hops to count as "
        "matching (default: 2)",
    )
    sub.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the full report as JSON here",
    )
    sub.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write the text report to DIR/net-analyze.txt",
    )
    sub.add_argument(
        "--expect-ratio",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero unless every message's delivery ratio "
        "reaches RATIO (CI gate)",
    )
    sub.add_argument(
        "--expect-push-ratio-below",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero unless some message's push-only delivery "
        "ratio is below RATIO — proves the impairment actually cost "
        "push deliveries, so a perfect overall ratio demonstrates "
        "pull recovery (CI gate; the live Figs. 9/11 mirror)",
    )
    sub.add_argument(
        "--expect-converged-by",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit non-zero unless the VICINITY ring reached (and "
        "held) 100%% completeness within SECONDS of the first node "
        "start, per the nodes' periodic 'views' events (CI gate; "
        "mirrors the paper's Fig. 4 convergence metric)",
    )
    sub.set_defaults(func=_run_net_analyze)
    sub = subparsers.add_parser(
        "history",
        help="inspect and prune the sweep history store",
        description=(
            "Manage the directory 'repro sweep --history DIR' writes: "
            "each completed sweep is one integrity-hashed JSON entry "
            "keyed by the spec fingerprint, effective config and "
            "execution mode. See docs/experiment_service.md."
        ),
    )
    history_sub = sub.add_subparsers(
        dest="history_command", required=True
    )
    hist = history_sub.add_parser(
        "list", help="list stored sweeps, newest first"
    )
    hist.add_argument(
        "--store",
        type=Path,
        required=True,
        metavar="DIR",
        help="history store directory",
    )
    hist.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write the table to DIR/history.txt",
    )
    hist.set_defaults(func=_run_history)
    hist = history_sub.add_parser(
        "show", help="print one stored sweep's aggregates"
    )
    hist.add_argument(
        "entry",
        metavar="REF",
        help="entry reference: a prefix of the entry address or of "
        "the spec fingerprint (see 'repro history list')",
    )
    hist.add_argument(
        "--store",
        type=Path,
        required=True,
        metavar="DIR",
        help="history store directory",
    )
    hist.add_argument(
        "--json",
        action="store_true",
        help="print the stored SweepResult as canonical JSON instead "
        "of the table",
    )
    hist.set_defaults(func=_run_history)
    hist = history_sub.add_parser(
        "gc", help="evict oldest entries to fit a size budget"
    )
    hist.add_argument(
        "--store",
        type=Path,
        required=True,
        metavar="DIR",
        help="history store directory",
    )
    hist.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="BYTES",
        help="target on-disk size; least-recently-used entries are "
        "removed first (the newest entry always survives)",
    )
    hist.set_defaults(func=_run_history)
    sub = subparsers.add_parser(
        "report",
        help="render a self-contained HTML report from sweep history",
        description=(
            "Build one HTML file — inline CSS and SVG only, no "
            "network assets — over stored sweep results: per-cell "
            "tables, per-scenario miss-ratio figures with mean-field "
            "theory overlays where applicable, and a hardware/"
            "provenance block. See docs/experiment_service.md."
        ),
    )
    sub.add_argument(
        "entries",
        nargs="*",
        metavar="REF",
        help="history entry references (address or fingerprint "
        "prefixes); default: every entry in the store, newest first",
    )
    sub.add_argument(
        "--store",
        type=Path,
        required=True,
        metavar="DIR",
        help="history store directory",
    )
    sub.add_argument(
        "--html",
        type=Path,
        required=True,
        metavar="FILE",
        help="output path for the HTML report",
    )
    sub.add_argument(
        "--title",
        default="repro experiment report",
        help="report title (default: 'repro experiment report')",
    )
    sub.set_defaults(func=_run_report)
    sub = subparsers.add_parser(
        "demo", help="60-second RINGCAST vs RANDCAST demonstration"
    )
    _add_common(sub)
    sub.set_defaults(func=_run_demo)
    sub = subparsers.add_parser(
        "theory",
        help="mean-field miss-ratio predictions for RANDCAST",
    )
    _add_common(sub)
    sub.set_defaults(func=_run_theory)
    sub = subparsers.add_parser(
        "convergence",
        help="VICINITY ring convergence speed vs network size",
    )
    _add_common(sub)
    sub.set_defaults(func=_run_convergence)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
