#!/usr/bin/env python3
"""The repo benchmark: five workloads over the three stacks.

    python3 bench/run.py                      # all five, untraced
    python3 bench/run.py --trace              # ... plus a traced run each
    python3 bench/run.py --workload fleet_steady --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --quick              # < 30 s smoke of the harness

With ``--workload`` the process *is* the workload's fresh process: it
prints every metric by name with its unit and ends with one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — every
end-to-end metric of ``BENCHMARK.json`` untraced, every per-layer
metric traced. Without it, each workload runs in a subprocess of its
own and the collected runs are written under ``bench/out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib.env import (  # noqa: E402
    METHOD,
    OUT_DIR,
    git_rev,
    hardware_block,
    load_benchmark_spec,
    require_program,
)

WORKLOADS = {
    "sweep_cold": ("benchlib.sweeps", "run_cold"),
    "sweep_warm": ("benchlib.sweeps", "run_warm"),
    "dissem_scale": ("benchlib.dissem", "run"),
    "fleet_steady": ("benchlib.fleets", "run_steady"),
    "fleet_lossy": ("benchlib.fleets", "run_lossy"),
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float,
        help="how long one run measures (default: run_seconds; 2 with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: the traced run (per-layer metrics, span file)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small inputs, not gated: smoke the harness end to end",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="all-workloads run: this many runs per workload, at seeds "
        "--seed, --seed+1, ... (a set for bench/compare.py)",
    )
    parser.add_argument(
        "--label", default="run",
        help="name of the result file written by an all-workloads run",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])
    return args


def run_workload(args: argparse.Namespace) -> int:
    """This process is the workload's process."""
    import importlib

    from benchlib.calibrate import Calibrator
    from benchlib.checks import Expected, Ops
    from benchlib.context import Context
    from benchlib.env import scratch_dir
    from benchlib.trace import Tracer, malformed_spans

    spec = load_benchmark_spec()
    module_name, function_name = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module_name), function_name)
    with scratch_dir("calibrate-") as scratch:
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            quick=args.quick,
            ops=Ops(),
            tracer=Tracer(enabled=bool(args.trace)),
            expected=Expected("quick" if args.quick else "reference", args.seed),
            speed=Calibrator(scratch / "kernel.txt"),
        )
        ctx.setup_spent(time.perf_counter() - PROCESS_STARTED)
        try:
            measured = workload(ctx)
        finally:
            ctx.speed.close()

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        problems = malformed_spans(ctx.tracer.spans)
        ctx.ops.check("span_tree_well_formed", not problems, "; ".join(problems[:3]))
        ctx.tracer.write(
            OUT_DIR / f"trace_{args.workload}.json",
            workload=args.workload,
            seed=args.seed,
        )
        # A layer the workload never enters did no work in it: that 0
        # is the isolation each workload claims, not a missing number.
        ctx.notes["idle_layers"] = sorted(set(declared) - set(measured))
        measured = {name: measured.get(name, 0.0) for name in declared}
    else:
        measured = ctx.at_nominal_speed(measured)
        measured.setdefault(
            "delivery_ratio", 1.0 - ctx.ops.failed / ctx.ops.attempted
        )
        measured["setup_s"] = ctx.setup_s
        measured["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    if set(measured) != set(declared):
        raise SystemExit(
            f"bench: {args.workload} measured {sorted(set(measured) ^ set(declared))} "
            f"differently from BENCHMARK.json's {section}"
        )

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}{'  quick' if args.quick else ''}")
    idle = ctx.notes.get("idle_layers", ())
    for name in declared:
        if name not in idle:
            print(f"{name:48s} {measured[name]:>16.6f} {declared[name]}")
    if idle:
        print(f"{len(idle)} layers idle in this workload (0): " + " ".join(idle))
    print(f"{'ops_attempted':48s} {ctx.ops.attempted:>16d}")
    print(f"{'ops_failed':48s} {ctx.ops.failed:>16d}")
    for failure in ctx.ops.failures:
        print(f"FAILED {failure}")
    if ctx.notes.get("unresolved"):
        print("UNRESOLVED generator lateness p99 "
              f"{ctx.notes['generator_lateness_p99_ms']:.2f} ms > 10 ms")
    print(json.dumps({"notes": ctx.notes}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": ctx.ops.failed == 0,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "metrics": {
            name: {"value": measured[name], "unit": declared[name]}
            for name in declared
        },
    }))
    return 0


def spawn(
    workload: str, args: argparse.Namespace, seed: int, trace: int
) -> Dict[str, Any]:
    """One workload in a fresh subprocess; its parsed run record."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"bench: {workload} exited with {done.returncode}")
    # The two JSON lines (notes, result) go to the result file, not
    # the terminal.
    print("\n".join(lines[:-2]), flush=True)
    record = json.loads(lines[-1])
    record.update(json.loads(lines[-2]))
    record.update(workload=workload, seed=seed, trace=trace)
    return record


def run_all(args: argparse.Namespace) -> int:
    runs: List[Dict[str, Any]] = []
    # Seeds outermost: one pass over the workloads per seed, so drift
    # of the machine during a long set lands on every workload alike.
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in WORKLOADS:
            runs.append(spawn(workload, args, seed, 0))
            if args.trace:
                runs.append(spawn(workload, args, seed, 1))
    payload = {
        "schema": 1,
        "hardware": hardware_block(),
        "method": METHOD,
        "git_rev": git_rev(),
        "seeds": list(range(args.seed, args.seed + args.repeat)),
        "seconds": args.seconds,
        "quick": args.quick,
        "runs": runs,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    target = OUT_DIR / f"{args.label}.json"
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    failed = sum(r["failed"] for r in runs)
    print(f"# wrote {target}  ({len(runs)} runs, {failed} failed operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "result_file": str(target),
    }))
    return 0 if failed == 0 else 1


def main(argv: List[str]) -> int:
    require_program()
    args = parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
