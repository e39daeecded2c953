#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --a a1.json a2.json --b b1.json b2.json
    python3 bench/compare.py --spread SET.json

A set is one or more result files written by ``bench/run.py`` (an
all-workloads run, usually with ``--repeat``). One row is printed per
(end-to-end metric, workload): both medians, the ratio B/A *with its
base*, the bound ``BENCHMARK.json`` fixes, and a verdict —

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread (distance between the
  quartiles, as a share of the median) of either side is wider than
  the bound, and the two sides' runs interleave — the runs cannot say
  whether the metric moved;
* ``ok`` otherwise (including: spread is wide but every run of B reads
  better than every run of A).

Exit status is non-zero on any ``regressed`` row, or when B failed a
larger share of its operations than A. ``--spread`` prints each
metric's spread within one set against a third of its bound — the
steadiness the benchmark has to show before it is accepted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib.env import load_benchmark_spec  # noqa: E402
from benchlib.stats import median, quartile_spread  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]


def load_set(paths: Sequence[str]) -> Tuple[Samples, int, int]:
    """(values by (workload, metric), attempted, failed) of the
    untraced runs in ``paths``."""
    samples: Samples = {}
    attempted = failed = 0
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for run in payload["runs"]:
            if run["trace"]:
                continue
            attempted += run["attempted"]
            failed += run["failed"]
            for name, metric in run["metrics"].items():
                samples.setdefault((run["workload"], name), []).append(
                    metric["value"]
                )
    return samples, attempted, failed


def worsening(base: float, other: float, better: str) -> float:
    """By what share of ``base`` is ``other`` worse (negative: better)."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def all_better(a: Sequence[float], b: Sequence[float], better: str) -> bool:
    """Every run of ``b`` reads better than every run of ``a``."""
    if better == "lower":
        return max(b) < min(a)
    return min(b) > max(a)


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    spread = max(quartile_spread(a), quartile_spread(b))
    interleave = not all_better(a, b, better) and not all_better(b, a, better)
    if spread > bound and interleave:
        return "unresolved"
    if worsening(median(a), median(b), better) > bound:
        return "regressed"
    return "ok"


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    spec = load_benchmark_spec()
    a, a_attempted, a_failed = load_set(a_paths)
    b, b_attempted, b_failed = load_set(b_paths)
    print(
        f"{'workload':14s} {'metric':18s} {'median A':>14s} {'median B':>14s} "
        f"{'B/A':>22s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict"
    )
    regressed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            med_a, med_b = median(a[key]), median(b[key])
            outcome = verdict(a[key], b[key], metric["better"], metric["bound"])
            regressed += outcome == "regressed"
            ratio = med_b / med_a if med_a else float("nan")
            print(
                f"{workload:14s} {metric['name']:18s} {med_a:14.6g} {med_b:14.6g} "
                f"{ratio:8.4f}x of {med_a:<9.4g} {metric['bound']:6.2f} "
                f"{quartile_spread(a[key]):9.4f} {quartile_spread(b[key]):9.4f}  "
                f"{outcome}"
            )
    share_a = a_failed / a_attempted if a_attempted else 0.0
    share_b = b_failed / b_attempted if b_attempted else 0.0
    print(
        f"failed operations: A {a_failed}/{a_attempted}, "
        f"B {b_failed}/{b_attempted}"
    )
    return 1 if regressed or share_b > share_a else 0


def spread_report(paths: Sequence[str]) -> int:
    spec = load_benchmark_spec()
    samples, attempted, failed = load_set(paths)
    print(
        f"{'workload':14s} {'metric':18s} {'runs':>4s} {'median':>14s} "
        f"{'spread':>8s} {'bound/3':>8s}"
    )
    unsteady = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            values = samples.get((workload, metric["name"]))
            if not values:
                continue
            spread = quartile_spread(values)
            limit = metric["bound"] / 3
            # The acceptance rule exempts setup_s from the spread limit.
            wide = spread > limit and metric["name"] != "setup_s"
            unsteady += wide
            print(
                f"{workload:14s} {metric['name']:18s} {len(values):4d} "
                f"{median(values):14.6g} {spread:8.4f} {limit:8.4f}"
                + ("  WIDE" if wide else "")
            )
    print(f"failed operations: {failed}/{attempted}")
    return 1 if unsteady or failed else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=[])
    parser.add_argument("--b", nargs="+", default=[])
    parser.add_argument("--spread", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.spread:
        return spread_report(args.spread)
    if len(args.files) == 2 and not args.a and not args.b:
        args.a, args.b = [args.files[0]], [args.files[1]]
    if not args.a or not args.b or args.files and len(args.files) != 2:
        parser.error("give two result files, or --a ... --b ...")
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
