"""Where the benchmark lives, what it runs on, and its scratch space."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

METHOD = (
    "one fresh process per workload; load generated in that process "
    "from --seed; open-loop phases time each publish from its due "
    "time, closed-loop phases keep 8 publishes outstanding; fleet "
    "metrics are medians over 1-s windows, batch metrics medians over "
    "passes after untimed warm batches; CPU-bound timing metrics are "
    "reported at nominal machine speed (a fixed harness kernel timed ~4 "
    "times a second during the run; see benchlib/calibrate.py); "
    "end-to-end numbers come from an untraced run, per-layer numbers "
    "from a separate traced run"
)


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero where there is no
    program to measure (a directory holding only the benchmark)."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: no program under test at {SRC_DIR}/repro — the "
            "benchmark measures the repository it is checked out in"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def load_benchmark_spec() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A temporary directory inside the checkout (``bench/out/``),
    removed on exit — the benchmark writes nowhere else."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def hardware_block() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
