"""What every workload is handed: its inputs, its accounting, and the
set-up clock."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set

from benchlib.calibrate import Calibrator
from benchlib.checks import Expected, Ops
from benchlib.stats import median
from benchlib.trace import Tracer


# Exponent of the machine-speed factor per end-to-end metric: times are
# divided by it, rates multiplied. Set-up time, memory and the
# delivery ratio are reported as measured.
SPEED_SCALED = {
    "job_wall_s": -1,
    "latency_p50_ms": -1,
    "cpu_ms_per_op": -1,
    "deliveries_per_s": 1,
}


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    ops: Ops
    tracer: Tracer
    expected: Expected
    speed: Calibrator
    # Metrics of this workload that a fixed schedule sets, not the CPU:
    # reported as measured, never scaled by the machine's speed.
    schedule_bound: Set[str] = field(default_factory=set)
    # Free-form facts for the result file (sample counts, reference
    # lines, findings) — never read back by the harness.
    notes: Dict[str, Any] = field(default_factory=dict)
    _setup_parts: List[float] = field(default_factory=list)

    def setup_spent(self, seconds: float) -> None:
        """Charge one-shot set-up work (imports, a fixed warm-up)."""
        self._setup_parts.append(seconds)

    def setup_repeat(self, build: Callable[[], Any], times: int) -> Any:
        """Run a repeatable set-up step ``times`` times, charge the
        median, and return the last result — so ``setup_s`` is steady
        enough to show work a later change moves into set-up."""
        walls = []
        result = None
        for _ in range(times):
            result = None  # drop the previous build before the next
            started = time.perf_counter()
            result = build()
            walls.append(time.perf_counter() - started)
        self._setup_parts.append(median(walls))
        return result

    @property
    def setup_s(self) -> float:
        return sum(self._setup_parts)

    def at_nominal_speed(self, measured: Dict[str, float]) -> Dict[str, float]:
        """The CPU-bound timing metrics as they would read with the
        machine at nominal speed (see :mod:`benchlib.calibrate`)."""
        speed = self.speed.speed
        self.notes["machine_speed"] = speed
        self.notes["calibration_samples"] = len(self.speed.samples)
        self.notes["as_measured"] = {
            name: measured[name] for name in SPEED_SCALED if name in measured
        }
        scaled = dict(measured)
        for name, power in SPEED_SCALED.items():
            if name in scaled and name not in self.schedule_bound:
                scaled[name] = scaled[name] * speed**power
        return scaled
