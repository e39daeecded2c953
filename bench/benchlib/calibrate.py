"""Machine-speed calibration, so a run reads the same in a slow spell.

A shared 2-core sandbox runs 20–30 % slower for tens of seconds at a
time — every kind of work alike (interpreter, JSON, loopback UDP, file
flushes move together), and for longer than a run lasts, so no median
*within* a run can filter it. Each run therefore times a fixed kernel
of the harness's own (no code of the program under test: a later
change must not be able to move it) a few times a second while it
measures, and reports its CPU-bound timing metrics at the speed at
which that kernel takes ``NOMINAL_SECONDS``:

    speed = median(kernel seconds in this run) / NOMINAL_SECONDS
    time-like metric  -> measured / speed
    rate-like metric  -> measured * speed

Sized on the machine of ``bench/baseline/``: over five minutes of
drift the 20-s medians of fleet-like and sweep-like work spread 16–19 %
raw and 3–7 % after dividing by the kernel. The raw values and the
speed are kept in each run's notes.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path
from typing import Dict, List

from benchlib.stats import median

# What the kernel takes on the baseline machine at its usual speed; a
# constant, so that normalised values stay readable as ms and s.
NOMINAL_SECONDS = 0.0021

_MESSAGE = {
    "from": 1,
    "hop": 2,
    "msg_id": "00000000000b-17",
    "origin": 11,
    "payload": "x" * 64,
    "t": "gossip",
}


class Calibrator:
    """Times the kernel on demand; owns two loopback sockets and one
    scratch file, released by :meth:`close`."""

    def __init__(self, scratch_file: Path) -> None:
        self.samples: List[float] = []
        self._rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._rx.bind(("127.0.0.1", 0))
        self._rx.settimeout(1.0)
        self._tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._addr = self._rx.getsockname()
        self._file = open(scratch_file, "w", encoding="utf-8")

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times."""
        for _ in range(times):
            self._kernel()

    def _kernel(self) -> None:
        """Interpreter + JSON work, then datagrams through the loopback
        and flushed lines — the mix the three stacks do."""
        started = time.perf_counter()
        total = 0
        for _ in range(120):
            total += len(json.loads(json.dumps(_MESSAGE, sort_keys=True)))
        table = [(i * 7919) % 1013 for i in range(3000)]
        table.sort()
        index: Dict[int, int] = {value: value for value in table}
        total += len(index)
        data = b"y" * 150
        for _ in range(80):
            self._tx.sendto(data, self._addr)
            self._rx.recv(1000)
            self._file.write("y" * 150 + "\n")
            self._file.flush()
        self._file.seek(0)
        self._file.truncate()
        self.samples.append(time.perf_counter() - started)

    @property
    def speed(self) -> float:
        """How much slower than nominal this run's machine was."""
        if not self.samples:
            return 1.0
        return median(self.samples) / NOMINAL_SECONDS

    def close(self) -> None:
        self._rx.close()
        self._tx.close()
        self._file.close()
