"""On-disk history of completed sweeps, keyed by spec fingerprint.

The sweep layer is deterministic: a :class:`~repro.experiments.sweep_spec.
SweepSpec` plus a root seed and an effective base configuration fully
determine every byte of the aggregated result. That makes completed
sweeps content-addressable — this module persists them into a store so
re-running an identical experiment is a pure lookup (zero trial
executions) and two experiment designs can be diffed without re-running
either.

The **identity** of an entry is the canonical JSON of ``{format,
fingerprint, root_seed, config, mode}`` — ``fingerprint`` is
``SweepSpec.fingerprint()``, ``config`` the effective-config digest and
``mode`` the run mode (overlay reuse, the fixed ``"core": "auto"``
field, and the adaptive-allocation settings when used), all of which change output
bytes and therefore key the store. Entry files are framed, read,
written and evicted by :mod:`repro.common.castore` (``RHISTZ1`` magic,
sealed, no trailing newline); on top of its miss-never-crash read,
loading validates format, identity and result sanity, so a hand-edited
or mismatched entry is a **miss** too.

``repro history list/show/gc`` exposes the store on the command line;
:func:`diff_sweeps` + :func:`render_sweep_diff` implement the per-cell
delta table behind ``repro sweep --diff``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common import castore
from repro.common.errors import ConfigurationError
from repro.experiments.sweep_results import (
    CellSummary,
    SweepResult,
    canonical_json,
)
from repro.experiments.sweep_spec import SweepSpec

__all__ = [
    "HISTORY_FORMAT",
    "HistoryEntry",
    "SweepDiff",
    "CellDelta",
    "diff_sweeps",
    "find_history_entry",
    "gc_history_store",
    "history_address",
    "history_mode",
    "history_path",
    "list_history",
    "load_history_entry",
    "render_sweep_diff",
    "store_history_entry",
]

HISTORY_FORMAT = 1

# Header marking a zlib-deflated entry file.
_ENTRY_MAGIC = b"RHISTZ1\n"


def history_mode(
    overlay_reuse: str = "trial",
    core: str = "auto",
    adaptive: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The run-mode dict that participates in history identity.

    Everything here changes result bytes for the *same* spec + seed +
    config, so two runs differing in any of it must occupy distinct
    history entries. ``core`` is ``"auto"`` for every sweep since the
    overlay picks the dissemination core; it stays in the dict because
    every stored history address hashes it.
    """
    mode: Dict[str, Any] = {"overlay_reuse": overlay_reuse, "core": core}
    if adaptive is not None:
        mode["adaptive"] = dict(adaptive)
    return mode


def _identity_payload(
    spec: SweepSpec,
    root_seed: int,
    config_digest: str,
    mode: Mapping[str, Any],
) -> Dict[str, Any]:
    return {
        "format": HISTORY_FORMAT,
        "fingerprint": spec.fingerprint(),
        "root_seed": root_seed,
        "config": config_digest,
        "mode": dict(mode),
    }


def history_address(
    spec: SweepSpec,
    root_seed: int,
    config_digest: str,
    mode: Mapping[str, Any],
) -> str:
    """Content address of the history entry for one exact invocation."""
    payload = _identity_payload(spec, root_seed, config_digest, mode)
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:24]


def history_path(store_dir: Path, address: str) -> Path:
    """Filesystem path of the entry with content address ``address``."""
    return Path(store_dir) / f"sweep_{address}.json"


# ----------------------------------------------------------------------
# entry validation
# ----------------------------------------------------------------------


def _decode_result(entry: Mapping[str, Any]) -> Optional[SweepResult]:
    """The stored :class:`SweepResult`, or ``None`` on any defect."""
    try:
        result = SweepResult.from_dict(entry["result"])
    except Exception:
        return None
    if not result.trials:
        return None
    for trial in result.trials:
        for value in (
            trial.mean_miss_ratio,
            trial.complete_fraction,
            trial.mean_hops,
            trial.mean_total_messages,
        ):
            if not math.isfinite(value):
                return None
    return result


def _read_entry(path: Path) -> Optional[Dict[str, Any]]:
    """One intact entry file of this format; ``None`` on any defect."""
    entry = castore.read_entry(path, _ENTRY_MAGIC)
    if entry is None or entry.get("format") != HISTORY_FORMAT:
        return None
    return entry


@dataclass(frozen=True)
class HistoryEntry:
    """One validated history entry, ready for reuse or reporting."""

    address: str
    path: Path
    fingerprint: str
    root_seed: int
    config_digest: str
    mode: Mapping[str, Any]
    created: float
    spec: Optional[SweepSpec]
    result: SweepResult
    adaptive: Optional[Mapping[str, Any]] = None

    @property
    def label(self) -> str:
        return f"{self.fingerprint}/{self.address[:8]}"

    def summary_row(self) -> Dict[str, Any]:
        scenarios = ",".join(self.result.scenarios())
        protocols = ",".join(self.result.protocols())
        return {
            "address": self.address,
            "fingerprint": self.fingerprint,
            "root_seed": self.root_seed,
            "scenarios": scenarios,
            "protocols": protocols,
            "trials": len(self.result.trials),
            "cells": len(self.result.cells),
            "adaptive": bool(self.adaptive),
            "created": self.created,
        }


def _entry_to_history(path: Path, entry: Mapping[str, Any]) -> Optional[HistoryEntry]:
    identity = entry.get("identity")
    if not isinstance(identity, dict):
        return None
    fingerprint = identity.get("fingerprint")
    root_seed = identity.get("root_seed")
    config_digest = identity.get("config")
    mode = identity.get("mode")
    if (
        not isinstance(fingerprint, str)
        or not isinstance(root_seed, int)
        or isinstance(root_seed, bool)
        or not isinstance(config_digest, str)
        or not isinstance(mode, dict)
    ):
        return None
    expected = hashlib.sha256(
        canonical_json(dict(identity)).encode("utf-8")
    ).hexdigest()[:24]
    name = path.name
    if name != f"sweep_{expected}.json":
        return None
    result = _decode_result(entry)
    if result is None:
        return None
    if result.root_seed != root_seed:
        return None
    spec: Optional[SweepSpec]
    try:
        spec = SweepSpec.from_dict(entry["spec"])
    except Exception:
        return None
    if spec.fingerprint() != fingerprint:
        return None
    created = entry.get("created")
    if not isinstance(created, (int, float)) or isinstance(created, bool):
        return None
    adaptive = entry.get("adaptive")
    if adaptive is not None and not isinstance(adaptive, dict):
        return None
    return HistoryEntry(
        address=expected,
        path=path,
        fingerprint=fingerprint,
        root_seed=root_seed,
        config_digest=config_digest,
        mode=mode,
        created=float(created),
        spec=spec,
        result=result,
        adaptive=adaptive,
    )


# ----------------------------------------------------------------------
# store / load
# ----------------------------------------------------------------------


def store_history_entry(
    store_dir: Path,
    spec: SweepSpec,
    result: SweepResult,
    root_seed: int,
    config_digest: str,
    mode: Mapping[str, Any],
    adaptive: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Persist one completed sweep; returns the entry path."""
    identity = _identity_payload(spec, root_seed, config_digest, mode)
    address = history_address(spec, root_seed, config_digest, mode)
    entry: Dict[str, Any] = {
        "format": HISTORY_FORMAT,
        "identity": identity,
        "spec": spec.to_dict(),
        "created": time.time(),
        "result": result.to_dict(),
    }
    if adaptive is not None:
        entry["adaptive"] = dict(adaptive)
    return castore.write_entry(
        history_path(store_dir, address),
        entry,
        _ENTRY_MAGIC,
        newline=False,
        sealed=True,
    )


def load_history_entry(
    store_dir: Path,
    spec: SweepSpec,
    root_seed: int,
    config_digest: str,
    mode: Mapping[str, Any],
) -> Optional[HistoryEntry]:
    """The stored entry for this exact invocation, or ``None`` (a miss).

    Every defect — missing file, truncation, bit flips, format drift,
    identity mismatch, non-finite metrics — is a miss, never a crash.
    """
    path = history_path(store_dir, history_address(spec, root_seed, config_digest, mode))
    entry = _read_entry(path)
    if entry is None:
        return None
    identity = entry.get("identity")
    if identity != _identity_payload(spec, root_seed, config_digest, mode):
        return None
    hit = _entry_to_history(path, entry)
    if hit is None:
        return None
    castore.touch(path)
    return hit


def list_history(store_dir: Path) -> List[HistoryEntry]:
    """Every valid entry in the store, newest first; junk is skipped."""
    entries: List[HistoryEntry] = []
    for path in castore.entry_paths(store_dir, "sweep_*.json"):
        entry = _read_entry(path)
        if entry is None:
            continue
        hit = _entry_to_history(path, entry)
        if hit is not None:
            entries.append(hit)
    entries.sort(key=lambda e: (-e.created, e.address))
    return entries


def find_history_entry(store_dir: Path, ref: str) -> HistoryEntry:
    """Resolve ``ref`` to an entry.

    Accepts a prefix of the address, of the spec fingerprint, or of
    the ``fingerprint/address`` label exactly as ``history list``
    prints it. Raises :class:`ConfigurationError` when the reference
    matches no valid entry or is ambiguous.
    """
    ref = ref.strip()
    if not ref:
        raise ConfigurationError("empty history reference")
    matches = [
        entry
        for entry in list_history(store_dir)
        if entry.address.startswith(ref)
        or entry.fingerprint.startswith(ref)
        or f"{entry.fingerprint}/{entry.address}".startswith(ref)
    ]
    if not matches:
        raise ConfigurationError(
            f"no history entry matches {ref!r} in {store_dir}"
        )
    if len(matches) > 1:
        labels = ", ".join(e.label for e in matches[:6])
        raise ConfigurationError(
            f"history reference {ref!r} is ambiguous: {labels}"
        )
    return matches[0]


def gc_history_store(store_dir: Path, max_bytes: int, keep: Iterable[Path] = ()) -> int:
    """Evict least-recently-used sweep entries until the store fits
    ``max_bytes`` (:func:`repro.common.castore.gc` has the rules).
    Returns the number of entries removed."""
    return castore.gc(store_dir, "sweep_*.json", max_bytes, keep)


# ----------------------------------------------------------------------
# diffing two sweeps
# ----------------------------------------------------------------------


def _cell_key(cell: CellSummary) -> Tuple[Any, ...]:
    return (
        cell.scenario,
        cell.protocol,
        cell.num_nodes,
        cell.fanout,
        cell.kill_fraction,
        cell.churn_rate,
        tuple(cell.params),
    )


@dataclass(frozen=True)
class CellDelta:
    """One matched cell across the two sweeps being compared."""

    a: CellSummary
    b: CellSummary

    @property
    def delta_miss_percent(self) -> float:
        return self.b.miss_percent - self.a.miss_percent

    @property
    def delta_hops(self) -> float:
        return self.b.mean_hops - self.a.mean_hops

    @property
    def delta_messages(self) -> float:
        return self.b.mean_total_messages - self.a.mean_total_messages

    @property
    def distinct(self) -> bool:
        """True when the 95% CIs on miss ratio do **not** overlap."""
        gap = abs(self.b.mean_miss_ratio - self.a.mean_miss_ratio)
        return gap > self.a.ci95_miss_ratio + self.b.ci95_miss_ratio


@dataclass(frozen=True)
class SweepDiff:
    """Per-cell comparison of two sweep results."""

    label_a: str
    label_b: str
    matched: Tuple[CellDelta, ...]
    only_a: Tuple[CellSummary, ...]
    only_b: Tuple[CellSummary, ...]

    @property
    def distinct_cells(self) -> int:
        return sum(1 for delta in self.matched if delta.distinct)


def diff_sweeps(
    result_a: SweepResult,
    result_b: SweepResult,
    label_a: str = "A",
    label_b: str = "B",
) -> SweepDiff:
    """Match cells of two sweeps by identity and compute deltas."""
    cells_b: Dict[Tuple[Any, ...], List[CellSummary]] = {}
    for cell in result_b.cells:
        cells_b.setdefault(_cell_key(cell), []).append(cell)
    matched: List[CellDelta] = []
    only_a: List[CellSummary] = []
    for cell in result_a.cells:
        bucket = cells_b.get(_cell_key(cell))
        if bucket:
            matched.append(CellDelta(a=cell, b=bucket.pop(0)))
        else:
            only_a.append(cell)
    only_b = [cell for bucket in cells_b.values() for cell in bucket]
    only_b.sort(key=_cell_key)
    return SweepDiff(
        label_a=label_a,
        label_b=label_b,
        matched=tuple(matched),
        only_a=tuple(only_a),
        only_b=tuple(only_b),
    )


def _fmt(value: float, digits: int = 2, signed: bool = False) -> str:
    text = f"{value:+.{digits}f}" if signed else f"{value:.{digits}f}"
    return text


def render_sweep_diff(diff: SweepDiff) -> str:
    """Fixed-width delta table, CI-overlap flagged per cell."""
    from repro.experiments.report import _table

    lines = [f"sweep diff: A={diff.label_a}  B={diff.label_b}"]
    if diff.matched:
        headers = [
            "scenario",
            "protocol",
            "N",
            "fanout",
            "params",
            f"miss% {diff.label_a}",
            f"miss% {diff.label_b}",
            "Δmiss%",
            "Δhops",
            "Δmsgs",
            "verdict",
        ]
        rows = []
        for delta in diff.matched:
            cell = delta.a
            extras = dict(cell.params)
            extras.setdefault("kill", cell.kill_fraction)
            extras.setdefault("churn", cell.churn_rate)
            params = ",".join(
                f"{name}={value:g}"
                for name, value in sorted(extras.items())
                if value
            )
            rows.append(
                [
                    cell.scenario,
                    cell.protocol,
                    cell.num_nodes,
                    cell.fanout,
                    params or "-",
                    _fmt(delta.a.miss_percent),
                    _fmt(delta.b.miss_percent),
                    _fmt(delta.delta_miss_percent, signed=True),
                    _fmt(delta.delta_hops, signed=True),
                    _fmt(delta.delta_messages, 1, signed=True),
                    "distinct" if delta.distinct else "overlap",
                ]
            )
        lines.append(_table(headers, rows))
        lines.append(
            f"{diff.distinct_cells}/{len(diff.matched)} matched cells "
            "differ beyond overlapping 95% CIs"
        )
    else:
        lines.append("no cells in common")
    for label, cells in ((diff.label_a, diff.only_a), (diff.label_b, diff.only_b)):
        if cells:
            described = ", ".join(
                f"{c.scenario}/{c.protocol}/n{c.num_nodes}/f{c.fanout}"
                for c in cells
            )
            lines.append(f"only in {label}: {described}")
    return "\n".join(lines)
