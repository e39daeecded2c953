"""In-memory span recorder for the traced (per-layer) run.

A span is ``(name, start, end, parent, ids)``; spans of one trial or
message share the identifier in ``ids``. Spans are recorded by the
harness around each call into a layer, kept in memory, and written out
when the workload ends. A layer's *self time* is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional


class Tracer:
    """Records nested spans; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **ids: Any) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "ids": ids,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def pack_children(self, parent: int, busy: Mapping[str, float]) -> None:
        """Record accumulated busy time of many short calls made inside
        span ``parent`` as one child span per name, laid back to back
        from the parent's start.

        A warm-up cycle makes thousands of ``execute_cycle`` calls;
        one span each would cost more than the calls. The packed
        children keep the tree arithmetic exact (children inside the
        parent, self time = duration - children) without them.
        """
        if not self.enabled:
            return
        record = self.spans[parent]
        cursor = record["start"]
        for name, seconds in busy.items():
            end = min(cursor + seconds, record["end"])
            self.spans.append(
                {
                    "name": name,
                    "start": cursor,
                    "end": end,
                    "parent": parent,
                    "ids": dict(record["ids"], packed=True),
                }
            )
            cursor = end

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def self_times(self) -> Dict[str, float]:
        """Self time per span name (duration minus direct children)."""
        return self_times(self.spans)

    def write(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, spans=self.spans, self_times=self.self_times())
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def self_times(spans: List[Mapping[str, Any]]) -> Dict[str, float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span["end"] - span["start"]) - covered[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def malformed_spans(spans: List[Mapping[str, Any]]) -> List[str]:
    """Why the span list is not a well-formed forest (empty = it is):
    every span closed, parent recorded earlier, child inside parent."""
    problems: List[str] = []
    for index, span in enumerate(spans):
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {index} ({span['name']}) is not closed")
            continue
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < index:
            problems.append(f"span {index} has a bad parent {parent}")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] or span["end"] > outer["end"]:
            problems.append(
                f"span {index} ({span['name']}) leaves its parent "
                f"{parent} ({outer['name']})"
            )
    return problems
