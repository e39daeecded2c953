"""Failed-operation accounting and the pinned correctness digests."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from benchlib.env import BENCH_DIR

EXPECTED_JSON = BENCH_DIR / "expected.json"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(results) -> str:
    """Digest of a batch of ``DisseminationResult``s: everything the
    paper's figures read, in message order."""
    rows = [
        (
            r.origin,
            r.population,
            r.notified,
            r.hops,
            r.msgs_virgin,
            r.msgs_redundant,
            r.msgs_to_dead,
        )
        for r in results
    ]
    return sha256_text(json.dumps(rows))


class Ops:
    """Operations attempted and failed, each failure kept by name.

    An operation is a trial, a disseminated message, a (message, node)
    delivery pair, or one correctness check; a failed check is a failed
    operation, printed by name.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, attempted: int, failed: int = 0, name: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed} of {attempted} failed")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Expected:
    """``bench/expected.json``: digests pinned per (profile, seed).

    A seed that is not pinned enforces only the cross-pass and
    cross-backend equalities the workloads check themselves.
    """

    def __init__(self, profile: str, seed: int) -> None:
        payload: Dict[str, Any] = json.loads(
            EXPECTED_JSON.read_text(encoding="utf-8")
        )
        self.numpy_version: str = payload["numpy_version"]
        self._pins: Dict[str, str] = (
            payload["digests"].get(profile, {}).get(str(seed), {})
        )

    def check(self, ops: Ops, key: str, digest: str) -> None:
        """A pinned digest must match; an unpinned one passes."""
        pin = self._pins.get(key)
        if pin is not None:
            ops.check(
                f"digest:{key}",
                digest == pin,
                f"got {digest[:16]}, pinned {pin[:16]}",
            )
