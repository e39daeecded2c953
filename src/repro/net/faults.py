"""Deterministic network impairment for the live-network runtime.

The simulator can model lossy links analytically; the live runtime
needs the real thing. A :class:`FaultInjector` sits on a node's UDP
*send* path and, per outgoing datagram, decides to drop it, delay it
(uniform latency within a configured window), duplicate it, or hold it
back long enough to reorder it behind later traffic. Dropping the
datagram at the sender is indistinguishable, to the rest of the
cluster, from the network eating it in flight — and it keeps the shim
in pure Python with zero kernel dependencies (no tc/netem).

Determinism is the contract that makes impaired runs debuggable:

* every link (destination ``host:port``) gets its own named RNG stream
  derived with :func:`repro.common.rng.child_seed` from the injector
  seed, so traffic on one link never perturbs the draws of another;
* each datagram consumes a *fixed-length* block of draws from its
  link's stream regardless of the outcomes, so the k-th datagram sent
  over a link meets the same fate in every run with the same seed.

Two fleet runs with the same scenario file and ``--fault-seed``
therefore make identical per-link drop/delay/duplicate decisions
(see ``docs/live_network.md`` for the full determinism contract).

A :class:`FaultProfile` describes the impairment: default
:class:`LinkFaults` plus optional per-destination overrides — the JSON
form accepted by ``repro node --fault-profile`` and by the ``faults``
block of a fleet scenario::

    {
      "loss": 0.1,
      "latency_ms": [0, 5],
      "duplicate": 0.01,
      "reorder": 0.05,
      "reorder_extra_ms": 20,
      "links": {"127.0.0.1:9805": {"loss": 1.0}}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry

__all__ = [
    "FaultInjector",
    "FaultProfile",
    "LinkFaults",
    "load_fault_profile",
    "parse_latency_spec",
]

Address = Tuple[str, int]

_MS = 1000.0


def parse_latency_spec(value: str) -> Tuple[float, float]:
    """Parse a ``LO:HI`` (or bare ``MS``) millisecond spec into seconds.

    >>> parse_latency_spec("5:20")
    (0.005, 0.02)
    >>> parse_latency_spec("10")
    (0.01, 0.01)
    """
    parts = value.split(":")
    try:
        numbers = [float(part) for part in parts]
    except ValueError as exc:
        raise ConfigurationError(
            f"latency spec must be MS or LO:HI milliseconds, got {value!r}"
        ) from exc
    if len(numbers) == 1:
        lo = hi = numbers[0]
    elif len(numbers) == 2:
        lo, hi = numbers
    else:
        raise ConfigurationError(
            f"latency spec must be MS or LO:HI milliseconds, got {value!r}"
        )
    if not (math.isfinite(hi) and 0 <= lo <= hi):
        raise ConfigurationError(
            f"latency window must satisfy 0 <= LO <= HI < inf, got {value!r}"
        )
    return (lo / _MS, hi / _MS)


@dataclass(frozen=True)
class LinkFaults:
    """Impairment parameters of one link (all probabilities in [0, 1]).

    ``latency`` is a uniform one-way delay window in *seconds*;
    ``reorder_extra`` is the additional hold-back a reordered datagram
    suffers (long enough to land behind the traffic sent after it).
    """

    loss: float = 0.0
    latency: Tuple[float, float] = (0.0, 0.0)
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_extra: float = 0.02

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault {name} must be a probability in [0, 1], "
                    f"got {value}"
                )
        lo, hi = self.latency
        if not (math.isfinite(hi) and 0 <= lo <= hi):
            raise ConfigurationError(
                f"latency window must satisfy 0 <= lo <= hi < inf, "
                f"got ({lo}, {hi})"
            )
        if not (math.isfinite(self.reorder_extra) and self.reorder_extra >= 0):
            raise ConfigurationError(
                f"reorder_extra must be finite and >= 0, "
                f"got {self.reorder_extra}"
            )

    @property
    def active(self) -> bool:
        """Whether this link deviates from a perfect network at all."""
        return (
            self.loss > 0
            or self.duplicate > 0
            or self.reorder > 0
            or self.latency[1] > 0
        )

    _FIELDS = {
        "loss": "loss",
        "duplicate": "duplicate",
        "reorder": "reorder",
        "latency_ms": "latency",
        "reorder_extra_ms": "reorder_extra",
    }

    @classmethod
    def from_dict(
        cls, obj: Mapping[str, Any], where: str = "fault profile"
    ) -> "LinkFaults":
        """Build from the JSON form (milliseconds on the wire format)."""
        if not isinstance(obj, Mapping):
            raise ConfigurationError(f"{where} must be an object, got {obj!r}")
        unknown = sorted(set(obj) - set(cls._FIELDS))
        if unknown:
            raise ConfigurationError(
                f"{where} has unknown keys {unknown} "
                f"(expected {sorted(cls._FIELDS)})"
            )
        kwargs: Dict[str, Any] = {}
        for key, attr in cls._FIELDS.items():
            if key not in obj:
                continue
            value = obj[key]
            if key == "latency_ms":
                if (
                    not isinstance(value, (list, tuple))
                    or len(value) != 2
                ):
                    raise ConfigurationError(
                        f"{where}: latency_ms must be [lo, hi] "
                        f"milliseconds, got {value!r}"
                    )
                kwargs[attr] = (
                    float(value[0]) / _MS,
                    float(value[1]) / _MS,
                )
            elif key == "reorder_extra_ms":
                kwargs[attr] = float(value) / _MS
            else:
                kwargs[attr] = float(value)
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form (inverse of :meth:`from_dict`)."""
        return {
            "loss": self.loss,
            "latency_ms": [self.latency[0] * _MS, self.latency[1] * _MS],
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "reorder_extra_ms": self.reorder_extra * _MS,
        }


@dataclass(frozen=True)
class FaultProfile:
    """A whole node's impairment: defaults plus per-link overrides.

    Override keys are destination endpoints (``host:port``). An
    override replaces only the parameters it names; everything else is
    inherited from the default link.
    """

    default: LinkFaults = field(default_factory=LinkFaults)
    links: Mapping[str, LinkFaults] = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.default.active or any(
            link.active for link in self.links.values()
        )

    def for_link(self, key: str) -> LinkFaults:
        return self.links.get(key, self.default)

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "FaultProfile":
        if not isinstance(obj, Mapping):
            raise ConfigurationError(
                f"fault profile must be an object, got {obj!r}"
            )
        base = {key: value for key, value in obj.items() if key != "links"}
        default = LinkFaults.from_dict(base)
        links: Dict[str, LinkFaults] = {}
        raw_links = obj.get("links", {})
        if not isinstance(raw_links, Mapping):
            raise ConfigurationError(
                f"fault profile 'links' must map endpoint to overrides, "
                f"got {raw_links!r}"
            )
        for endpoint, override in raw_links.items():
            if not isinstance(override, Mapping):
                raise ConfigurationError(
                    f"fault override for {endpoint!r} must be an object, "
                    f"got {override!r}"
                )
            merged = LinkFaults.from_dict(
                override, where=f"fault override {endpoint!r}"
            )
            # Inherit unnamed parameters from the default link.
            fields = {
                LinkFaults._FIELDS[key] for key in override
            }
            links[str(endpoint)] = replace(
                default,
                **{
                    name: getattr(merged, name)
                    for name in (
                        "loss",
                        "latency",
                        "duplicate",
                        "reorder",
                        "reorder_extra",
                    )
                    if name in fields
                },
            )
        return cls(default=default, links=links)

    def to_dict(self) -> Dict[str, Any]:
        obj = self.default.to_dict()
        if self.links:
            obj["links"] = {
                endpoint: link.to_dict()
                for endpoint, link in sorted(self.links.items())
            }
        return obj


def load_fault_profile(path: Path) -> FaultProfile:
    """Read a :class:`FaultProfile` from a JSON file."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read fault profile {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"fault profile {path} is not valid JSON: {exc}"
        ) from exc
    return FaultProfile.from_dict(obj)


class FaultInjector:
    """Per-datagram impairment decisions, deterministic given the seed.

    :meth:`plan` returns the send schedule for one datagram to ``addr``
    as a list of delays in seconds: empty means *dropped*, one entry is
    a (possibly delayed) single send, two entries mean the datagram is
    duplicated. Every call consumes exactly five draws from the link's
    stream — drop, duplicate, latency, reorder, duplicate-latency — in
    that fixed order, whatever the outcomes, so decision sequences are
    reproducible per link.
    """

    def __init__(self, profile: FaultProfile, seed: int) -> None:
        self.profile = profile
        self.seed = int(seed)
        self._streams = RngRegistry(self.seed)
        self.decisions = 0

    def plan(self, addr: Address) -> List[float]:
        key = f"{addr[0]}:{addr[1]}"
        params = self.profile.for_link(key)
        rng = self._streams.stream(key)
        u_drop = rng.random()
        u_duplicate = rng.random()
        latency = rng.uniform(*params.latency)
        u_reorder = rng.random()
        duplicate_latency = rng.uniform(*params.latency)
        self.decisions += 1
        if u_drop < params.loss:
            return []
        delay = latency
        if u_reorder < params.reorder:
            delay += params.reorder_extra
        schedule = [delay]
        if u_duplicate < params.duplicate:
            schedule.append(duplicate_latency)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(seed={self.seed}, "
            f"decisions={self.decisions})"
        )
