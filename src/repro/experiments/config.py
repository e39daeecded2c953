"""Experiment configuration and scale presets.

The paper's evaluation runs 10,000 nodes with CYCLON and VICINITY view
length 20, 100 warm-up cycles, fanouts 1–20 and 100 repetitions per
data point. Full paper scale is available (``REPRO_SCALE=paper``) but
slow in pure Python, so two reduced presets preserve every macroscopic
shape at a fraction of the cost:

========  =======  ===========  ========  ===============
scale     nodes    repetitions  fanouts   churn networks
========  =======  ===========  ========  ===============
tiny      150      8            1–8       1
small     500      20           1–12      2
medium    2000     30           1–16      2
paper     10000    100          1–20      3
========  =======  ===========  ========  ===============

``tiny`` exists for the test suite only. The figure benches write
their tables to ``results/`` with the scale in the file name
(``fig6_small.txt``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.common.errors import ConfigurationError

__all__ = ["ExperimentConfig", "OverlaySpec", "scale_config"]

SCALE_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True)
class OverlaySpec:
    """Which overlay/protocol stack an experiment builds.

    Attributes:
        kind: ``"randcast"`` (CYCLON only), ``"ringcast"`` (CYCLON +
            ring VICINITY), ``"multiring"`` (k independent rings),
            ``"hararycast"`` (circulant d-links of connectivity t), or
            ``"domain_ring"`` (domain-sorted ring, §8).
        num_rings: Independent rings for ``multiring``.
        harary_connectivity: Even d-link connectivity for
            ``hararycast`` (t = 2 reduces to plain RINGCAST).
        num_domains: Synthetic domain count for ``domain_ring``.
    """

    kind: str = "ringcast"
    num_rings: int = 1
    harary_connectivity: int = 2
    num_domains: int = 20

    _KINDS = (
        "randcast",
        "ringcast",
        "multiring",
        "hararycast",
        "domain_ring",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown overlay kind {self.kind!r}; expected one of "
                f"{self._KINDS}"
            )
        if self.num_rings < 1:
            raise ConfigurationError("num_rings must be >= 1")
        if self.harary_connectivity < 2 or self.harary_connectivity % 2:
            raise ConfigurationError(
                "harary_connectivity must be an even integer >= 2, got "
                f"{self.harary_connectivity}"
            )

    @property
    def uses_vicinity(self) -> bool:
        """Whether this overlay runs a VICINITY layer at all."""
        return self.kind != "randcast"

    @property
    def effective_rings(self) -> int:
        """How many VICINITY instances each node runs."""
        return self.num_rings if self.kind == "multiring" else 1


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one evaluation run.

    Defaults mirror the paper: view length 20 for both layers, 100
    warm-up cycles, churn rate 0.2% per cycle.
    """

    num_nodes: int = 500
    view_size: int = 20
    shuffle_length: int = 5
    vicinity_gossip_length: int = 10
    warmup_cycles: int = 100
    num_messages: int = 20
    num_networks: int = 1
    fanouts: Tuple[int, ...] = tuple(range(1, 13))
    seed: int = 42
    churn_rate: float = 0.002
    churn_networks: int = 1
    churn_max_cycles: int = 20_000
    scale_name: str = "custom"

    def __post_init__(self) -> None:
        if self.num_nodes < 3:
            raise ConfigurationError("need at least 3 nodes")
        if self.view_size < 2:
            raise ConfigurationError("view_size must be >= 2")
        if not 1 <= self.shuffle_length <= self.view_size:
            raise ConfigurationError(
                f"shuffle_length must be in [1, view_size={self.view_size}], "
                f"got {self.shuffle_length}"
            )
        if self.vicinity_gossip_length < 1:
            raise ConfigurationError(
                "vicinity_gossip_length must be >= 1, got "
                f"{self.vicinity_gossip_length}"
            )
        if self.warmup_cycles < 1:
            raise ConfigurationError("warmup_cycles must be >= 1")
        if self.num_messages < 1:
            raise ConfigurationError("num_messages must be >= 1")
        if not self.fanouts:
            raise ConfigurationError("fanouts must be non-empty")
        if any(f < 1 for f in self.fanouts):
            raise ConfigurationError("all fanouts must be >= 1")
        if not 0.0 <= self.churn_rate < 1.0:
            raise ConfigurationError("churn_rate must be in [0, 1)")

    @classmethod
    def check_override_names(cls, names: Iterable[str]) -> None:
        """Raise :class:`ConfigurationError` for a name that is not a
        field — the api keyword and the spec-file key alike."""
        known = {f.name for f in fields(cls)}
        for name in names:
            if name not in known:
                raise ConfigurationError(
                    f"unknown config override {name!r}; expected an "
                    f"ExperimentConfig field"
                )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        self.check_override_names(kwargs)
        return replace(self, **kwargs)


_PRESETS: Dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        num_nodes=150,
        warmup_cycles=60,
        num_messages=8,
        num_networks=1,
        fanouts=tuple(range(1, 9)),
        churn_networks=1,
        churn_rate=0.01,
        churn_max_cycles=1_200,
        scale_name="tiny",
    ),
    "small": ExperimentConfig(
        num_nodes=500,
        warmup_cycles=100,
        num_messages=20,
        num_networks=1,
        fanouts=tuple(range(1, 13)),
        churn_networks=2,
        churn_rate=0.004,
        churn_max_cycles=4_000,
        scale_name="small",
    ),
    "medium": ExperimentConfig(
        num_nodes=2_000,
        warmup_cycles=100,
        num_messages=30,
        num_networks=1,
        fanouts=tuple(range(1, 17)),
        churn_networks=2,
        churn_rate=0.002,
        churn_max_cycles=12_000,
        scale_name="medium",
    ),
    "paper": ExperimentConfig(
        num_nodes=10_000,
        warmup_cycles=100,
        num_messages=100,
        num_networks=1,
        fanouts=tuple(range(1, 21)),
        churn_networks=3,
        churn_rate=0.002,
        churn_max_cycles=60_000,
        scale_name="paper",
    ),
}


def scale_config(
    scale: Optional[str] = None, seed: Optional[int] = None
) -> ExperimentConfig:
    """The preset for ``scale`` (or the ``REPRO_SCALE`` env var, or small).

    >>> scale_config("tiny").num_nodes
    150
    """
    name = scale or os.environ.get(SCALE_ENV_VAR, "small")
    try:
        config = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None
    if seed is not None:
        config = config.with_overrides(seed=seed)
    return config
