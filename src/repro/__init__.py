"""Reproduction of *Hybrid Dissemination: Adding Determinism to
Probabilistic Multicasting in Large-Scale P2P Systems* (Voulgaris & van
Steen, Middleware 2007).

The package implements, from scratch:

* a PeerSim-like simulation substrate (:mod:`repro.sim`),
* the epidemic membership protocols the paper builds on — CYCLON for
  random links and VICINITY for proximity links (:mod:`repro.membership`),
* the dissemination protocol family — deterministic flooding, the
  probabilistic RANDCAST baseline, and the paper's hybrid RINGCAST
  (:mod:`repro.dissemination`),
* failure and churn models (:mod:`repro.failures`),
* the full evaluation harness regenerating every figure of the paper's
  evaluation section (:mod:`repro.experiments`),
* the extensions sketched in the paper's discussion section — multiple
  rings, Harary d-links, domain-proximity rings, pull-based recovery and
  topic-based publish/subscribe (:mod:`repro.extensions`,
  :mod:`repro.pubsub`).

Quickstart
----------

>>> from repro import build_overlay, disseminate
>>> snapshot = build_overlay(num_nodes=200, protocol="ringcast", seed=1)
>>> result = disseminate(snapshot, fanout=3, seed=2)
>>> result.hit_ratio
1.0
"""

from repro.api import (
    build_overlay,
    disseminate,
    flat_spec,
    run_adaptive_sweep,
    run_experiment,
    run_sweep,
    run_sweep_diff,
    scenario,
)
from repro.dissemination.executor import DisseminationResult
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.sweep_results import SweepResult
from repro.experiments.sweep_spec import SweepSpec

__version__ = "9.0.0"

__all__ = [
    "DisseminationResult",
    "OverlaySnapshot",
    "SweepResult",
    "SweepSpec",
    "__version__",
    "build_overlay",
    "disseminate",
    "flat_spec",
    "run_adaptive_sweep",
    "run_experiment",
    "run_sweep",
    "run_sweep_diff",
    "scenario",
]
