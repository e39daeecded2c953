"""Array-native dissemination core.

A struct-of-arrays mirror of the object core: frozen overlays become
CSR-style numpy arrays (:class:`ArrayOverlay`), and dissemination
advances a whole hop frontier per step with batched neighbor gathers
and array-reduction counters (:func:`disseminate`).

Two RNG regimes share the vectorized frontier machinery:

* **compat** — pass a :class:`random.Random` and per-node target
  selection replays the object core's exact draw sequence, so results
  are *bit-identical* to :func:`repro.dissemination.executor.disseminate`
  (the hypothesis equivalence suite pins this).
* **fast** — pass a :class:`numpy.random.Generator` and selection is
  fully vectorized (padded pools + partial Fisher–Yates); statistically
  equivalent, and still exactly equal whenever no random draw is needed
  (flooding, or budget >= pool everywhere).

The :mod:`~repro.arraysim.codec` module packs snapshots into compact
``.npz`` payloads so the snapshot store can persist large overlays.

Sweeps and figures pick the core from the overlay, by one rule
(:func:`uses_array_core`): the array core runs from
:data:`ARRAY_CORE_MIN_NODES` alive nodes up, for the built-in policies;
everything smaller stays on the reference object executor. The array
core stays directly callable as :func:`disseminate_many`.
"""

from typing import Optional

from repro.arraysim.codec import (
    CODEC_FORMAT,
    SnapshotCodecError,
    decode_snapshot,
    encode_snapshot,
)
from repro.arraysim.engine import (
    disseminate,
    disseminate_many,
    numpy_targets_rng,
    supports_policy,
)
from repro.arraysim.overlay import ArrayOverlay
from repro.dissemination.policies import TargetPolicy

__all__ = [
    "ARRAY_CORE_MIN_NODES",
    "ArrayOverlay",
    "CODEC_FORMAT",
    "SnapshotCodecError",
    "decode_snapshot",
    "disseminate",
    "disseminate_many",
    "encode_snapshot",
    "numpy_targets_rng",
    "supports_policy",
    "uses_array_core",
]

#: Dissemination over at least this many alive nodes runs on the array
#: core (see :func:`uses_array_core`).
ARRAY_CORE_MIN_NODES = 50_000


def uses_array_core(
    population: int, policy: Optional[TargetPolicy] = None
) -> bool:
    """Whether dissemination over ``population`` alive nodes runs on
    the array core: the one selection rule.

    The threshold is :data:`ARRAY_CORE_MIN_NODES`, and ``policy``, when
    given, must be one the array core implements
    (:func:`supports_policy`). Every seed-scale run, and so every
    committed golden, stays on the object executor. Callers that know
    only a trial's size (the trial-cache digest tag) pass no policy.
    """
    return population >= ARRAY_CORE_MIN_NODES and (
        policy is None or supports_policy(policy)
    )
