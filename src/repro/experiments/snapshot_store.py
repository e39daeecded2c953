"""Content-addressed overlay snapshot store + per-trial overlay reuse.

Warm-up dominates sweep cost: every trial runs ~100 CYCLON+VICINITY
gossip cycles before it disseminates a handful of messages. This module
caches the *frozen overlay* itself — the product of that warm-up — so
repeated builds become disk (or memory) loads.

Identity is two-layered, and the split is what keeps determinism
honest:

* The **overlay key** (:func:`overlay_key`) is the fanout-independent
  content address: overlay family (scenarios whose build procedure is
  identical — ``static``/``catastrophic``/``multi_message`` all freeze
  the same failure-free warm-up — declare a shared
  ``ScenarioSchema.overlay_family``), protocol, population size, the
  overlay-affecting scenario parameters (each
  :class:`~repro.experiments.scenario_matrix.ParamSpec` declares
  ``affects_overlay``; ``churn_rate`` does, ``kill_fraction`` — applied
  *after* freeze — does not), and the replicate index. Fanout,
  ``num_messages``, ``kill_fraction``, ``concurrent_messages`` and
  ``pulls_per_round`` never appear in it (property-tested).
* The **overlay seed** (:meth:`SnapshotProvider.overlay_seed`) is the
  variant discriminator: the root seed of the RNG universe the overlay
  is built in. Two trials share a stored snapshot exactly when they
  would have built bit-identical overlays.

That second layer exists because of a fact the engine must not paper
over: the legacy sweep contract derives each trial's *entire* RNG
universe from ``(root_seed, spec.key)`` — and ``spec.key`` embeds the
fanout. Trials differing only in fanout therefore build *different*
overlays today, and the byte-identity goldens in ``tests/data/`` pin
that. So the provider runs in one of two modes:

* ``"trial"`` (default) — overlays are built in the legacy per-trial
  universe and the overlay seed is that universe's root. Every byte of
  sweep output is identical with the store on, off, cold or warm; reuse
  kicks in across re-runs (resume, repeated grids, benches) where the
  whole warm-up is skipped.
* ``"grid"`` — overlays are built in a universe derived from the
  *overlay key* instead, so all dissemination-only siblings (fanouts,
  kill fractions, message counts — and sibling scenarios of the same
  overlay family) genuinely share one overlay per replicate, cutting
  grid warm-up cost ~|fanouts|×. This matches the paper's own
  methodology (one frozen overlay, swept across fanouts) but is a
  different — equally deterministic, backend-independent — experiment
  design than the legacy per-trial universes, so it is opt-in
  (``run_sweep(overlay_reuse="grid")`` / ``--overlay-reuse grid``).

Entry files are framed, read, written and evicted by
:mod:`repro.common.castore` (``RSNAPZ1`` magic, sealed); on top of its
miss-never-crash read this module treats a seed/config/key mismatch or
an undecodable snapshot as a miss too — never a silently wrong overlay.
"""

from __future__ import annotations

import base64
import hashlib
import math
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.common import castore
from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry, child_seed
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep_results import (
    UNIVERSAL_PARAM_DEFAULTS,
    TrialSpec,
    canonical_json,
)

__all__ = [
    "NPZ_ENTRY_MIN_NODES",
    "OVERLAY_REUSE_MODES",
    "SNAPSHOT_FORMAT",
    "SnapshotProvider",
    "gc_snapshot_store",
    "load_snapshot_entry",
    "overlay_config_digest",
    "overlay_key",
    "overlay_params",
    "snapshot_address",
    "snapshot_from_dict",
    "snapshot_path",
    "snapshot_to_dict",
    "store_snapshot_entry",
]

# Bump when the on-disk entry schema changes; stale files become misses.
SNAPSHOT_FORMAT = 1

OVERLAY_REUSE_MODES = ("trial", "grid")

# Version-tagged header marking a zlib-deflated entry file. Files
# without it are parsed as the historical plain-JSON format, so stores
# written before compression landed keep loading untouched.
_ENTRY_MAGIC = b"RSNAPZ1\n"

#: Populations at (or above) this size store their snapshot as a
#: base64 ``.npz`` payload (:mod:`repro.arraysim.codec`) instead of the
#: nested-JSON form — roughly an order of magnitude smaller on disk.
#: The codec canonicalises zero-valued
#: ``ring_ids``/``join_cycles`` entries away, which no post-freeze
#: consumer can observe, but small seed-scale entries keep the exact
#: JSON round-trip anyway.
NPZ_ENTRY_MIN_NODES = 10_000

# The config fields overlay construction actually reads
# (build_population + warm_up + the churn turnover loop). Everything
# else — num_messages, fanouts, num_networks — is dissemination- or
# orchestration-only and deliberately excluded, so the per-trial config
# (which pins fanouts=(F,)) maps to one digest across fanout siblings.
_OVERLAY_CONFIG_FIELDS = (
    "num_nodes",
    "view_size",
    "shuffle_length",
    "vicinity_gossip_length",
    "warmup_cycles",
    "churn_max_cycles",
)

# Universal legacy parameters that can ride on any spec without being
# declared by its scenario. None of them shapes the *stored* overlay:
# kill_fraction is applied after freeze, the other three are pure
# dissemination knobs. A scenario that *declares* one (e.g. churn_rate)
# decides via its ParamSpec.affects_overlay instead.
_UNIVERSAL_DISSEMINATION_ONLY = frozenset(UNIVERSAL_PARAM_DEFAULTS)


def overlay_config_digest(config: ExperimentConfig) -> str:
    """Digest of the overlay-affecting subset of an experiment config."""
    payload = {
        name: getattr(config, name) for name in _OVERLAY_CONFIG_FIELDS
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:16]


def overlay_params(
    spec: TrialSpec,
) -> Tuple[Tuple[str, Union[int, float]], ...]:
    """The spec parameters that shape overlay construction, sorted.

    A parameter is overlay-affecting when its scenario's schema declares
    it with ``affects_overlay=True``. Undeclared non-universal
    parameters (a hand-built spec, or a scenario unknown in this
    process) are included conservatively — a needlessly split cache is
    harmless, a wrongly shared overlay never is.
    """
    from repro.experiments.scenario_matrix import scenario_schema

    try:
        schema = scenario_schema(spec.scenario)
    except ConfigurationError:
        schema = None
    items = []
    for name, value in spec.params:
        declared = schema.param(name) if schema is not None else None
        if declared is not None:
            if declared.affects_overlay:
                items.append((name, value))
        elif name not in _UNIVERSAL_DISSEMINATION_ONLY:
            items.append((name, value))
    return tuple(items)


def overlay_key(spec: TrialSpec) -> str:
    """The fanout-independent content address of a trial's overlay.

    Two specs share an overlay key exactly when their overlay builds
    are the same *procedure with the same parameters*: same overlay
    family, protocol, population, overlay-affecting parameters and
    replicate. Fanout, ``num_messages`` and the dissemination-only
    universal knobs never influence it.
    """
    from repro.experiments.scenario_matrix import scenario_schema

    try:
        schema = scenario_schema(spec.scenario)
        family = schema.overlay_family or spec.scenario
    except ConfigurationError:
        family = spec.scenario
    extra = "".join(
        f"/{name}={value!r}" for name, value in overlay_params(spec)
    )
    return (
        f"overlay/{family}/{spec.protocol}/n{spec.num_nodes}"
        f"{extra}/rep{spec.replicate}"
    )


def snapshot_address(
    spec: TrialSpec, config: ExperimentConfig, overlay_seed: int
) -> str:
    """Content address of one stored overlay variant.

    ``overlay_seed`` is the root of the RNG universe the overlay is
    built in; including it makes a hit return exactly the overlay the
    trial would have built itself — the byte-identity guarantee.
    """
    return hashlib.sha256(
        f"snap{SNAPSHOT_FORMAT}:{overlay_seed}:"
        f"{overlay_config_digest(config)}:{overlay_key(spec)}".encode(
            "utf-8"
        )
    ).hexdigest()[:24]


def snapshot_path(
    store_dir: Union[str, Path], address: str
) -> Path:
    """Stable file location for one overlay variant."""
    return Path(store_dir) / f"overlay_{address}.json"


# ----------------------------------------------------------------------
# snapshot (de)serialisation
# ----------------------------------------------------------------------


def snapshot_to_dict(snapshot: OverlaySnapshot) -> Dict[str, Any]:
    """A JSON-safe mapping that round-trips the snapshot exactly."""
    return {
        "kind": snapshot.kind,
        "rlinks": {
            str(node): list(links)
            for node, links in snapshot.rlinks.items()
        },
        "dlinks": {
            str(node): list(links)
            for node, links in snapshot.dlinks.items()
        },
        "alive_ids": list(snapshot.alive_ids),
        "ring_ids": {
            str(node): value for node, value in snapshot.ring_ids.items()
        },
        "join_cycles": {
            str(node): value
            for node, value in snapshot.join_cycles.items()
        },
        "frozen_at_cycle": snapshot.frozen_at_cycle,
    }


def _int_keyed(table: Mapping[str, Any], values_to_tuple: bool) -> Dict:
    out: Dict[int, Any] = {}
    for key, value in table.items():
        out[int(key)] = tuple(value) if values_to_tuple else value
    return out


def snapshot_from_dict(payload: Mapping[str, Any]) -> OverlaySnapshot:
    """Rebuild a snapshot from its wire/disk form.

    JSON stringifies dict keys and listifies tuples; this restores the
    exact in-memory shapes so ``rebuilt == original`` holds field for
    field (and therefore every dissemination over it draws identically).
    """
    return OverlaySnapshot(
        kind=str(payload["kind"]),
        rlinks=_int_keyed(payload["rlinks"], values_to_tuple=True),
        dlinks=_int_keyed(payload["dlinks"], values_to_tuple=True),
        alive_ids=tuple(int(node) for node in payload["alive_ids"]),
        ring_ids=_int_keyed(payload["ring_ids"], values_to_tuple=False),
        join_cycles=_int_keyed(
            payload["join_cycles"], values_to_tuple=False
        ),
        frozen_at_cycle=int(payload["frozen_at_cycle"]),
    )


# ----------------------------------------------------------------------
# on-disk entries
# ----------------------------------------------------------------------


def _entry_payload(
    spec: TrialSpec,
    config: ExperimentConfig,
    overlay_seed: int,
    snapshot: OverlaySnapshot,
    extras: Mapping[str, float],
) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "overlay_key": overlay_key(spec),
        "overlay_seed": overlay_seed,
        "config": overlay_config_digest(config),
        "extras": {name: float(value) for name, value in extras.items()},
    }
    if snapshot.population >= NPZ_ENTRY_MIN_NODES:
        from repro.arraysim import encode_snapshot

        entry["snapshot_npz"] = base64.b64encode(
            encode_snapshot(snapshot)
        ).decode("ascii")
    else:
        entry["snapshot"] = snapshot_to_dict(snapshot)
    return castore.seal_entry(entry)


def _identity_matches(
    entry: Mapping[str, Any],
    spec: TrialSpec,
    config: ExperimentConfig,
    overlay_seed: int,
) -> bool:
    """Cheap validation: format and identity.

    On an intact entry, sufficient to *forward* it (the consumer
    re-validates and decodes); :func:`_decode_entry` adds the decode.
    """
    if entry.get("format") != SNAPSHOT_FORMAT:
        return False
    if entry.get("overlay_seed") != overlay_seed:
        return False
    if entry.get("overlay_key") != overlay_key(spec):
        return False
    if entry.get("config") != overlay_config_digest(config):
        return False
    return True


def _decode_entry(
    entry: Mapping[str, Any],
    spec: TrialSpec,
    config: ExperimentConfig,
    overlay_seed: int,
) -> Optional[Tuple[OverlaySnapshot, Dict[str, float]]]:
    """Validate + decode one intact entry; ``None`` on any mismatch.

    Wrong shape, format drift, identity mismatch, undecodable snapshot
    and non-finite extras are all misses, never crashes. The caller
    checks the seal (``castore.read_entry`` / ``entry_is_intact``).
    """
    if not _identity_matches(entry, spec, config, overlay_seed):
        return None
    extras_raw = entry.get("extras", {})
    if not isinstance(extras_raw, Mapping):
        return None
    try:
        if "snapshot_npz" in entry:
            from repro.arraysim import decode_snapshot

            snapshot = decode_snapshot(
                base64.b64decode(entry["snapshot_npz"], validate=True)
            )
        else:
            snapshot = snapshot_from_dict(entry["snapshot"])
        extras = {
            str(name): float(value)
            for name, value in extras_raw.items()
        }
    except (
        KeyError,
        TypeError,
        ValueError,  # includes SnapshotCodecError and binascii.Error
        AttributeError,
        ConfigurationError,
    ):
        return None
    if snapshot.population != spec.num_nodes:
        return None  # collision or corruption: never serve a wrong size
    if not all(math.isfinite(value) for value in extras.values()):
        return None
    return snapshot, extras


def load_snapshot_entry(
    store_dir: Union[str, Path],
    spec: TrialSpec,
    config: ExperimentConfig,
    overlay_seed: int,
) -> Optional[Tuple[OverlaySnapshot, Dict[str, float]]]:
    """Load one stored overlay variant, or ``None`` (a miss)."""
    address = snapshot_address(spec, config, overlay_seed)
    path = snapshot_path(store_dir, address)
    entry = castore.read_entry(path, _ENTRY_MAGIC)
    if entry is None:
        return None
    decoded = _decode_entry(entry, spec, config, overlay_seed)
    if decoded is not None:
        castore.touch(path)
    return decoded


def gc_snapshot_store(
    store_dir: Union[str, Path],
    max_bytes: int,
    keep: Iterable[Union[str, Path]] = (),
) -> int:
    """Evict least-recently-used overlay entries until the store fits
    ``max_bytes`` (:func:`repro.common.castore.gc` has the rules).
    Returns the number of files removed."""
    return castore.gc(store_dir, "overlay_*.json", max_bytes, keep)


def store_snapshot_entry(
    store_dir: Union[str, Path],
    spec: TrialSpec,
    config: ExperimentConfig,
    overlay_seed: int,
    snapshot: OverlaySnapshot,
    extras: Mapping[str, float],
) -> Path:
    """Persist one built overlay atomically (write-then-rename)."""
    address = snapshot_address(spec, config, overlay_seed)
    entry = _entry_payload(spec, config, overlay_seed, snapshot, extras)
    return castore.write_entry(
        snapshot_path(store_dir, address), entry, _ENTRY_MAGIC
    )


# ----------------------------------------------------------------------
# the provider trial executors consult
# ----------------------------------------------------------------------


class SnapshotProvider:
    """Acquires frozen overlays for trials: memo → store → build.

    One provider is created per sweep and handed to the execution
    backend; inside each executing process it keeps a small in-memory
    memo (so fanout siblings scheduled on the same worker reuse the
    parsed snapshot without touching disk) in front of the optional
    on-disk store. The provider is picklable — only its configuration
    crosses process boundaries, never the memo.

    Args:
        store_dir: Directory of the on-disk store, or ``None`` for a
            memory-only provider (still useful in ``grid`` mode).
        mode: ``"trial"`` (legacy per-trial overlay universes;
            byte-identical output) or ``"grid"`` (overlay universes
            derived from the fanout-independent overlay key; real
            cross-fanout sharing, a different deterministic design).
        max_memo: In-memory entries kept per process.
        max_store_bytes: Size cap for the on-disk store;
            :func:`gc_snapshot_store` runs after every write this
            provider makes, evicting least-recently-used entries until
            the directory fits. ``None`` (default) means unbounded.
    """

    def __init__(
        self,
        store_dir: Optional[Union[str, Path]] = None,
        mode: str = "trial",
        max_memo: int = 16,
        max_store_bytes: Optional[int] = None,
    ) -> None:
        if mode not in OVERLAY_REUSE_MODES:
            raise ConfigurationError(
                f"unknown overlay reuse mode {mode!r}; expected one of "
                f"{OVERLAY_REUSE_MODES}"
            )
        if max_store_bytes is not None and max_store_bytes <= 0:
            raise ConfigurationError(
                f"max_store_bytes must be positive, got {max_store_bytes}"
            )
        self.store_dir = (
            str(store_dir) if store_dir is not None else None
        )
        self.mode = mode
        self.max_memo = max_memo
        self.max_store_bytes = max_store_bytes
        self._memo: Dict[str, Tuple[OverlaySnapshot, Dict[str, float]]] = {}
        # Counters for benches/tests; "builds" is the number of real
        # warm-ups paid, everything else was reuse.
        self.stats = {"memo_hits": 0, "store_hits": 0, "builds": 0}

    # -- identity -------------------------------------------------------

    def overlay_seed(self, spec: TrialSpec, root_seed: int) -> int:
        """Root of the RNG universe this provider builds overlays in."""
        if self.mode == "grid":
            return child_seed(root_seed, overlay_key(spec))
        return child_seed(root_seed, spec.key)

    def address_for(
        self, spec: TrialSpec, config: ExperimentConfig, root_seed: int
    ) -> str:
        """Content address of the overlay this trial disseminates over.

        Backends use this as the scheduling group key: trials sharing
        an address share an overlay, so running them on one worker means
        it is built exactly once.
        """
        return snapshot_address(
            spec, config, self.overlay_seed(spec, root_seed)
        )

    # -- acquisition ----------------------------------------------------

    def acquire(
        self,
        spec: TrialSpec,
        config: ExperimentConfig,
        root_seed: int,
        trial_registry: RngRegistry,
        builder,
    ) -> Tuple[OverlaySnapshot, Dict[str, float]]:
        """The trial's frozen overlay (and build extras), reused if known.

        ``builder(spec, config, registry) -> (snapshot, extras)`` runs
        the real warm-up on a miss. In ``trial`` mode it receives the
        trial's own registry, consuming exactly the streams the legacy
        path consumed; in ``grid`` mode it receives a fresh registry
        rooted at the overlay seed, leaving the trial universe for
        dissemination only.
        """
        seed = self.overlay_seed(spec, root_seed)
        address = snapshot_address(spec, config, seed)
        cached = self._memo.get(address)
        if cached is not None:
            self.stats["memo_hits"] += 1
            return cached
        if self.store_dir is not None:
            loaded = load_snapshot_entry(
                self.store_dir, spec, config, seed
            )
            if loaded is not None:
                self.stats["store_hits"] += 1
                self._remember(address, loaded)
                return loaded
        registry = (
            trial_registry if self.mode == "trial" else RngRegistry(seed)
        )
        snapshot, extras = builder(spec, config, registry)
        extras = {name: float(value) for name, value in extras.items()}
        self.stats["builds"] += 1
        if self.store_dir is not None:
            self._persist(
                address, _entry_payload(spec, config, seed, snapshot, extras)
            )
        built = (snapshot, extras)
        self._remember(address, built)
        return built

    def _remember(self, address: str, value) -> None:
        if address not in self._memo and len(self._memo) >= self.max_memo:
            self._memo.pop(next(iter(self._memo)))  # FIFO eviction
        self._memo[address] = value

    def _persist(self, address: str, entry: Mapping[str, Any]) -> None:
        """Write one already-serialized entry, then enforce the cap."""
        written = castore.write_entry(
            snapshot_path(self.store_dir, address), entry, _ENTRY_MAGIC
        )
        # The just-written entry is pinned explicitly: on coarse-mtime
        # filesystems its timestamp can tie with older entries, and GC
        # must never evict what the current trial is about to use.
        if self.max_store_bytes is not None:
            gc_snapshot_store(
                self.store_dir, self.max_store_bytes, keep=(written,)
            )

    def entry_for(
        self, spec: TrialSpec, config: ExperimentConfig, root_seed: int
    ) -> Optional[Dict[str, Any]]:
        """The serialized entry for a trial's overlay, if already known
        (memo or disk)."""
        seed = self.overlay_seed(spec, root_seed)
        address = snapshot_address(spec, config, seed)
        cached = self._memo.get(address)
        if cached is not None:
            return _entry_payload(spec, config, seed, cached[0], cached[1])
        if self.store_dir is None:
            return None
        # Disk path: the file *is* the serialized entry — return it
        # after the cheap identity + integrity checks instead of
        # decoding a whole overlay just to re-encode and re-hash it.
        path = snapshot_path(self.store_dir, address)
        raw = castore.read_entry(path, _ENTRY_MAGIC)
        if raw is None or not _identity_matches(raw, spec, config, seed):
            return None
        castore.touch(path)
        return raw

    # -- pickling: configuration only, never the memo -------------------

    def __getstate__(self):
        return {
            "store_dir": self.store_dir,
            "mode": self.mode,
            "max_memo": self.max_memo,
            "max_store_bytes": self.max_store_bytes,
        }

    def __setstate__(self, state):
        self.__init__(
            store_dir=state["store_dir"],
            mode=state["mode"],
            max_memo=state["max_memo"],
            max_store_bytes=state.get("max_store_bytes"),
        )

    def __repr__(self) -> str:
        return (
            f"SnapshotProvider(mode={self.mode!r}, "
            f"store_dir={self.store_dir!r})"
        )
