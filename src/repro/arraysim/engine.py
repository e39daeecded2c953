"""Vectorized hop-synchronous dissemination over an :class:`ArrayOverlay`.

In fast mode one ``while`` iteration advances the *entire* hop frontier
across a whole batch of messages at once: target selection
produces a flat delivery array (candidate universe indices plus
parallel message/sender indices, in a deterministic delivery order),
and the delivery phase classifies it with array reductions — dead
drops, redundant duplicates, and first-occurrence virgin deliveries
via a position echo over ``message * universe + target`` keys.

A flooding hop is selected and delivered in blocks of
:data:`_FLOOD_BLOCK_ROWS` frontier rows, so its temporaries stay
cache-sized instead of growing with frontier × out-degree. Flooding
never draws, and blocks run in frontier order, each marking its first
receipts before the next block is keyed, so the hop's virgin set, its
order, its senders and every counter equal one whole-frontier pass.
RINGCAST and RANDCAST select over the whole frontier (their draw calls
keep their shapes and order) and deliver it as a single block.

Target selection dispatches on the RNG type:

* ``random.Random`` → **compat mode**, the array data structure's
  reference: the overlay is turned back into a snapshot and handed to
  the object core's one forwarding loop
  (:func:`repro.dissemination.executor.disseminate`), so the draw
  sequence and the output are bit-identical to the object core on the
  snapshot the overlay was built from — which is what pins
  ``from_snapshot`` / ``to_snapshot`` and the codec.
* ``numpy.random.Generator`` → **fast mode**: whole-frontier row
  matrices, sender/duplicate masking by column compares, and uniform
  position draws with duplicate-only rejection. Statistically
  equivalent to the object core; exactly equal whenever no random
  draw is needed (flooding, or every budget covers its pool).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arraysim.overlay import ArrayOverlay
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RngRegistry, child_seed
from repro.core.targets import check_fanout
from repro.dissemination.executor import (
    DisseminationResult,
    disseminate as _object_disseminate,
)
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
    TargetPolicy,
)

__all__ = [
    "disseminate",
    "disseminate_many",
    "numpy_targets_rng",
    "supports_policy",
]

_MODE_FOR_POLICY = {
    FloodingPolicy: "flooding",
    RandCastPolicy: "randcast",
    RingCastPolicy: "ringcast",
}

Rng = Union[random.Random, np.random.Generator]


def supports_policy(policy: TargetPolicy) -> bool:
    """Whether the array core implements ``policy``'s selection rule."""
    return type(policy) in _MODE_FOR_POLICY


def numpy_targets_rng(
    registry: RngRegistry, name: str = "array_targets"
) -> np.random.Generator:
    """The fast-mode target Generator for a trial's RNG universe.

    Seeded from the registry's root through the same SHA-256 child-seed
    derivation as every ``random.Random`` stream, so fast-mode trials
    are deterministic per trial key without perturbing any existing
    stream.
    """
    return np.random.Generator(
        np.random.PCG64(child_seed(registry.root_seed, name))
    )


def disseminate(
    overlay: Union[ArrayOverlay, "OverlaySnapshot"],
    policy: TargetPolicy,
    fanout: int,
    origin: int,
    rng: Rng,
    collect_load: bool = False,
) -> DisseminationResult:
    """Array-core twin of :func:`repro.dissemination.executor.disseminate`.

    Accepts either an :class:`ArrayOverlay` or an
    :class:`~repro.dissemination.snapshot.OverlaySnapshot` (converted on
    the fly — convert once yourself when posting many messages).
    """
    return disseminate_many(
        overlay, policy, fanout, (origin,), rng, collect_load=collect_load
    )[0]


def disseminate_many(
    overlay: Union[ArrayOverlay, "OverlaySnapshot"],
    policy: TargetPolicy,
    fanout: int,
    origins: Sequence[int],
    rng: Rng,
    collect_load: bool = False,
) -> List[DisseminationResult]:
    """Disseminate one message per origin, advancing them in lockstep.

    In fast mode all messages share each hop's batched selection and
    delivery, which is where the large-N throughput comes from; compat
    mode hands them one by one to the object core's
    :func:`~repro.dissemination.executor.disseminate` on
    ``overlay.to_snapshot()``, so the ``random.Random`` draw order
    matches it message by message.
    """
    if not isinstance(overlay, ArrayOverlay):
        overlay = ArrayOverlay.from_snapshot(overlay)
    check_fanout(fanout, 1)
    mode = _MODE_FOR_POLICY.get(type(policy))
    if mode is None:
        raise ConfigurationError(
            f"array core does not implement policy {policy.name!r}; "
            "use the object core for custom policies"
        )
    origin_idx = np.empty(len(origins), dtype=np.int64)
    for i, origin in enumerate(origins):
        idx = overlay.index_of(origin)
        if idx < 0 or not overlay.alive[idx]:
            raise SimulationError(f"origin {origin} is not alive")
        origin_idx[i] = idx
    if isinstance(rng, random.Random):
        snapshot = overlay.to_snapshot()
        return [
            _object_disseminate(
                snapshot, policy, fanout, origin, rng, collect_load
            )
            for origin in origins
        ]
    return _run_fast(overlay, mode, fanout, origin_idx, rng, collect_load)


# ----------------------------------------------------------------------
# fast mode (numpy Generator, whole batch per hop)
# ----------------------------------------------------------------------


# Frontier rows per flooding block. A block's candidates (its rows times
# the flooding out-degree) and their keys stay cache-sized; a whole
# frontier at N = 100 000 and 5 messages built up to 8.7 M candidates
# in one hop, and the batch traced a 223 MB peak.
_FLOOD_BLOCK_ROWS = 16_384

# Rejection rounds a row may take before the exact sampler finishes it.
# Rows that start on rejection accept each round with probability at
# least 1/2, so a row reaching the cap has odds below 2**-32.
_REJECTION_ROUNDS = 32


def _sample_positions(
    pool_lens: np.ndarray, budgets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-row uniform distinct positions: row ``i`` gets ``budgets[i]``
    distinct draws from ``range(pool_lens[i])`` (requires
    ``pool_lens > budgets >= 1``). Returns ``(rows, max_budget)`` with
    columns past a row's budget filled by out-of-range sentinels.

    Rows whose whole draw is collision-free with probability
    ``prod(1 - i/len for i < budget) >= 1/2`` use duplicate-only
    rejection: draw i.i.d. uniforms, redraw rows whose positions
    collide. Rows below that (a budget close to the pool, where
    rejection would spin for ever) and rows still colliding after
    :data:`_REJECTION_ROUNDS` take the exact sampler: one uniform key
    per pool slot, the budget smallest keys win. At most
    ``_REJECTION_ROUNDS + 2`` draw calls, whatever the input.
    """
    m = pool_lens.size
    width = int(budgets.max()) if m else 0
    cols = np.arange(width, dtype=np.int64)[None, :]
    sentinel = pool_lens[:, None] + cols
    live = cols < budgets[:, None]
    acceptance = np.where(live, 1.0 - cols / pool_lens[:, None], 1.0).prod(
        axis=1
    )
    pos = sentinel.copy()
    pending = np.flatnonzero(acceptance >= 0.5)
    exact = [np.flatnonzero(acceptance < 0.5)]
    if pending.size:
        pos[pending] = np.where(
            live[pending],
            rng.integers(
                0, pool_lens[pending][:, None], size=(pending.size, width)
            ),
            sentinel[pending],
        )
    for _ in range(_REJECTION_ROUNDS):
        sub = np.sort(pos[pending], axis=1)
        pending = pending[(np.diff(sub, axis=1) == 0).any(axis=1)]
        if not pending.size:
            break
        redraw = rng.integers(
            0, pool_lens[pending][:, None], size=(pending.size, width)
        )
        pos[pending] = np.where(live[pending], redraw, sentinel[pending])
    else:
        exact.append(pending)
    rows = np.concatenate(exact)
    if rows.size:
        lens = pool_lens[rows]
        # At least ``width`` slots: another row may want more positions
        # than these rows' pools hold.
        slots = np.arange(max(int(lens.max()), width), dtype=np.int64)
        keys = np.where(
            slots[None, :] < lens[:, None],
            rng.random((rows.size, slots.size)),
            np.inf,
        )
        order = np.argsort(keys, axis=1)[:, :width]
        pos[rows] = np.where(live[rows], order, sentinel[rows])
    return pos


def _run_fast(
    overlay: ArrayOverlay,
    mode: str,
    fanout: int,
    origin_idx: np.ndarray,
    rng: np.random.Generator,
    collect_load: bool,
) -> List[DisseminationResult]:
    n = overlay.universe_size
    n_msgs = origin_idx.size
    alive = overlay.alive
    # Flat per-(message, node) state, keyed by ``msg * n + node``. Keys
    # stay int64: 1-D fancy indexing takes a fast path for native
    # intp indices that is worth far more than the halved bandwidth.
    notified = np.zeros(n_msgs * n, dtype=bool)
    notified[np.arange(n_msgs) * n + origin_idx] = True
    sent = np.zeros(n_msgs * n, dtype=np.int64) if collect_load else None
    # Receipts are counted as each block is delivered, so no hop's keys
    # outlive their block.
    received = np.zeros(n_msgs * n, dtype=np.int64) if collect_load else None
    # Scratch for same-hop dedup (position echo): delivery positions
    # are scattered per key in reverse order so the *first* delivery's
    # position sticks, then a delivery is the canonical one iff its own
    # position echoes back. This keeps the new frontier in exact
    # first-delivery order — matching the object executor's in-order
    # pass (sender attribution and next-hop delivery order both depend
    # on it; flooding exactness requires both) — with no sort and no
    # full-array scan. Stale values from earlier blocks and hops are
    # harmless: every key compared was re-scattered this block.
    claim_pos = np.zeros(n_msgs * n, dtype=np.int32)

    f_nodes = origin_idx.astype(np.int32)
    f_msgs = np.arange(n_msgs, dtype=np.int32)
    f_senders = np.full(n_msgs, -1, dtype=np.int32)
    # Per-message accounting is deferred: per-hop arrays are collected
    # here and reduced with a handful of batched bincounts after the
    # loop, instead of paying several bincount dispatches every hop.
    hop_frontier_msgs: List[np.ndarray] = []
    send_msgs: List[np.ndarray] = []
    send_counts: List[np.ndarray] = []
    dead_msgs_parts: List[np.ndarray] = []

    all_alive = overlay.all_alive
    while f_nodes.size:
        if mode == "flooding":
            blocks = _flood_blocks(overlay, f_nodes, f_msgs, f_senders)
        else:
            blocks = (
                _select_fast(
                    overlay, mode, f_nodes, f_msgs, f_senders, fanout, rng
                ),
            )
        count_parts = []
        next_parts = []
        # Blocks arrive in frontier order and each one marks its first
        # receipts before the next is keyed, so a key a later block
        # repeats is filtered as already notified: the virgin set, its
        # order and its senders are those of one whole-frontier pass.
        for cand, msgs, senders, block_counts in blocks:
            count_parts.append(block_counts)
            if all_alive:
                alive_cand, alive_msgs, alive_senders = cand, msgs, senders
            else:
                alive_mask = np.take(alive, cand)
                dead = msgs[~alive_mask]
                if dead.size:
                    dead_msgs_parts.append(dead)
                alive_cand = cand[alive_mask]
                alive_msgs = msgs[alive_mask]
                alive_senders = senders[alive_mask]
            keys = alive_msgs * np.int64(n)
            keys += alive_cand
            if collect_load:
                np.add.at(received, keys, 1)
            fresh_mask = np.take(notified, keys)
            np.logical_not(fresh_mask, out=fresh_mask)
            fresh_keys = keys[fresh_mask]
            pos = np.arange(fresh_keys.size, dtype=np.int32)
            claim_pos[fresh_keys[::-1]] = pos[::-1]
            first_mask = np.take(claim_pos, fresh_keys) == pos
            notified[fresh_keys[first_mask]] = True
            idx = np.flatnonzero(fresh_mask)[first_mask]
            next_parts.append(
                (
                    np.take(alive_msgs, idx),
                    np.take(alive_cand, idx),
                    np.take(alive_senders, idx),
                )
            )
        sel_counts = _joined(count_parts)
        send_msgs.append(f_msgs)
        send_counts.append(sel_counts)
        if collect_load:
            # A node enters the frontier at most once per message, so
            # these flat keys never repeat across hops: assignment.
            sent[f_msgs * np.int64(n) + f_nodes] = sel_counts
        f_msgs, f_nodes, f_senders = (
            _joined(parts) for parts in zip(*next_parts)
        )
        hop_frontier_msgs.append(f_msgs)

    # Batched accounting. New-frontier sizes per (hop, message) come
    # from one bincount over combined keys; candidate totals from one
    # weighted bincount; then redundant = alive - virgin per message.
    n_hops = len(hop_frontier_msgs)
    if n_hops:
        hop_keys = np.concatenate(
            [
                fm.astype(np.int64) + h * n_msgs
                for h, fm in enumerate(hop_frontier_msgs)
            ]
        )
        hop_matrix = np.bincount(
            hop_keys, minlength=n_hops * n_msgs
        ).reshape(n_hops, n_msgs)
        cand_total = np.bincount(
            np.concatenate(send_msgs),
            weights=np.concatenate(send_counts).astype(np.float64),
            minlength=n_msgs,
        ).astype(np.int64)
    else:
        hop_matrix = np.zeros((0, n_msgs), dtype=np.int64)
        cand_total = np.zeros(n_msgs, dtype=np.int64)
    if dead_msgs_parts:
        msgs_to_dead = np.bincount(
            np.concatenate(dead_msgs_parts), minlength=n_msgs
        )
    else:
        msgs_to_dead = np.zeros(n_msgs, dtype=np.int64)
    msgs_virgin = hop_matrix.sum(axis=0)
    msgs_redundant = cand_total - msgs_to_dead - msgs_virgin

    results = []
    for m in range(n_msgs):
        lo, hi = m * n, (m + 1) * n
        per_hop_new = [1]
        for h in range(n_hops):
            count = int(hop_matrix[h, m])
            if count == 0:
                break
            per_hop_new.append(count)
        results.append(
            _build_result(
                overlay,
                fanout=fanout,
                origin=int(overlay.ids[origin_idx[m]]),
                notified=notified[lo:hi],
                per_hop_new=per_hop_new,
                msgs_virgin=int(msgs_virgin[m]),
                msgs_redundant=int(msgs_redundant[m]),
                msgs_to_dead=int(msgs_to_dead[m]),
                sent=sent[lo:hi] if collect_load else None,
                received=received[lo:hi] if collect_load else None,
                collect_load=collect_load,
            )
        )
    return results


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _flood_blocks(
    overlay: ArrayOverlay,
    f_nodes: np.ndarray,
    f_msgs: np.ndarray,
    f_senders: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Flooding's selection, :data:`_FLOOD_BLOCK_ROWS` frontier rows at
    a time: flat (cand, msg, sender, counts) per block, in frontier
    order. Each row sends to its whole flooding union but its sender.
    """
    mat, _ = overlay.padded("out")
    for lo in range(0, f_nodes.size, _FLOOD_BLOCK_ROWS):
        hi = lo + _FLOOD_BLOCK_ROWS
        nodes = f_nodes[lo:hi]
        rows = np.take(mat, nodes, axis=0)
        # ``-1`` pads a row past its links; an origin's sender is -1
        # too, so its rows lose only the padding.
        valid = rows >= 0
        valid &= rows != f_senders[lo:hi, None]
        counts = np.count_nonzero(valid, axis=1)
        yield (
            rows[valid],
            np.repeat(f_msgs[lo:hi], counts),
            np.repeat(nodes, counts),
            counts,
        )


def _select_fast(
    overlay: ArrayOverlay,
    mode: str,
    f_nodes: np.ndarray,
    f_msgs: np.ndarray,
    f_senders: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Whole-frontier RINGCAST / RANDCAST selection; returns flat
    (cand, msg, sender, counts).

    Delivery order within the hop is deterministic: all d-link sends
    (frontier order), then whole-pool r-fills, then sampled r-fills.
    """
    m = f_nodes.size
    rmat, rlens_all = overlay.padded("r")
    rflat = rmat.ravel()
    r_width = rmat.shape[1]
    if mode == "ringcast" and overlay.padded("d")[0].shape[1]:
        dmat, _ = overlay.padded("d")
        width_d = dmat.shape[1]
        drows = np.take(dmat, f_nodes, axis=0)
        dvalid = np.take(overlay.d_dedup(), f_nodes, axis=0)
        dvalid &= drows != f_senders[:, None]
        dlens = dvalid[:, 0].astype(np.int64)
        for c in range(1, width_d):
            dlens += dvalid[:, c]
        budget = fanout - dlens
        np.maximum(budget, 0, out=budget)
        # Chosen d-links as sentinel columns: -2 never matches a real
        # universe index, so rejection rounds compare against these
        # directly without re-gathering dvalid masks.
        dsel = np.where(dvalid, drows, np.int32(-2))
    else:  # randcast (or a d-less overlay): the whole fanout is random
        drows = dvalid = dsel = None
        dlens = np.zeros(m, dtype=np.int64)
        budget = np.full(m, fanout, dtype=np.int64)
        width_d = 0

    row_lens = np.take(rlens_all, f_nodes)
    k = int(budget.max()) if m else 0
    r_sel = np.zeros(m, dtype=np.int64)
    vals = None

    if k and r_width:
        # Phase 1 — one whole-frontier rejection round: draw ``budget``
        # positions per row straight off the raw rows, accept rows
        # whose draws miss the sender, every chosen d-link, and each
        # other. Rows with no budget or an empty view draw garbage
        # that the validity mask discards; rows that lose a check are
        # retried on shrinking subsets, then resolved exactly.
        eligible = (budget > 0) & (row_lens > 0)
        nl_safe = np.maximum(row_lens, 1)
        cols_k = np.arange(k, dtype=np.int64)[None, :]
        lo = int(nl_safe.min())
        if lo == int(nl_safe.max()):
            draw = rng.integers(0, lo, size=(m, k))
        else:
            draw = rng.integers(0, nl_safe[:, None], size=(m, k))
        vals = rflat[
            (f_nodes.astype(np.int64) * r_width)[:, None] + draw
        ]
        bad = vals == f_senders[:, None]
        if dsel is not None:
            for c in range(width_d):
                bad |= vals == dsel[:, c][:, None]
        if k > 1:
            if k <= 4:
                # Pairwise duplicate check: the live prefix mask is
                # applied below, so flagging the later column suffices.
                for j in range(1, k):
                    dj = draw[:, j]
                    for i in range(j):
                        bad[:, j] |= draw[:, i] == dj
            else:
                sorted_draw = np.sort(
                    np.where(
                        cols_k < budget[:, None], draw,
                        nl_safe[:, None] + cols_k,
                    ),
                    axis=1,
                )
                bad[:, 0] |= (np.diff(sorted_draw, axis=1) == 0).any(
                    axis=1
                )
        # Row rejection, column by column: a draw only counts against
        # its row while within the row's budget prefix.
        rowbad = bad[:, 0] & (budget > 0)
        for c in range(1, k):
            rowbad |= bad[:, c] & (budget > c)
        ok = eligible & ~rowbad
        r_sel[ok] = budget[ok]
        need = np.flatnonzero(eligible & rowbad)

        for _ in range(2):
            if not need.size:
                break
            nb = budget[need]
            nl = row_lens[need]
            sub_live = cols_k < nb[:, None]
            lo = int(nl.min())
            if lo == int(nl.max()):
                draw2 = rng.integers(0, lo, size=(need.size, k))
            else:
                draw2 = rng.integers(0, nl[:, None], size=(need.size, k))
            vals2 = rflat[
                (np.take(f_nodes, need).astype(np.int64) * r_width)[
                    :, None
                ]
                + draw2
            ]
            bad2 = vals2 == np.take(f_senders, need)[:, None]
            if dsel is not None:
                sub = np.take(dsel, need, axis=0)
                for c in range(width_d):
                    bad2 |= vals2 == sub[:, c][:, None]
            if k > 1:
                for j in range(1, k):
                    dj = draw2[:, j]
                    for i in range(j):
                        bad2[:, j] |= draw2[:, i] == dj
            row_ok = ~(bad2 & sub_live).any(axis=1)
            won = need[row_ok]
            vals[won] = vals2[row_ok]
            r_sel[won] = budget[won]
            need = need[~row_ok]

        # Phase 2 — exact pool construction for the leftover rows:
        # full validity masks, whole-pool take when the budget covers
        # it, uniform distinct draws otherwise. Selections are written
        # back left-packed into ``vals``; the r-validity prefix
        # ``cols < r_sel`` masks everything past them.
        if need.size:
            sub_rows = np.take(rmat, np.take(f_nodes, need), axis=0)
            sub_valid = (
                np.arange(r_width, dtype=np.int64)[None, :]
                < np.take(row_lens, need)[:, None]
            ) & (sub_rows != np.take(f_senders, need)[:, None])
            if dsel is not None:
                sub = np.take(dsel, need, axis=0)
                for c in range(width_d):
                    sub_valid &= sub_rows != sub[:, c][:, None]
            sub_plens = sub_valid.sum(axis=1)
            sub_budget = budget[need]
            r_sel[need] = np.minimum(sub_plens, sub_budget)
            samp_mask = sub_plens > sub_budget
            take_rows = np.flatnonzero(~samp_mask)
            if take_rows.size:
                tv = sub_valid[take_rows]
                rank = np.cumsum(tv, axis=1) - 1
                src = np.repeat(need[take_rows], tv.sum(axis=1))
                vals[src, rank[tv]] = sub_rows[take_rows][tv]
            samp_rows = np.flatnonzero(samp_mask)
            if samp_rows.size:
                lens_s = sub_plens[samp_rows]
                flat = sub_rows[samp_rows][sub_valid[samp_rows]]
                width = int(lens_s.max())
                pool = np.full((samp_rows.size, width), -1, dtype=np.int32)
                pmask = (
                    np.arange(width, dtype=np.int64)[None, :]
                    < lens_s[:, None]
                )
                pool[pmask] = flat
                fb_pos = _sample_positions(
                    lens_s, sub_budget[samp_rows], rng
                )
                pv = pool[
                    np.arange(samp_rows.size)[:, None],
                    np.minimum(fb_pos, width - 1),
                ]
                buf = vals[need[samp_rows]]
                buf[:, : pv.shape[1]] = pv
                vals[need[samp_rows]] = buf

    sel_counts = dlens + r_sel

    # Assembly — one combined ``[d | r]`` row matrix with a validity
    # mask, extracted in a single pass. Delivery order is per frontier
    # row: its d-links, then its random fills — matching the object
    # executor's per-node send order.
    if width_d:
        if vals is not None:
            out = np.empty((m, width_d + k), dtype=np.int32)
            valid = np.empty((m, width_d + k), dtype=bool)
            out[:, :width_d] = drows
            valid[:, :width_d] = dvalid
            out[:, width_d:] = vals
            for c in range(k):
                valid[:, width_d + c] = r_sel > c
        else:
            out = drows
            valid = dvalid
    elif vals is not None:
        out = vals
        valid = np.empty((m, k), dtype=bool)
        for c in range(k):
            valid[:, c] = r_sel > c
    else:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            sel_counts,
        )
    return (
        np.take(out.ravel(), np.flatnonzero(valid.ravel())),
        np.repeat(f_msgs, sel_counts),
        np.repeat(f_nodes, sel_counts),
        sel_counts,
    )


# ----------------------------------------------------------------------
# result assembly
# ----------------------------------------------------------------------


def _build_result(
    overlay: ArrayOverlay,
    fanout: int,
    origin: int,
    notified: np.ndarray,
    per_hop_new: List[int],
    msgs_virgin: int,
    msgs_redundant: int,
    msgs_to_dead: int,
    sent: Optional[np.ndarray],
    received: Optional[np.ndarray],
    collect_load: bool,
) -> DisseminationResult:
    ids = overlay.ids
    alive_order = overlay.alive_order
    missed_mask = ~notified[alive_order]
    missed_ids = tuple(ids[alive_order[missed_mask]].tolist())
    sent_per_node = {}
    received_per_node = {}
    if collect_load:
        notified_idx = np.nonzero(notified)[0]
        sent_per_node = {
            int(ids[i]): int(sent[i]) for i in notified_idx.tolist()
        }
        received_idx = np.nonzero(received)[0]
        received_per_node = {
            int(ids[i]): int(received[i]) for i in received_idx.tolist()
        }
    return DisseminationResult(
        origin=origin,
        fanout=fanout,
        population=overlay.population,
        notified=int(notified.sum()),
        hops=len(per_hop_new) - 1,
        per_hop_new=tuple(per_hop_new),
        msgs_virgin=msgs_virgin,
        msgs_redundant=msgs_redundant,
        msgs_to_dead=msgs_to_dead,
        missed_ids=missed_ids,
        sent_per_node=sent_per_node,
        received_per_node=received_per_node,
    )
