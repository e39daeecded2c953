"""Pure forwarding-target selection for the dissemination family.

These functions are the entire difference between the paper's three
dissemination protocols (Fig. 1b, Fig. 2, Fig. 5). They operate on
plain link sequences, so both the frozen-snapshot policies used by the
simulator (:mod:`repro.dissemination.policies`) and the live per-node
state machine (:class:`repro.core.dissemination.DisseminationCore`)
share one implementation — and one RNG draw sequence, which is what
keeps the seed goldens byte-identical across drivers.

``sender_id`` is ``None`` when the selecting node is the origin.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, TypeVar

from repro.common.errors import ConfigurationError

__all__ = [
    "check_fanout",
    "draw_sample",
    "flooding_targets",
    "randcast_targets",
    "ring_fill",
    "ring_targets",
    "ringcast_targets",
]

T = TypeVar("T")


def check_fanout(fanout: object, minimum: int) -> None:
    """Reject a fanout that is not an integer of at least ``minimum``.

    ``bool``, floats (NaN and inf included) and other non-``int`` values
    are refused, like every integer field of a sweep spec: a fanout of
    2.5 or NaN has no meaning in Fig. 1a, and letting one through makes
    the cores fail at random depths or silently disagree.
    """
    if isinstance(fanout, bool) or not isinstance(fanout, int):
        raise ConfigurationError(f"fanout must be an integer, got {fanout!r}")
    if fanout < minimum:
        raise ConfigurationError(
            f"fanout must be >= {minimum}, got {fanout}"
        )


def draw_sample(pool: List[T], k: int, rng: random.Random) -> List[T]:
    """``rng.sample(pool, k)`` without its per-call overhead.

    The result and the generator's state afterwards are those of
    :meth:`random.Random.sample`: this is CPython's algorithm, making
    the same ``_randbelow`` calls in the same order — one draw for
    ``k == 1``, and the partial Fisher–Yates swap while a list of ``n``
    is smaller than a ``k``-set. Beyond that size it is ``rng.sample``
    itself, which copies nothing there. What it skips is ``sample``'s
    sequence check and its copy of the population: ``pool`` must be a
    list the caller owns and is done with, because the swap overwrites
    it.

    Raises:
        ValueError: Unless ``0 <= k <= len(pool)``, as ``sample`` does.
    """
    n = len(pool)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    randbelow = rng._randbelow
    if k == 1:
        return [pool[randbelow(n)]]
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        return rng.sample(pool, k)
    result = []
    for last in range(n - 1, n - 1 - k, -1):
        j = randbelow(last + 1)
        result.append(pool[j])
        pool[j] = pool[last]
    return result


def flooding_targets(
    links: Sequence[int], sender_id: Optional[int]
) -> List[int]:
    """Deterministic flooding: every outgoing link except the sender."""
    return [link for link in links if link != sender_id]


def randcast_targets(
    rlinks: Sequence[int],
    sender_id: Optional[int],
    fanout: int,
    rng: random.Random,
) -> List[int]:
    """RANDCAST: up to ``fanout`` random r-links, never the sender."""
    pool = list(rlinks)
    if sender_id is not None:
        while sender_id in pool:
            pool.remove(sender_id)
    if fanout >= len(pool):
        return pool
    return draw_sample(pool, fanout, rng)


def ring_fill(dlinks: Sequence[int], rlinks: Sequence[int]) -> List[int]:
    """The r-links RINGCAST may fill its budget from: the non-d-links.

    In view order, repeats kept. It depends on the node alone — the
    sender is left in — so a frozen snapshot computes it once per node
    (``OverlaySnapshot.ring_fill``).
    """
    fill = list(rlinks)
    for link in dlinks:
        while link in fill:
            fill.remove(link)
    return fill


def ring_targets(dlinks: Sequence[int], sender_id: Optional[int]) -> List[int]:
    """RINGCAST's deterministic half: every distinct d-link but the sender."""
    targets: List[int] = []
    for link in dlinks:
        if link != sender_id and link not in targets:
            targets.append(link)
    return targets


def ringcast_targets(
    dlinks: Sequence[int],
    rlinks: Sequence[int],
    sender_id: Optional[int],
    fanout: int,
    rng: random.Random,
) -> List[int]:
    """RINGCAST: all d-links first, random r-link fill for the rest.

    Both d-links are always included (unless one is the sender, see
    :func:`ring_targets`), then the remaining budget of
    ``fanout - len(d-targets)`` is filled by RANDCAST over
    :func:`ring_fill` — the r-links that are not d-links, minus the
    sender: the pseudocode's set-union semantics. With ``fanout < 2``
    the d-links still win, the behaviour behind the paper's complete
    disseminations at F=1.
    """
    targets = ring_targets(dlinks, sender_id)
    budget = fanout - len(targets)
    if budget > 0:
        targets += randcast_targets(
            ring_fill(dlinks, rlinks), sender_id, budget, rng
        )
    return targets
