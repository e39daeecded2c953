"""Target selection draws exactly what it drew before it was made cheap.

Three claims, each proved against an oracle rather than a golden:

* :func:`~repro.core.targets.draw_sample` returns what
  :meth:`random.Random.sample` returns and leaves the generator where
  ``sample`` leaves it;
* RINGCAST split into a per-node fill pool (memoised on a snapshot) and
  a per-send selection, and RANDCAST over an owned pool, pick the same
  targets with the same draws as the functions they replaced — kept
  below, verbatim, as the oracle;
* the forwarding loop's per-node load counts equal those of the loop it
  replaced, also kept below.

The file also pins the one fanout rule every driver shares.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arraysim import disseminate_many
from repro.common.errors import ConfigurationError
from repro.common.rng import RngRegistry
from repro.core.dissemination import DisseminationCore
from repro.core.targets import (
    draw_sample,
    flooding_targets,
    randcast_targets,
    ring_fill,
    ringcast_targets,
)
from repro.dissemination.event_executor import disseminate_event_driven
from repro.dissemination.executor import disseminate
from repro.dissemination.live import disseminate_live
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
)
from repro.dissemination.snapshot import OverlaySnapshot
from repro.experiments.builder import build_population, warm_up
from repro.experiments.config import ExperimentConfig, OverlaySpec

# ----------------------------------------------------------------------
# the oracle: selection and forwarding as they were before the fill
# pool was memoised and sends were grouped per holder (verbatim)
# ----------------------------------------------------------------------


def oracle_randcast_targets(
    rlinks: Sequence[int],
    sender_id: Optional[int],
    fanout: int,
    rng: random.Random,
) -> List[int]:
    """RANDCAST: up to ``fanout`` random r-links, never the sender."""
    pool = [link for link in rlinks if link != sender_id]
    if fanout >= len(pool):
        return pool
    return rng.sample(pool, fanout)


def oracle_ringcast_targets(
    dlinks: Sequence[int],
    rlinks: Sequence[int],
    sender_id: Optional[int],
    fanout: int,
    rng: random.Random,
) -> List[int]:
    """RINGCAST: all d-links first, random r-link fill for the rest."""
    targets: List[int] = []
    for link in dlinks:
        if link != sender_id and link not in targets:
            targets.append(link)
    budget = fanout - len(targets)
    if budget > 0:
        chosen = set(targets)
        pool = [
            link
            for link in rlinks
            if link != sender_id and link not in chosen
        ]
        if budget >= len(pool):
            targets.extend(pool)
        else:
            targets.extend(rng.sample(pool, budget))
    return targets


def oracle_select(snapshot, kind, node_id, sender_id, fanout, rng):
    """The previous policies' adaptation of the oracle to a snapshot."""
    if kind == "ringcast":
        return oracle_ringcast_targets(
            snapshot.dlinks.get(node_id, ()),
            snapshot.rlinks.get(node_id, ()),
            sender_id,
            fanout,
            rng,
        )
    if kind == "randcast":
        return oracle_randcast_targets(
            snapshot.rlinks.get(node_id, ()), sender_id, fanout, rng
        )
    return flooding_targets(snapshot.out_links(node_id), sender_id)


def oracle_loads(snapshot, kind, fanout, origin, rng):
    """The previous hop-schedule loop with ``collect_load=True``: one
    ``(target, sender)`` tuple per send, counted on arrival."""
    notified = {origin}
    holders = [(origin, None)]
    alive = snapshot.alive_set
    counts = [0, 0, 0]  # virgin, redundant, to dead
    sent_per_node: Dict[int, int] = {}
    received_per_node: Dict[int, int] = {}
    while True:
        sends = []
        for node_id, sender_id in holders:
            targets = oracle_select(
                snapshot, kind, node_id, sender_id, fanout, rng
            )
            for target in targets:
                sends.append((target, node_id))
            sent_per_node[node_id] = (
                sent_per_node.get(node_id, 0) + len(targets)
            )
        if not sends:
            break
        holders = []
        for target, sender in sends:
            if target not in alive:
                counts[2] += 1
                continue
            received_per_node[target] = received_per_node.get(target, 0) + 1
            if target in notified:
                counts[1] += 1
                continue
            notified.add(target)
            counts[0] += 1
            holders.append((target, sender))
    return counts, sent_per_node, received_per_node


POLICIES = {
    "ringcast": RingCastPolicy(),
    "randcast": RandCastPolicy(),
    "flooding": FloodingPolicy(),
}

# ----------------------------------------------------------------------
# draw_sample is Random.sample
# ----------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def assert_same_as_sample(pool: List[int], k: int, seed: int) -> None:
    ours, theirs = random.Random(seed), random.Random(seed)
    assert draw_sample(list(pool), k, ours) == theirs.sample(pool, k)
    assert ours.random() == theirs.random()


class TestDrawSample:
    @given(
        pool=st.lists(st.integers(min_value=0, max_value=15), max_size=130),
        data=st.data(),
        seed=SEEDS,
    )
    @example(pool=[], data=None, seed=1)  # k = 0 of nothing
    @example(pool=[7] * 30, data=None, seed=2)  # one id, repeated
    @settings(deadline=None)
    def test_same_result_and_generator_state(self, pool, data, seed):
        if data is None:
            ks = range(len(pool) + 1)
        else:
            ks = [data.draw(st.integers(min_value=0, max_value=len(pool)))]
        for k in ks:
            assert_same_as_sample(pool, k, seed)

    @pytest.mark.parametrize(
        "n, k",
        [
            (0, 0), (5, 0), (40, 0),  # no draw at all
            (1, 1), (21, 1), (22, 1), (500, 1),  # one draw, no copy
            (21, 5), (22, 5),  # either side of the small-k set size
            (85, 6), (86, 6), (85, 21), (86, 21),  # either side at k > 5
            (200, 22), (341, 113), (20, 20), (120, 120),
        ],
    )
    def test_every_branch(self, n, k):
        rng = random.Random(n * 1000 + k)
        pool = [rng.randrange(max(n // 2, 1)) for _ in range(n)]  # repeats
        for seed in range(20):
            assert_same_as_sample(pool, k, seed)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_rejects_a_sample_the_pool_cannot_hold(self, k):
        with pytest.raises(ValueError):
            draw_sample([1, 2, 3], k, random.Random(0))


# ----------------------------------------------------------------------
# RINGCAST / RANDCAST against the oracle
# ----------------------------------------------------------------------

NODE = 0
IDS = st.integers(min_value=1, max_value=12)


@st.composite
def views(draw):
    """A node's views: d-links as on a ring (two, possibly the same
    peer, as on a 2-node ring) or a multi-ring (2k), r-links with
    repeats and with d-link overlap, and a sender taken from the
    d-links, the r-links, neither, or the origin's ``None``."""
    shape = draw(st.sampled_from(["ring", "two-node ring", "multiring"]))
    if shape == "ring":
        dlinks = draw(st.lists(IDS, min_size=0, max_size=2, unique=True))
    elif shape == "two-node ring":
        peer = draw(IDS)
        dlinks = [peer, peer]
    else:
        dlinks = draw(st.lists(IDS, min_size=4, max_size=6))
    rlinks = draw(st.lists(IDS, max_size=25))
    where = draw(st.sampled_from(["d-links", "r-links", "neither", "origin"]))
    if where == "d-links" and dlinks:
        sender = draw(st.sampled_from(dlinks))
    elif where == "r-links" and rlinks:
        sender = draw(st.sampled_from(rlinks))
    elif where == "origin":
        sender = None
    else:
        sender = 99
    return tuple(dlinks), tuple(rlinks), sender


def snapshot_of(dlinks, rlinks) -> OverlaySnapshot:
    return OverlaySnapshot(
        kind="ringcast",
        rlinks={NODE: rlinks},
        dlinks={NODE: dlinks},
        alive_ids=(NODE,),
    )


class TestSelectionMatchesOracle:
    @given(
        view=views(),
        fanout=st.integers(min_value=0, max_value=25),
        seed=SEEDS,
    )
    @settings(deadline=None)
    def test_ringcast_raw_and_snapshot(self, view, fanout, seed):
        dlinks, rlinks, sender = view
        oracle_rng = random.Random(seed)
        expected = oracle_ringcast_targets(
            dlinks, rlinks, sender, fanout, oracle_rng
        )
        snapshot = snapshot_of(dlinks, rlinks)
        # Raw views (the live core), then the snapshot policy cold and
        # again with the fill memoised.
        for select in (
            lambda rng: ringcast_targets(dlinks, rlinks, sender, fanout, rng),
            lambda rng: RingCastPolicy().select_targets(
                snapshot, NODE, sender, fanout, rng
            ),
            lambda rng: RingCastPolicy().select_targets(
                snapshot, NODE, sender, fanout, rng
            ),
        ):
            rng = random.Random(seed)
            assert select(rng) == expected
            assert rng.getstate() == oracle_rng.getstate()
        assert snapshot.ring_fill(NODE) == tuple(ring_fill(dlinks, rlinks))

    @given(
        view=views(),
        fanout=st.integers(min_value=0, max_value=25),
        seed=SEEDS,
    )
    @settings(deadline=None)
    def test_randcast_raw_and_snapshot(self, view, fanout, seed):
        _dlinks, rlinks, sender = view
        oracle_rng = random.Random(seed)
        expected = oracle_randcast_targets(rlinks, sender, fanout, oracle_rng)
        snapshot = snapshot_of((), rlinks)
        for select in (
            lambda rng: randcast_targets(rlinks, sender, fanout, rng),
            lambda rng: RandCastPolicy().select_targets(
                snapshot, NODE, sender, fanout, rng
            ),
        ):
            rng = random.Random(seed)
            assert select(rng) == expected
            assert rng.getstate() == oracle_rng.getstate()

    def test_selection_leaves_the_views_alone(self):
        dlinks, rlinks = (1, 2), (3, 1, 4, 5, 3, 6)
        snapshot = snapshot_of(dlinks, rlinks)
        fill = snapshot.ring_fill(NODE)
        for fanout in range(8):
            RingCastPolicy().select_targets(
                snapshot, NODE, 3, fanout, random.Random(fanout)
            )
            RandCastPolicy().select_targets(
                snapshot, NODE, 4, fanout, random.Random(fanout)
            )
        assert snapshot.rlinks[NODE] == rlinks
        assert snapshot.ring_fill(NODE) == fill == (3, 4, 5, 3, 6)

    def test_a_killed_snapshot_shares_the_fill_memo(self, ringcast_snapshot):
        node = ringcast_snapshot.alive_ids[0]
        fill = ringcast_snapshot.ring_fill(node)
        killed = ringcast_snapshot.kill_fraction(0.2, random.Random(5))
        assert killed.ring_fill(node) is fill


# ----------------------------------------------------------------------
# the forwarding loop's load counts
# ----------------------------------------------------------------------


class TestLoadsMatchThePreviousLoop:
    @pytest.mark.parametrize("kind", ["ringcast", "randcast", "flooding"])
    @pytest.mark.parametrize("fanout", [1, 3, 6])
    def test_multi_message_batch(
        self, ringcast_snapshot, randcast_snapshot, kind, fanout
    ):
        # A multi_message batch: several origins on one targets stream,
        # over an overlay with dead nodes, so every counter moves.
        base = randcast_snapshot if kind == "randcast" else ringcast_snapshot
        snapshot = base.kill_fraction(0.1, random.Random(fanout))
        origins = random.Random(7).sample(snapshot.alive_ids, 4)
        ours, theirs = random.Random(11), random.Random(11)
        for origin in origins:
            result = disseminate(
                snapshot,
                POLICIES[kind],
                fanout,
                origin,
                ours,
                collect_load=True,
            )
            counts, sent, received = oracle_loads(
                snapshot, kind, fanout, origin, theirs
            )
            assert [
                result.msgs_virgin,
                result.msgs_redundant,
                result.msgs_to_dead,
            ] == counts
            assert result.sent_per_node == sent
            assert result.received_per_node == received
        assert ours.getstate() == theirs.getstate()


# ----------------------------------------------------------------------
# one fanout rule for every driver
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_population():
    config = ExperimentConfig(num_nodes=30, warmup_cycles=5, seed=4)
    population = build_population(
        config, OverlaySpec(kind="ringcast"), RngRegistry(4)
    )
    warm_up(population)
    return population


def drive(driver, fanout, snapshot, population):
    origin = snapshot.alive_ids[0]
    rng = random.Random(1)
    ringcast = RingCastPolicy()
    if driver == "disseminate":
        disseminate(snapshot, ringcast, fanout, origin, rng)
    elif driver == "disseminate_event_driven":
        disseminate_event_driven(snapshot, ringcast, fanout, origin, rng)
    elif driver == "disseminate_live":
        live_origin = population.network.alive_ids()[0]
        disseminate_live(population, fanout, live_origin, rng)
    elif driver == "arraysim.disseminate_many":
        disseminate_many(
            snapshot,
            RandCastPolicy(),
            fanout,
            (origin,),
            np.random.Generator(np.random.PCG64(1)),
        )
    else:
        DisseminationCore(1, "randcast", fanout=fanout)


DRIVERS = [
    ("disseminate", 1),
    ("disseminate_event_driven", 1),
    ("disseminate_live", 1),
    ("arraysim.disseminate_many", 1),
    ("DisseminationCore", 0),
]
BELOW_MINIMUM = "below minimum"


class TestFanoutRule:
    @pytest.mark.parametrize(
        "fanout", [math.nan, math.inf, 2.5, True, BELOW_MINIMUM]
    )
    @pytest.mark.parametrize("driver, minimum", DRIVERS)
    def test_rejects_a_fanout_that_is_not_an_allowed_integer(
        self, ringcast_snapshot, small_population, driver, minimum, fanout
    ):
        if fanout == BELOW_MINIMUM:
            fanout = minimum - 1
        with pytest.raises(ConfigurationError, match="fanout"):
            drive(driver, fanout, ringcast_snapshot, small_population)

    @pytest.mark.parametrize("driver, minimum", DRIVERS)
    def test_accepts_the_minimum(
        self, ringcast_snapshot, small_population, driver, minimum
    ):
        drive(driver, minimum, ringcast_snapshot, small_population)
