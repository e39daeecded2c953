"""Flat-state replay of churn-free CYCLON + VICINITY gossip cycles.

Warm-up (§7: ~100 cycles before the overlay is frozen) costs the object
path one :class:`~repro.core.views.NodeDescriptor` per shipped entry,
one message object per exchange and one invariant-checked
``PartialView.add`` per merged entry. :func:`run_cycles` does the same
work on flat state and writes the outcome back, so everything
downstream — ``freeze_overlay``, the stores, a churn loop started
afterwards — sees exactly what ``CycleDriver.run`` would have left:
same views in the same order with the same ages, same counters, same
position of the ``gossip`` random stream.

Flat state, per alive node and per protocol, is an insertion-ordered
``dict peer_id -> cell`` where a cell is ``[age, descriptor-or-None]``;
ring keys sit, as floats, in one list indexed by node ID. A cell stands
for one descriptor *object*: ``VicinityCore._merge`` keeps the CYCLON
view's live descriptors, so a node's two views can hold the same object,
which then ages twice per cycle. Import maps a shared descriptor to a
shared cell and export builds one descriptor per cell, so that structure
survives the round trip. Exported views are rebuilt through
``PartialView.add``; every view invariant is checked again there.

VICINITY's view selection ranks only when its answer can change: a view
the kernel ranked is closest-first, so a merge that brings in no peer
strictly closer than the view's farthest entry leaves it as it stands
and only refreshes ages (``keep_closest`` in :func:`_gossip`). All
ranking goes through :func:`~repro.membership.ring_ids.closest_indices`,
where the tie rule lives.

The kernel replays only the stock stack (see :func:`_flatten`); churn,
cycle hooks, multi-ring and domain-ring overlays, protocol subclasses
and the UDP runtime stay on the object path, which is also the
reference ``tests/test_warmup_kernel.py`` compares against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cyclon import CyclonCore
from repro.core.targets import draw_sample
from repro.core.vicinity import VicinityCore
from repro.core.views import NodeDescriptor, PartialView
from repro.membership.cyclon import Cyclon
from repro.membership.ring_ids import (
    RingProximity,
    circular_distance,
    closest_indices,
)
from repro.membership.vicinity import Vicinity
from repro.sim.cycle import CycleDriver

__all__ = ["run_cycles"]

Cell = list  # [age, NodeDescriptor | None]
View = Dict[int, Cell]
Shipped = List[Tuple[int, int]]  # (peer_id, age) pairs: descriptor copies

_STOCK_SELECT = RingProximity.select
_NEVER = float("-inf")
_ALWAYS = float("inf")
_EXACT = 1 << 53  # integers up to here are exact in a double


class _Flat:
    """The population as tables indexed by node ID."""

    def __init__(self, network) -> None:
        self.alive = network.alive_ids()
        self.profiles = [node.profile for node in network.all_nodes()]
        # Floats: ring IDs sit below 2^32, where CPython ints are
        # two-digit longs and every ``-``/``%`` takes the slow path.
        # Distances stay exact while the ID space fits a double.
        self.ring = [float(profile.ring_ids[0]) for profile in self.profiles]
        size = len(self.profiles)
        self.cyclon: List[Optional[View]] = [None] * size
        self.vicinity: List[Optional[View]] = [None] * size
        # Shuffles initiated / received, exchanges initiated / received.
        self.counts = [[0, 0, 0, 0] for _ in range(size)]
        # One configuration for all nodes: (view size, shuffle length)
        # and (view size, gossip length, ID space).
        self.cyclon_shape: Optional[Tuple[int, int]] = None
        self.vicinity_shape: Optional[Tuple[int, int, int]] = None
        self.cells: Dict[int, Cell] = {}  # id(descriptor) -> its cell

    def load(self, view: PartialView, owner_id: int) -> Optional[View]:
        """``view`` as a flat table, or ``None`` if it is not one the
        kernel can replay (foreign type, owner or descriptor profile)."""
        if type(view) is not PartialView or view.owner_id != owner_id:
            return None
        table: View = {}
        profiles = self.profiles
        cells = self.cells
        for descriptor in view.descriptors():
            peer_id = descriptor.node_id
            if not 0 <= peer_id < len(profiles):
                return None
            if descriptor.profile != profiles[peer_id]:
                return None
            cell = cells.get(id(descriptor))
            if cell is None:
                cell = cells[id(descriptor)] = [descriptor.age, descriptor]
            table[peer_id] = cell
        return table

    def store(self, table: View, view: PartialView) -> None:
        """Rebuild ``view`` from ``table``, one descriptor per cell."""
        view.clear()
        for peer_id, cell in table.items():
            descriptor = cell[1]
            if descriptor is None:
                descriptor = cell[1] = NodeDescriptor(
                    peer_id, cell[0], self.profiles[peer_id]
                )
            else:
                descriptor.age = cell[0]
            view.add(descriptor)


def _flatten(driver: CycleDriver) -> Optional[_Flat]:
    """Import the driver's population, or ``None`` when it is not stock.

    Stock means: a plain ``CycleDriver`` with no churn adapter and no
    cycle hook; ``RingProximity.select`` not replaced; every alive node
    runs exactly ``Cyclon`` or exactly ``Cyclon`` + one ``Vicinity``
    named ``"vicinity"`` over ``RingProximity(ring_index=0)`` (ID space
    at most 2^53: ring keys are held as floats) fed by the node's own
    CYCLON core — the same stack, sized the same, on all of them; no
    shuffle is pending; every held descriptor carries its subject's
    profile. Dead nodes are never stepped, so their protocols are not
    inspected.
    """
    if type(driver) is not CycleDriver:
        return None
    if driver.churn is not None or driver._hooks:
        return None
    if RingProximity.select is not _STOCK_SELECT:
        return None
    network = driver.network
    alive = network.alive_nodes()
    if not alive:
        return None
    names = list(alive[0].protocols)
    if names != ["cyclon"] and names != ["cyclon", "vicinity"]:
        return None
    flat = _Flat(network)
    for node in alive:
        node_id = node.node_id
        if list(node.protocols) != names:
            return None
        cyclon = node.protocols["cyclon"]
        if type(cyclon) is not Cyclon or type(cyclon.core) is not CyclonCore:
            return None
        core = cyclon.core
        shape = (core.view.capacity, core.shuffle_length)
        if (
            core.node_id != node_id
            or core.profile != node.profile
            or core._pending
            or shape != (flat.cyclon_shape or shape)
        ):
            return None
        flat.cyclon_shape = shape
        flat.cyclon[node_id] = flat.load(core.view, node_id)
        if flat.cyclon[node_id] is None:
            return None
        if len(names) == 1:
            continue
        vicinity = node.protocols["vicinity"]
        if (
            type(vicinity) is not Vicinity
            or vicinity.name != "vicinity"
            or type(vicinity.core) is not VicinityCore
            or type(vicinity.core.proximity) is not RingProximity
        ):
            return None
        vcore = vicinity.core
        proximity = vcore.proximity
        shape = (vcore.view.capacity, vcore.gossip_length, proximity.space)
        if (
            vcore.node_id != node_id
            or vcore.profile != node.profile
            or vcore.cyclon is not core
            or proximity.ring_index != 0
            or proximity.space > _EXACT
            or shape != (flat.vicinity_shape or shape)
        ):
            return None
        flat.vicinity_shape = shape
        flat.vicinity[node_id] = flat.load(vcore.view, node_id)
        if flat.vicinity[node_id] is None:
            return None
    return flat


def _unflatten(flat: _Flat, driver: CycleDriver, cycles: int, traffic) -> None:
    """Write views, ages and every counter back into the objects."""
    network = driver.network
    for node_id in flat.alive:
        node = network.node(node_id)
        initiated, received, v_initiated, v_received = flat.counts[node_id]
        core = node.protocols["cyclon"].core
        flat.store(flat.cyclon[node_id], core.view)
        core.shuffles_initiated += initiated
        core.shuffles_received += received
        if flat.vicinity_shape is not None:
            vcore = node.protocols["vicinity"].core
            flat.store(flat.vicinity[node_id], vcore.view)
            vcore.exchanges_initiated += v_initiated
            vcore.exchanges_received += v_received
        # Either side of an exchange sends one message and receives one.
        exchanged = initiated + received + v_initiated + v_received
        node.messages_sent += exchanged
        node.messages_received += exchanged
    messages, entries, failed = traffic
    network.gossip_messages += messages
    network.gossip_entries_shipped += entries
    network.failed_contacts += failed
    network.current_cycle += cycles


def run_cycles(driver: CycleDriver, cycles: int) -> bool:
    """Run ``cycles`` gossip cycles over ``driver``'s population on flat
    state, leaving what ``driver.run(cycles)`` would have left.

    Returns ``False`` — having touched nothing — when the population is
    not one the kernel replays; the caller then uses ``driver.run``.
    """
    flat = _flatten(driver)
    if flat is None:
        return False
    _unflatten(flat, driver, cycles, _gossip(flat, driver.rng, cycles))
    return True


def _age_and_pick(view: View, alive) -> Tuple[Optional[int], int]:
    """Age ``view`` by one cycle, then pick its oldest alive entry (first
    inserted wins ties), dropping dead ones met on the way. Returns the
    partner (``None`` once the view is empty) and the dead-contact count.
    """
    partner = None
    oldest = _NEVER
    for peer_id, cell in view.items():
        age = cell[0] = cell[0] + 1
        if age > oldest:
            oldest = age
            partner = peer_id
    failed = 0
    while partner is not None and partner not in alive:
        del view[partner]
        failed += 1
        # max() keeps the first of several maximal entries, as above.
        partner = max(view, key=lambda peer: view[peer][0], default=None)
    return partner, failed


def _shuffle_merge(
    view: View,
    owner: int,
    received: Shipped,
    replaceable: List[int],
    capacity: int,
) -> None:
    """``CyclonCore._merge``: skip self and known peers, fill free slots,
    then overwrite the slots of entries shipped to the other side."""
    for peer_id, age in received:
        if peer_id == owner or peer_id in view:
            continue
        if len(view) < capacity:
            view[peer_id] = [age, None]
            continue
        while replaceable:
            if view.pop(replaceable.pop(), None) is not None:
                view[peer_id] = [age, None]
                break


def _gossip(flat: _Flat, rng, cycles: int) -> Tuple[int, int, int]:
    """The cycles themselves, in ``CycleDriver.run_cycle``'s order and
    with its draws: one ``shuffle`` of the alive IDs per cycle, then per
    node the initiator's ``sample``, the responder's ``sample`` and —
    while a VICINITY view is empty — the fallback ``choice``.

    Returns (gossip messages, entries shipped, failed contacts).
    """
    alive = frozenset(flat.alive)
    ring, counts = flat.ring, flat.counts
    cyclon, vicinity = flat.cyclon, flat.vicinity
    view_size, shuffle_length = flat.cyclon_shape
    layered = flat.vicinity_shape is not None
    vicinity_size, gossip_length, space = flat.vicinity_shape or (0, 0, 0)
    shuffle, choice = rng.shuffle, rng.choice
    key_of = ring.__getitem__
    # A float like the keys: an int here would be converted on every
    # ``%``, which costs more than the float keys save.
    space = float(space)
    half = space // 2
    # Per owner, the distance to the farthest entry of the VICINITY view
    # as ``keep_closest`` last ranked it; ``None`` until it has, because
    # an imported view is in no known order.
    reach: List[Optional[float]] = [None] * len(ring)
    messages = entries = failed = 0

    def closest_to(target: int, owner: int) -> Shipped:
        """``VicinityCore._entries_for``: of own view ∪ CYCLON view ∪
        self, minus the target, the entries closest to the target."""
        view, feed = vicinity[owner], cyclon[owner]
        # The merged pool's order — view, CYCLON-only peers, self — so
        # equal distances fall as they do there.
        ids = list(view)
        in_view = len(ids)
        ids += [peer_id for peer_id in feed if peer_id not in view]
        ids.append(owner)
        # One more than is shipped: the target may be among the
        # candidates, and under a stable sort dropping it afterwards
        # equals ranking without it.
        shipped: Shipped = []
        for i in closest_indices(
            map(key_of, ids), ring[target], gossip_length + 1, space
        ):
            peer_id = ids[i]
            if peer_id == target:
                continue
            if peer_id == owner:
                age = 0  # a fresh self-descriptor
            elif i >= in_view:
                age = feed[peer_id][0]
            else:
                # The fresher of the two views' copies, the view's on a tie.
                age = view[peer_id][0]
                fed = feed.get(peer_id)
                if fed is not None and fed[0] < age:
                    age = fed[0]
            shipped.append((peer_id, age))
        return shipped[:gossip_length]

    def keep_closest(owner: int, received: Shipped) -> None:
        """``VicinityCore._merge``: of own view ∪ received ∪ CYCLON view
        (freshest copy per peer, the earlier one on equal ages), keep
        the entries closest to self. An entry taken from the CYCLON view
        is that view's own cell — the sharing the module docstring names.

        A view this function wrote is closest-first and its members come
        first in the pool, so the stable ranking returns it unchanged
        unless a peer outside it is *strictly* closer than its farthest
        entry (any outsider at all while it has room). Until one shows
        up only the cells are refreshed, in the merge's order; the merge
        is idempotent, so falling through to it midway is safe.
        """
        view = vicinity[owner]
        limit = reach[owner]
        if limit is not None:
            if len(view) < vicinity_size:
                limit = _ALWAYS
            ref = ring[owner]
            for peer_id, age in received:
                held = view.get(peer_id)
                if held is not None:
                    if age < held[0]:
                        view[peer_id] = [age, None]
                elif peer_id != owner:
                    # The distance closest_indices sorts by, inlined.
                    ahead = (ring[peer_id] - ref) % space
                    if (ahead if ahead <= half else space - ahead) < limit:
                        break
            else:
                for peer_id, cell in cyclon[owner].items():
                    held = view.get(peer_id)
                    if held is not None:
                        if cell[0] < held[0]:
                            view[peer_id] = cell
                    else:
                        ahead = (ring[peer_id] - ref) % space
                        if (ahead if ahead <= half else space - ahead) < limit:
                            break
                else:
                    return
        pool = dict(view)
        for peer_id, age in received:
            if peer_id == owner:
                continue
            held = pool.get(peer_id)
            if held is None or age < held[0]:
                pool[peer_id] = [age, None]
        for peer_id, cell in cyclon[owner].items():
            held = pool.get(peer_id)
            if held is None or cell[0] < held[0]:
                pool[peer_id] = cell
        ids = list(pool)
        cells = list(pool.values())
        chosen = closest_indices(
            map(key_of, ids), ring[owner], vicinity_size, space
        )
        view.clear()
        for i in chosen:
            view[ids[i]] = cells[i]
        reach[owner] = (
            circular_distance(ring[owner], ring[ids[chosen[-1]]], space)
            if chosen
            else _ALWAYS
        )

    for _ in range(cycles):
        order = list(flat.alive)
        shuffle(order)
        for node_id in order:
            # -- Cyclon.execute_cycle
            view = cyclon[node_id]
            partner, dead = _age_and_pick(view, alive)
            failed += dead
            if partner is not None:
                pool = [peer_id for peer_id in view if peer_id != partner]
                shipped = (
                    pool
                    if shuffle_length - 1 >= len(pool)
                    else draw_sample(pool, shuffle_length - 1, rng)
                )
                payload = [(peer_id, view[peer_id][0]) for peer_id in shipped]
                payload.append((node_id, 0))
                del view[partner]
                theirs = cyclon[partner]
                pool = list(theirs)
                answered = (
                    pool
                    if shuffle_length >= len(pool)
                    else draw_sample(pool, shuffle_length, rng)
                )
                reply = [(peer_id, theirs[peer_id][0]) for peer_id in answered]
                _shuffle_merge(theirs, partner, payload, answered, view_size)
                _shuffle_merge(view, node_id, reply, shipped, view_size)
                counts[node_id][0] += 1
                counts[partner][1] += 1
                messages += 2
                entries += len(payload) + len(reply)
            if not layered:
                continue
            # -- Vicinity.execute_cycle
            partner, dead = _age_and_pick(vicinity[node_id], alive)
            failed += dead
            if partner is None:
                fallback = [
                    peer_id for peer_id in cyclon[node_id] if peer_id in alive
                ]
                if not fallback:
                    continue
                partner = choice(fallback)
            payload = closest_to(partner, node_id)
            reply = closest_to(node_id, partner)
            entries += len(payload) + len(reply)
            payload.append((node_id, 0))  # the request's ``initiator``
            keep_closest(partner, payload)
            keep_closest(node_id, reply)
            counts[node_id][2] += 1
            counts[partner][3] += 1
            messages += 2
    return messages, entries, failed
