"""Tests for the event-driven executor and the latency-independence claim."""

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.dissemination.event_executor import disseminate_event_driven
from repro.dissemination.executor import disseminate
from repro.dissemination.policies import (
    FloodingPolicy,
    RandCastPolicy,
    RingCastPolicy,
)
from repro.dissemination.snapshot import OverlaySnapshot
from repro.graphs.generators import balanced_tree, bidirectional_ring
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    UniformLatency,
    ZeroLatency,
)
from tests.test_arraysim import random_snapshot


class TestBasics:
    def test_flooding_ring_complete(self, rng):
        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(12)))
        )
        result = disseminate_event_driven(
            snapshot, FloodingPolicy(), 1, 0, rng
        )
        assert result.complete
        assert result.total_messages == 13

    def test_rejects_bad_fanout(self, rng, ringcast_snapshot):
        with pytest.raises(ConfigurationError):
            disseminate_event_driven(
                ringcast_snapshot, RingCastPolicy(), 0, 0, rng
            )

    def test_rejects_dead_origin(self, rng):
        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(6)))
        )
        damaged = snapshot.kill_count(1, rng)
        dead = (set(snapshot.alive_ids) - set(damaged.alive_ids)).pop()
        with pytest.raises(SimulationError):
            disseminate_event_driven(damaged, FloodingPolicy(), 1, dead, rng)

    def test_rejects_negative_forward_delay(self, rng, ringcast_snapshot):
        with pytest.raises(ConfigurationError):
            disseminate_event_driven(
                ringcast_snapshot,
                RingCastPolicy(),
                3,
                0,
                rng,
                forward_delay=-1.0,
            )

    @pytest.mark.parametrize("delay", [float("nan"), -0.5])
    def test_rejects_nan_and_negative_latency_samples(self, rng, delay):
        class Broken(LatencyModel):
            def sample(self, src, dst, rng):
                return delay

        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(6)))
        )
        with pytest.raises(SimulationError):
            disseminate_event_driven(
                snapshot, FloodingPolicy(), 1, 0, rng, Broken()
            )

    def test_delivery_times_recorded(self, rng):
        snapshot = OverlaySnapshot.from_graph(
            balanced_tree(list(range(7)), branching=2)
        )
        result = disseminate_event_driven(
            snapshot, FloodingPolicy(), 1, 0, rng, ConstantLatency(1.0)
        )
        assert result.delivery_times[0] == 0.0
        assert result.delivery_times[1] == 1.0
        assert result.delivery_times[3] == 2.0
        assert result.completion_time == 2.0


class TestLatencyIndependence:
    """The paper's §7 claim: latency changes timing, not coverage."""

    def test_flooding_coverage_invariant_across_latency(self, rng):
        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(30)))
        )
        results = [
            disseminate_event_driven(
                snapshot, FloodingPolicy(), 1, 0, rng, model
            )
            for model in (
                ZeroLatency(),
                ConstantLatency(2.0),
                UniformLatency(0.1, 5.0),
            )
        ]
        assert all(r.complete for r in results)
        counts = {r.total_messages for r in results}
        assert len(counts) == 1

    def test_ringcast_complete_under_any_latency(
        self, ringcast_snapshot, rng
    ):
        for model in (
            ZeroLatency(),
            ConstantLatency(1.0),
            UniformLatency(0.5, 10.0),
        ):
            result = disseminate_event_driven(
                ringcast_snapshot, RingCastPolicy(), 3, 0, rng, model
            )
            assert result.complete

    def test_forward_delay_shifts_completion_time(self, rng):
        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(10)))
        )
        fast = disseminate_event_driven(
            snapshot, FloodingPolicy(), 1, 0, rng, ConstantLatency(1.0)
        )
        slow = disseminate_event_driven(
            snapshot,
            FloodingPolicy(),
            1,
            0,
            rng,
            ConstantLatency(1.0),
            forward_delay=2.0,
        )
        assert slow.completion_time > fast.completion_time
        assert slow.notified == fast.notified

    def test_heterogeneous_latency_changes_order_not_set(self):
        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(20)))
        )
        uniform = disseminate_event_driven(
            snapshot,
            FloodingPolicy(),
            1,
            0,
            random.Random(1),
            UniformLatency(0.1, 5.0),
        )
        constant = disseminate_event_driven(
            snapshot,
            FloodingPolicy(),
            1,
            0,
            random.Random(1),
            ConstantLatency(1.0),
        )
        order_uniform = sorted(
            uniform.delivery_times, key=uniform.delivery_times.get
        )
        order_constant = sorted(
            constant.delivery_times, key=constant.delivery_times.get
        )
        assert set(order_uniform) == set(order_constant)
        assert order_uniform != order_constant


@st.composite
def dissemination_cases(draw):
    """(snapshot, policy, fanout, origin, seed) over adversarial
    snapshots: sparse IDs, dead links, duplicates, killed nodes."""
    seed = draw(st.integers(min_value=0, max_value=10**9))
    rng = random.Random(seed)
    snapshot = random_snapshot(rng, rng.randint(2, 40))
    policy = draw(
        st.sampled_from(
            (FloodingPolicy(), RandCastPolicy(), RingCastPolicy())
        )
    )
    fanout = draw(st.integers(min_value=1, max_value=5))
    origin = draw(st.sampled_from(snapshot.alive_ids))
    return snapshot, policy, fanout, origin, seed


class TestUnitLatencyIsHopCounting:
    """§7.1 as a property: the hop-synchronous model is the timed
    schedule's unit-latency case, field for field."""

    @given(case=dissemination_cases())
    @example(
        case=(
            OverlaySnapshot.from_graph(
                balanced_tree(list(range(31)), branching=2)
            ),
            FloodingPolicy(),
            1,
            0,
            0,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_event_driven_equals_hop_executor(self, case):
        snapshot, policy, fanout, origin, seed = case
        hop = disseminate(
            snapshot, policy, fanout, origin, random.Random(seed)
        )
        event = disseminate_event_driven(
            snapshot,
            policy,
            fanout,
            origin,
            random.Random(seed),
            ConstantLatency(1.0),
        )
        assert replace(event, delivery_times={}) == hop
        assert event.completion_time == hop.completion_time == hop.hops
        # A node first reached at hop h was delivered at time h.
        assert len(event.delivery_times) == hop.notified
        delivered_at = Counter(event.delivery_times.values())
        assert [
            delivered_at[float(h)] for h in range(hop.hops + 1)
        ] == list(hop.per_hop_new)


class TestFailures:
    def test_messages_to_dead_counted(self, rng):
        snapshot = OverlaySnapshot.from_graph(
            bidirectional_ring(list(range(10)))
        )
        damaged = snapshot.kill_count(2, rng)
        origin = damaged.alive_ids[0]
        result = disseminate_event_driven(
            damaged, FloodingPolicy(), 1, origin, rng
        )
        assert result.msgs_to_dead >= 1
        assert (
            result.total_messages
            == result.msgs_virgin
            + result.msgs_redundant
            + result.msgs_to_dead
        )
