"""Tests for lifetime bookkeeping (Figs. 12/13 machinery)."""

from repro.failures.lifetimes import lifetime_histogram, lifetimes_of


class TestHistogram:
    def test_basic(self):
        assert lifetime_histogram([1, 1, 3]) == {1: 2, 3: 1}

    def test_empty(self):
        assert lifetime_histogram([]) == {}


class TestLifetimesOf:
    def test_computes_from_join_cycles(self):
        joins = {1: 10, 2: 40}
        assert lifetimes_of([1, 2], joins, now=50) == [40, 10]

    def test_unknown_node_defaults_to_cycle_zero(self):
        assert lifetimes_of([9], {}, now=7) == [7]
