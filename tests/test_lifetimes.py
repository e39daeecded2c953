"""Tests for lifetime bookkeeping (Figs. 12/13 machinery)."""

from repro.failures.lifetimes import lifetime_histogram


class TestHistogram:
    def test_basic(self):
        assert lifetime_histogram([1, 1, 3]) == {1: 2, 3: 1}

    def test_empty(self):
        assert lifetime_histogram([]) == {}
