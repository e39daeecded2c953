"""Node lifetime bookkeeping (paper Figs. 12 and 13).

Lifetime is "the number of cycles since [a node] joined the network".
Figure 12 plots the lifetime distribution of the alive population after
full turnover; Figure 13 plots the lifetime distribution restricted to
the nodes a dissemination *missed*, revealing that RINGCAST's residual
misses concentrate entirely on freshly joined nodes.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable

__all__ = ["lifetime_histogram"]


def lifetime_histogram(lifetimes: Iterable[int]) -> Dict[int, int]:
    """Histogram ``{lifetime: node count}`` of a lifetime sequence."""
    return dict(Counter(lifetimes))

