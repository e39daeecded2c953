"""Failure and churn models (paper §7.2, §7.3).

* :func:`kill_random_fraction` — catastrophic failure: a random
  fraction of the population crashes at once, with gossip stalled so
  the overlay cannot self-heal (the paper's deliberate worst case).
* :class:`ArtificialChurn` — the paper's churn model: every cycle a
  fixed fraction of random nodes leaves forever and an equal number of
  fresh nodes joins from scratch. At 0.2% per 10-second cycle this
  matches the churn rate observed in the Gnutella traces of Saroiu et
  al. [18].
* :func:`lifetime_histogram` — ``{lifetime: node count}`` of a
  lifetime sequence (the live fleet's report). The histograms behind
  Figs. 12/13 are plain ``Counter`` objects summed by the churn
  scenario's :class:`~repro.experiments.scenarios.ChurnOutcome`.
"""

from repro.failures.catastrophic import kill_random_fraction
from repro.failures.churn import ArtificialChurn
from repro.failures.lifetimes import lifetime_histogram

__all__ = [
    "ArtificialChurn",
    "kill_random_fraction",
    "lifetime_histogram",
]
