"""Failure and churn models (paper §7.2, §7.3).

* :class:`ArtificialChurn` — the paper's churn model: every cycle a
  fixed fraction of random nodes leaves forever and an equal number of
  fresh nodes joins from scratch. At 0.2% per 10-second cycle this
  matches the churn rate observed in the Gnutella traces of Saroiu et
  al. [18].
* :func:`lifetime_histogram` — ``{lifetime: node count}`` of a
  lifetime sequence (the live fleet's report). The histograms behind
  Figs. 12/13 are plain ``Counter`` objects summed by the churn
  scenario's :class:`~repro.experiments.scenarios.ChurnOutcome`.

Catastrophic failure (§7.2) needs no live network: it kills a fraction
of a frozen overlay, with no repair, through
:meth:`repro.dissemination.snapshot.OverlaySnapshot.kill_fraction`.
"""

from repro.failures.churn import ArtificialChurn
from repro.failures.lifetimes import lifetime_histogram

__all__ = [
    "ArtificialChurn",
    "lifetime_histogram",
]
