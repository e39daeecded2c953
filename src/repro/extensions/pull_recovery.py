"""Pull-based recovery (the paper's future work, §8).

"We expect [pull-based dissemination] to significantly improve the
efficiency of the protocol in terms of reliability." After the push
phase, nodes that missed the message periodically *poll* random
neighbors from their r-link view; polling any node that holds the
message recovers it. Rounds are synchronous (all polls of a round see
the notified set of the previous round), matching the paper's
discrete-cycle evaluation style.

The push executors already record exactly who was missed, so recovery
runs as a post-pass over a
:class:`~repro.dissemination.executor.DisseminationResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.core.targets import draw_sample
from repro.dissemination.executor import DisseminationResult
from repro.dissemination.snapshot import OverlaySnapshot

__all__ = ["PullRecoveryResult", "pull_recovery"]


@dataclass(frozen=True)
class PullRecoveryResult:
    """Outcome of the anti-entropy post-pass.

    Attributes:
        rounds_used: Pull rounds until full coverage (or the cap).
        pull_requests: Poll messages sent by still-missing nodes.
        recovered: Nodes recovered via pulls.
        unrecoverable: Missed nodes with no alive r-links at all.
        final_hit_ratio: Hit ratio after push + pull.
        per_round_missing: Missing-node count after each round.
    """

    rounds_used: int
    pull_requests: int
    recovered: int
    unrecoverable: int
    final_hit_ratio: float
    per_round_missing: Tuple[int, ...]

    @property
    def complete(self) -> bool:
        """``True`` iff pull recovery reached every alive node."""
        return self.final_hit_ratio == 1.0


def pull_recovery(
    snapshot: OverlaySnapshot,
    push_result: DisseminationResult,
    rng: random.Random,
    pulls_per_round: int = 1,
    max_rounds: int = 100,
) -> PullRecoveryResult:
    """Run synchronous pull rounds until every missed node recovers.

    Each round, every still-missing node polls ``pulls_per_round``
    random alive peers from its r-link view; polls landing on a node
    that holds the message recover it at the round boundary.
    """
    if pulls_per_round < 1:
        raise ConfigurationError(
            f"pulls_per_round must be >= 1, got {pulls_per_round}"
        )
    alive = snapshot.alive_set
    missing: Set[int] = set(push_result.missed_ids)
    notified: Set[int] = set(snapshot.alive_ids) - missing
    unrecoverable = {
        node_id
        for node_id in missing
        if not any(
            link in alive for link in snapshot.rlinks.get(node_id, ())
        )
    }

    pull_requests = 0
    per_round_missing: List[int] = []
    rounds = 0
    while missing - unrecoverable and rounds < max_rounds:
        rounds += 1
        recovered_this_round: Set[int] = set()
        for node_id in missing:
            pool = [
                link
                for link in snapshot.rlinks.get(node_id, ())
                if link in alive
            ]
            if not pool:
                continue
            count = min(pulls_per_round, len(pool))
            polled = draw_sample(pool, count, rng)
            pull_requests += count
            if any(peer in notified for peer in polled):
                recovered_this_round.add(node_id)
        notified |= recovered_this_round
        missing -= recovered_this_round
        per_round_missing.append(len(missing))

    return PullRecoveryResult(
        rounds_used=rounds,
        pull_requests=pull_requests,
        recovered=len(set(push_result.missed_ids)) - len(missing),
        unrecoverable=len(unrecoverable),
        final_hit_ratio=len(notified) / snapshot.population,
        per_round_missing=tuple(per_round_missing),
    )
