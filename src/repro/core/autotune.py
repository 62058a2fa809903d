"""Block-size auto-tuning (paper §7.1 hyper-parameter search).

The paper treats the block size ``B`` as a searched hyper-parameter:
"We search through block sizes 512, 1024, 2048, 4096 and report the
best performance."  Block size trades placement flexibility (smaller
blocks -> less communication, Fig. 17) against planning time (Fig. 18)
and per-tile kernel overheads.  This module automates the search
against the timing simulator: probe a few batches per candidate,
score by simulated attention time, and return the winner with the full
score table.  Planning time is reported, not scored: the paper's
methodology hides it behind execution (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..blocks import AttentionSpec, BatchSpec
from ..sim.cluster import ClusterSpec
from .config import DCPConfig
from .planner import DCPPlanner

__all__ = ["BlockSizeScore", "AutotuneResult", "autotune_block_size"]

#: The paper's candidate set (read at run time).
PAPER_CANDIDATES = (512, 1024, 2048, 4096)

#: Batches planned per candidate, from the front of the stream (read at
#: run time).
PROBE_BATCHES = 2


@dataclass
class BlockSizeScore:
    """Measured quality of one candidate block size."""

    block_size: int
    attention_s: float  # mean simulated fw+bw attention time per batch
    planning_s: float  # mean planning wall-clock per batch
    comm_bytes: float  # mean communication volume per batch


@dataclass
class AutotuneResult:
    """Outcome of a block-size search."""

    best: int
    scores: List[BlockSizeScore]

    def table(self) -> str:
        lines = [
            f"{'block':>6} {'attn_ms':>9} {'plan_s':>8} {'comm_mb':>9}"
        ]
        for score in self.scores:
            marker = " *" if score.block_size == self.best else ""
            lines.append(
                f"{score.block_size:>6} {1e3 * score.attention_s:>9.3f} "
                f"{score.planning_s:>8.3f} "
                f"{score.comm_bytes / 1e6:>9.2f}{marker}"
            )
        return "\n".join(lines)


def autotune_block_size(
    batches: Sequence[BatchSpec],
    cluster: ClusterSpec,
    attention: Optional[AttentionSpec] = None,
    config: Optional[DCPConfig] = None,
) -> AutotuneResult:
    """Search :data:`PAPER_CANDIDATES` on a prefix of the batch stream.

    Parameters
    ----------
    batches:
        The training stream; only the first :data:`PROBE_BATCHES` are
        planned per candidate (the paper reports averages over batches
        with a fixed block size).

    Returns
    -------
    AutotuneResult
        The candidate with the least mean simulated attention time,
        plus per-candidate scores.  Ties break toward larger blocks
        (cheaper planning).
    """
    probes = list(batches)[:PROBE_BATCHES]
    if not probes:
        raise ValueError("need at least one batch to probe")
    config = config or DCPConfig()

    scores: List[BlockSizeScore] = []
    for block_size in PAPER_CANDIDATES:
        tuned = replace(config, block_size=block_size)
        planner = DCPPlanner(cluster, attention, tuned)
        attn, plan_wall, comm = [], [], []
        for batch in probes:
            plan = planner.plan_batch(batch)
            plan_wall.append(plan.meta["planning_stats"].total)
            # The scheduler's price of its choice is the simulated
            # forward + backward time of this plan.
            attn.append(min(plan.meta["division_prices"].values()))
            comm.append(plan.total_comm_bytes())
        scores.append(
            BlockSizeScore(
                block_size=block_size,
                attention_s=float(np.mean(attn)),
                planning_s=float(np.mean(plan_wall)),
                comm_bytes=float(np.mean(comm)),
            )
        )

    best = min(scores, key=lambda s: (s.attention_s, -s.block_size))
    return AutotuneResult(best=best.block_size, scores=scores)
