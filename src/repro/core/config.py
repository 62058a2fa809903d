"""DCP configuration: the paper's hyper-parameters in one place."""

from __future__ import annotations

from dataclasses import dataclass

from ..placement.hierarchical import PlacementConfig

__all__ = ["DCPConfig"]


@dataclass(frozen=True)
class DCPConfig:
    """Hyper-parameters of the DCP planner (paper §7.1).

    Attributes
    ----------
    block_size:
        Token granularity ``B`` of block partitioning (the paper
        searches {512, 1024, 2048, 4096}).
    num_divisions:
        Upper bound on the computation/communication divisions ``T`` of
        a batch: the scheduler prices ``T = 1, 2, 4, ...`` up to it per
        plan and keeps the cheapest
        (:func:`repro.scheduling.build_schedule`).  The default is the
        paper's fixed 4 (§7.1), which stays the best choice at its own
        geometry — 131072 tokens on 4x8 devices — and so must stay a
        candidate.
    eps_inter, eps_intra, eps_data:
        Computation-imbalance tolerance between machines / between
        devices of one machine (paper: 0.4 and 0.1), and the partition's
        data-imbalance tolerance at both levels.
    seed, restarts, refine_passes, use_warm_starts:
        Partitioner knobs (see :mod:`repro.hypergraph`); ``restarts=0``
        runs only the warm starts, so it needs ``use_warm_starts``.
    """

    block_size: int = 1024
    num_divisions: int = 4
    eps_inter: float = 0.4
    eps_intra: float = 0.1
    eps_data: float = 0.08
    seed: int = 0
    restarts: int = 2
    refine_passes: int = 5
    use_warm_starts: bool = True
    #: Division heuristic: "paper" (Listing 3) or "balanced" (an
    #: extension spreading compute across divisions; see
    #: :func:`repro.scheduling.build_schedule`).
    scheduler: str = "paper"

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.num_divisions < 1:
            raise ValueError("num_divisions must be positive")
        if min(self.eps_inter, self.eps_intra, self.eps_data) < 0:
            raise ValueError("imbalance tolerances must be non-negative")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")
        if self.restarts == 0 and not self.use_warm_starts:
            raise ValueError("restarts=0 requires use_warm_starts")
        if self.scheduler not in ("paper", "balanced"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")

    def placement_config(self) -> PlacementConfig:
        return PlacementConfig(
            eps_inter=self.eps_inter,
            eps_intra=self.eps_intra,
            eps_data=self.eps_data,
            seed=self.seed,
            restarts=self.restarts,
            refine_passes=self.refine_passes,
            use_warm_starts=self.use_warm_starts,
        )
