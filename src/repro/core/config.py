"""DCP configuration: the paper's hyper-parameters in one place."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    scheduler:
        Division heuristic: "paper" (Listing 3) or "balanced" (an
        extension spreading compute across divisions; see
        :func:`repro.scheduling.build_schedule`).
    placement:
        The partitioner's knobs: imbalance tolerances, seed, restarts
        and warm starts (:class:`~repro.placement.PlacementConfig`).
    """

    block_size: int = 1024
    num_divisions: int = 4
    scheduler: str = "paper"
    placement: PlacementConfig = field(default_factory=PlacementConfig)

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.num_divisions < 1:
            raise ValueError("num_divisions must be positive")
        if self.scheduler not in ("paper", "balanced"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")

    def placement_config(self) -> PlacementConfig:
        """:attr:`placement`, by the name the frozen ledger calls."""
        return self.placement
