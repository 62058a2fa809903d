"""Rank topology for composing DCP with other parallelisms (paper §6.2).

The paper prescribes Megatron-LM's ``TP-CP-DP-PP`` rank-assignment
order: tensor parallelism occupies consecutive ranks (highest
communication volume, so it must stay on NVSwitch), DCP occupies the
ranks traditionally assigned to CP *and* DP (DCP subsumes data
parallelism as one of its configurations), and pipeline parallelism
spans the most distant ranks (least communication).

:class:`RankTopology` holds the ``(tp, dcp, pp)`` degrees and checks
that they fit a cluster.  Because DCP absorbs the CP and DP dimensions, the topology has three
axes rather than Megatron's four; :attr:`RankTopology.dcp` equals the
product of what Megatron would call the CP and DP degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.cluster import ClusterSpec

__all__ = ["RankTopology"]


@dataclass(frozen=True)
class RankTopology:
    """A ``TP-DCP-PP`` decomposition of a world of ranks.

    Rank numbering follows the paper's prescription: TP varies fastest
    (consecutive ranks), then DCP, then PP —
    ``rank = tp + TP * (dcp + DCP * pp)``.

    Attributes
    ----------
    tp:
        Tensor-parallel degree (ranks that shard each weight matrix).
    dcp:
        DCP degree: the number of ranks DCP plans over.  This axis
        covers both of Megatron's CP and DP dimensions.
    pp:
        Pipeline-parallel degree (model stages).
    """

    tp: int = 1
    dcp: int = 1
    pp: int = 1

    def __post_init__(self) -> None:
        for name, degree in (("tp", self.tp), ("dcp", self.dcp), ("pp", self.pp)):
            if degree < 1:
                raise ValueError(f"{name} degree must be at least 1")

    @property
    def world_size(self) -> int:
        return self.tp * self.dcp * self.pp

    # -- cluster validation --------------------------------------------------

    def validate_against(self, cluster: ClusterSpec) -> None:
        """Check that the topology fits the cluster's structure.

        The world must match the device count, and a TP group must not
        straddle machines (TP communication requires NVSwitch — the
        premise of putting TP on consecutive ranks, §6.2).
        """
        if self.world_size != cluster.num_devices:
            raise ValueError(
                f"topology world {self.world_size} != cluster "
                f"devices {cluster.num_devices}"
            )
        if self.tp > cluster.devices_per_machine:
            raise ValueError(
                f"tp degree {self.tp} exceeds devices per machine "
                f"{cluster.devices_per_machine}"
            )
        if cluster.devices_per_machine % self.tp != 0:
            raise ValueError("tp degree must divide devices per machine")

    def describe(self) -> str:
        return f"tp={self.tp} dcp={self.dcp} pp={self.pp}"
