"""Composing DCP with tensor and pipeline parallelism (paper §6.2).

The paper argues TP and PP are orthogonal to DCP and prescribes the
``TP-CP-DP-PP`` rank order, with DCP occupying the CP and DP ranks.
This subpackage makes the composition concrete:

* :mod:`~repro.parallel.topology` — the (tp, dcp, pp) degrees and their
  fit to a cluster;
* :mod:`~repro.parallel.tp` — head sharding, TP all-reduce pricing, the
  DCP-visible cluster when TP groups act as single ranks;
* :mod:`~repro.parallel.pp` — layer splitting and a 1F1B pipeline
  schedule simulator (per-microbatch costs, as DCP's variable batches
  require);
* :mod:`~repro.parallel.hybrid` — full-iteration estimates for a
  TP x DCP x PP configuration around real execution plans.
"""

from .hybrid import (
    HybridConfig,
    HybridResult,
    hybrid_iteration_time,
    split_batch_by_workload,
)
from .pp import (
    PipelineTiming,
    StageCost,
    one_f_one_b_order,
    simulate_1f1b_varied,
    split_layers,
)
from .topology import RankTopology
from .tp import (
    allreduce_time,
    dcp_view_cluster,
    shard_attention,
    tp_layer_comm_time,
)

__all__ = [
    "RankTopology",
    "shard_attention",
    "dcp_view_cluster",
    "allreduce_time",
    "tp_layer_comm_time",
    "StageCost",
    "PipelineTiming",
    "split_layers",
    "one_f_one_b_order",
    "simulate_1f1b_varied",
    "HybridConfig",
    "HybridResult",
    "hybrid_iteration_time",
    "split_batch_by_workload",
]
