"""Public DCP API: config, planner, dataloader, distributed planning."""

from .autotune import AutotuneResult, BlockSizeScore, autotune_block_size
from .cache import PlanAbandoned, PlanCache, batch_signature
from .config import DCPConfig
from .dataloader import DCPDataloader, DistributedDataloader, LocalData
from .groups import GroupedPlan, plan_with_groups, split_batch_by_workload
from .kvstore import KVStore
from .planner import DCPPlanner, PlanningStats
from .planwire import (
    PlanWire,
    PlanWireError,
    decode_device_payload,
    decode_plan,
    encode_device_payload,
    encode_plan,
)
from .pool import (
    PlanningTimeline,
    min_cores_to_hide_planning,
    simulate_planning_overlap,
)

__all__ = [
    "DCPConfig",
    "AutotuneResult",
    "BlockSizeScore",
    "autotune_block_size",
    "DCPDataloader",
    "LocalData",
    "DCPPlanner",
    "PlanningStats",
    "GroupedPlan",
    "plan_with_groups",
    "split_batch_by_workload",
    "PlanCache",
    "PlanAbandoned",
    "batch_signature",
    "KVStore",
    "PlanWire",
    "PlanWireError",
    "encode_plan",
    "decode_plan",
    "encode_device_payload",
    "decode_device_payload",
    "DistributedDataloader",
    "PlanningTimeline",
    "simulate_planning_overlap",
    "min_cores_to_hide_planning",
]
