"""Public DCP API: config, planner, plan cache and wire, dataloader, KV store."""

from .autotune import AutotuneResult, BlockSizeScore, autotune_block_size
from .cache import PlanAbandoned, PlanCache, batch_signature
from .config import DCPConfig
from .dataloader import DCPDataloader, LocalData
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

__all__ = [
    "DCPConfig",
    "AutotuneResult",
    "BlockSizeScore",
    "autotune_block_size",
    "DCPDataloader",
    "LocalData",
    "DCPPlanner",
    "PlanningStats",
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
]
