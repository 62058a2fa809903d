"""Division scheduling, DCP instructions and plan serialization."""

from .buffers import BufferManager
from .divisions import (
    DeviceSchedule,
    Schedule,
    build_schedule,
    fill_divisions,
)
from .instructions import (
    BlockwiseAttention,
    BlockwiseReduction,
    CommLaunch,
    CommWait,
    DevicePlan,
    ExecutionPlan,
    FinalizeArg,
    MergeArg,
    RecvArg,
    SendArg,
    Tile,
)
from .serialize import (
    empty_device_plan,
    plan_compatible,
    rebind_plan,
    serialize_backward_schedule,
    serialize_schedule,
)
from .validate import PlanValidationError, validate_plan

__all__ = [
    "BufferManager",
    "DeviceSchedule",
    "Schedule",
    "build_schedule",
    "fill_divisions",
    "BlockwiseAttention",
    "BlockwiseReduction",
    "CommLaunch",
    "CommWait",
    "DevicePlan",
    "ExecutionPlan",
    "FinalizeArg",
    "MergeArg",
    "RecvArg",
    "SendArg",
    "Tile",
    "serialize_schedule",
    "empty_device_plan",
    "plan_compatible",
    "rebind_plan",
    "serialize_backward_schedule",
    "PlanValidationError",
    "validate_plan",
]
