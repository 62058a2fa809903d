"""Per-device memory accounting for execution plans.

The paper argues memory balance is as important as computation balance
(memory grows linearly in assigned tokens).  This module prices each
device's buffers from its plan: local Q/KV/O blocks, transient fetch
slots and accumulator slots — the executor's block-buffer high-water
mark converted to bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["MemoryReport", "plan_memory"]

#: Accumulators hold fp32 acc plus (m, l) statistics.
_ACC_DTYPE_BYTES = 4


@dataclass
class MemoryReport:
    """Buffer memory per device, in bytes."""

    per_device: Dict[int, int]

    @property
    def max_bytes(self) -> int:
        return max(self.per_device.values(), default=0)

    def imbalance(self) -> float:
        """max / mean - 1 across devices (0 = perfectly balanced)."""
        values = np.array(list(self.per_device.values()), dtype=np.float64)
        if len(values) == 0 or values.mean() == 0:
            return 0.0
        return float(values.max() / values.mean() - 1.0)


def plan_memory(plan) -> MemoryReport:
    """Price every device's block buffers from its high-water marks."""
    block_set = plan.block_set
    attention = block_set.attention
    block = block_set.block_size
    q_bytes = attention.q_block_bytes(block)
    kv_bytes = attention.kv_block_bytes(block)
    o_bytes = attention.o_block_bytes(block)
    acc_bytes = (
        attention.q_heads_per_group
        * block
        * (attention.head_dim + 2)
        * _ACC_DTYPE_BYTES
    )

    per_device: Dict[int, int] = {}
    for device, device_plan in plan.device_plans.items():
        sizes = device_plan.buffer_sizes
        per_device[device] = (
            sizes.get("q", 0) * q_bytes
            + sizes.get("kv", 0) * kv_bytes
            + sizes.get("o", 0) * o_bytes
            + sizes.get("acc", 0) * acc_bytes
        )
    return MemoryReport(per_device=per_device)
