"""Pipeline-parallel composition with DCP (paper §6.2).

Pipeline parallelism splits model layers across stages; each stage
still runs context parallelism internally, so DCP's optimizations apply
within a stage unchanged.  This module prices the composition: layers
are split across stages, per-microbatch stage times come from the DCP
(or baseline) attention timing plus the analytic context-independent
cost, and a **1F1B schedule simulator** turns stage times into an
iteration time with its pipeline bubble.

The simulator is exact for the dependency structure of non-interleaved
1F1B (Megatron's default): forward of microbatch ``m`` on stage ``s``
needs the forward on stage ``s-1``; backward needs the backward on
stage ``s+1``; each stage runs its warmup forwards, then alternates one
forward / one backward, then drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "StageCost",
    "PipelineTiming",
    "split_layers",
    "one_f_one_b_order",
    "simulate_1f1b_varied",
]


@dataclass(frozen=True)
class StageCost:
    """Per-microbatch compute time of one pipeline stage."""

    forward: float
    backward: float

    def __post_init__(self) -> None:
        if self.forward < 0 or self.backward < 0:
            raise ValueError("stage times must be non-negative")


@dataclass
class PipelineTiming:
    """Result of one pipeline-schedule simulation."""

    total: float
    stage_busy: List[float]
    num_stages: int
    num_microbatches: int

    @property
    def bubble_fraction(self) -> float:
        """Idle fraction across all stages (0 = perfectly packed)."""
        if self.total <= 0:
            return 0.0
        capacity = self.total * self.num_stages
        return 1.0 - sum(self.stage_busy) / capacity

def split_layers(num_layers: int, num_stages: int) -> List[int]:
    """Layers per stage, near-even, earlier stages take the remainder.

    >>> split_layers(32, 4)
    [8, 8, 8, 8]
    >>> split_layers(10, 4)
    [3, 3, 2, 2]
    """
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if num_layers < num_stages:
        raise ValueError("need at least one layer per stage")
    base, extra = divmod(num_layers, num_stages)
    return [base + (1 if s < extra else 0) for s in range(num_stages)]


def one_f_one_b_order(
    stage: int, num_stages: int, num_microbatches: int
) -> List[Tuple[str, int]]:
    """Task order of one stage under non-interleaved 1F1B.

    Returns ``[("F", m) | ("B", m), ...]``: ``min(M, S - stage)``
    warmup forwards, then alternating backward/forward in the steady
    state, then the remaining backwards.
    """
    warmup = min(num_microbatches, num_stages - stage)
    order: List[Tuple[str, int]] = [("F", m) for m in range(warmup)]
    next_f, next_b = warmup, 0
    while next_b < num_microbatches:
        order.append(("B", next_b))
        next_b += 1
        if next_f < num_microbatches:
            order.append(("F", next_f))
            next_f += 1
    return order


def simulate_1f1b_varied(
    costs: List[List[StageCost]],
    p2p_time: float = 0.0,
) -> PipelineTiming:
    """Simulate 1F1B with per-(stage, microbatch) costs.

    ``costs[stage][microbatch]`` gives each unit of work its own time —
    the situation DCP creates, where every microbatch carries different
    sequence lengths and masks and thus different attention time.
    ``p2p_time`` is the activation (and activation-gradient) transfer
    time between adjacent stages, paid on every cross-stage dependency.
    For uniform stages with zero ``p2p_time`` the result matches the
    classic closed form ``(M + S - 1) * (f + b)``.
    """
    if not costs:
        raise ValueError("need at least one stage")
    num_stages = len(costs)
    num_microbatches = len(costs[0])
    if num_microbatches < 1:
        raise ValueError("need at least one microbatch")
    if any(len(row) != num_microbatches for row in costs):
        raise ValueError("all stages must cost the same microbatch count")
    orders = [
        one_f_one_b_order(s, num_stages, num_microbatches)
        for s in range(num_stages)
    ]
    finish: Dict[Tuple[str, int, int], float] = {}
    clock = [0.0] * num_stages  # when each stage becomes free
    busy = [0.0] * num_stages
    pointer = [0] * num_stages

    def dependency(kind: str, stage: int, microbatch: int) -> Optional[Tuple]:
        if kind == "F":
            return ("F", stage - 1, microbatch) if stage > 0 else None
        if stage < num_stages - 1:
            return ("B", stage + 1, microbatch)
        # Backward on the last stage depends on its own forward, which
        # per-stage ordering already guarantees; no cross-stage edge.
        return None

    remaining = sum(len(order) for order in orders)
    while remaining:
        progressed = False
        for stage in range(num_stages):
            while pointer[stage] < len(orders[stage]):
                kind, microbatch = orders[stage][pointer[stage]]
                dep = dependency(kind, stage, microbatch)
                if dep is not None and dep not in finish:
                    break
                ready = clock[stage]
                if dep is not None:
                    ready = max(ready, finish[dep] + p2p_time)
                cost = costs[stage][microbatch]
                duration = cost.forward if kind == "F" else cost.backward
                end = ready + duration
                finish[(kind, stage, microbatch)] = end
                clock[stage] = end
                busy[stage] += duration
                pointer[stage] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - defensive
            raise RuntimeError("pipeline schedule deadlocked")

    return PipelineTiming(
        total=max(clock),
        stage_busy=busy,
        num_stages=num_stages,
        num_microbatches=num_microbatches,
    )
