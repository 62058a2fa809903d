"""Degraded-mode plans: a deterministic cheap fallback placement.

When the optimal planner cannot answer inside a fetch deadline (hung
worker, shed dispatch, dead shard on the warm path), the service must
still return *something executable*: a training step running a
baseline-quality plan beats a training step stalled on a perfect one.

The fallback reuses the repo's own cheap machinery end to end — block
generation, the static-CP zigzag placement every baseline framework
uses (:func:`repro.placement.static_placement`, paper Fig. 4 — the
planner weighs every partitioned placement against the same one), and
the normal division scheduler/serializer — so the result is a fully valid
:class:`~repro.scheduling.instructions.ExecutionPlan` that executes on
the same runtime, just with baseline communication volume.  No
hypergraph partitioning, no refinement, no restarts: cost is dominated
by block generation, typically an order of magnitude under a full
plan.

Every degraded plan is tagged ``meta["degraded"] = True`` (and
``meta["degraded_source"] = "zigzag"``); the service serves it
immediately and schedules a background upgrade that atomically swaps
in the optimal plan through the cache's publication/epoch cursors.
The upgrade is the planner's cheapest of the partitioned placement and
the static ones that dominate it, so it can be this very zigzag plan.
"""

from __future__ import annotations

from typing import Optional

from ..blocks import BatchSpec, generate_blocks
from ..obs.trace import span as _span
from ..placement import build_block_hypergraph, static_placement
from ..scheduling import build_schedule, serialize_schedule

__all__ = ["degraded_plan", "is_degraded"]


def degraded_plan(planner, batch: BatchSpec, cluster=None):
    """Deterministic zigzag-placement fallback plan for ``batch``.

    ``planner`` supplies the geometry (cluster, attention, block size,
    divisions) so a degraded plan targets exactly the shape the optimal
    plan would have; only the placement quality differs.  The planner
    must expose ``cluster`` (unless ``cluster`` is given) and
    ``config``, as :class:`~repro.core.planner.DCPPlanner` does; a
    planner without ``attention`` gets the default ``AttentionSpec``.
    """
    cluster = cluster if cluster is not None else planner.cluster
    config = planner.config
    with _span("degraded_plan", "planner"):
        block_set = generate_blocks(
            batch,
            attention=getattr(planner, "attention", None),
            block_size=config.block_size,
        )
        placement = static_placement(
            build_block_hypergraph(block_set), cluster, "zigzag"
        )
        schedule = build_schedule(
            block_set,
            placement,
            num_divisions=config.num_divisions,
            strategy=config.scheduler,
        )
        plan = serialize_schedule(schedule)
    plan.meta["degraded"] = True
    plan.meta["degraded_source"] = "zigzag"
    return plan


def is_degraded(plan) -> bool:
    """Whether ``plan`` is a tagged degraded-mode fallback."""
    meta: Optional[dict] = getattr(plan, "meta", None)
    return bool(meta and meta.get("degraded"))
