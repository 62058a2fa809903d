"""DCP dataloader with look-ahead planning (paper §6.1, Listing 2).

The dataloader pre-fetches sequence-length/mask metadata from the
dataset and plans upcoming iterations on background planner workers, so
planning overlaps with model execution.  Iterating yields
``(local_data, execution_plan)`` pairs exactly like the paper's API:
``local_data`` maps each device to the token slices it will feed its
model replica.

Both dataloader names are the overlap pipeline
(:class:`repro.pipeline.StreamingOverlapPipeline`), which owns the
prefetch window (its ``lookahead`` is the paper's kappa), the worker
backends, the plan-cache consult, delta re-planning on
:class:`~repro.sim.ClusterEventSource` events and the measured overlap
accounting (``stats()``): :data:`DCPDataloader` *is* that class under
the paper's name, so every pipeline keyword applies;
:func:`DistributedDataloader` builds one whose plans travel through a
:class:`~repro.pipeline.KVPlannerBackend`'s KV store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..scheduling import ExecutionPlan

__all__ = ["LocalData", "DCPDataloader", "DistributedDataloader"]


@dataclass
class LocalData:
    """Model input for one device: its token slices, in order."""

    device: int
    slices: List

    @property
    def tokens(self) -> int:
        return sum(ts.tokens for ts in self.slices)


def _local_data(plan: ExecutionPlan) -> Dict[int, LocalData]:
    return {
        device: LocalData(device=device, slices=list(device_plan.local_slices))
        for device, device_plan in plan.device_plans.items()
    }


# The pipeline yields LocalData, so it imports this module; its import
# has to follow the definitions above.
from ..pipeline import StreamingOverlapPipeline  # noqa: E402

DCPDataloader = StreamingOverlapPipeline


def DistributedDataloader(
    batches, backend, lookahead: int = 2, **kwargs
) -> StreamingOverlapPipeline:
    """§6.1 dataloader on a :class:`~repro.pipeline.KVPlannerBackend`.

    The pipeline with the KV backend: it keeps planning ``lookahead``
    iterations ahead of execution and yields ``(local_data, plan)``
    like :data:`DCPDataloader`, but every plan travels through the
    backend's KV store — the full distribution path.  ``kwargs`` are
    the pipeline's own (``events``, ``cache``, ``plan_timeout``, ...).

    ``lookahead == 0`` must still go through the store (the planner
    lives on a planning machine, not on the devices), so the window is
    pinned to at least one in-flight KV job; the returned pipeline's
    ``lookahead`` reports the effective kappa.
    """
    if lookahead < 0:
        raise ValueError("lookahead must be non-negative")
    return StreamingOverlapPipeline(
        batches,
        backend.planner,
        lookahead=max(lookahead, 1),
        backend=backend,
        **kwargs,
    )
