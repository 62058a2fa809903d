"""DCP dataloader with look-ahead planning (paper §6.1, Listing 2).

The dataloader pre-fetches sequence-length/mask metadata from the
dataset and plans upcoming iterations on background planner workers, so
planning overlaps with model execution.  Iterating yields
``(local_data, execution_plan)`` pairs exactly like the paper's API:
``local_data`` maps each device to the token slices it will feed its
model replica.

:data:`DCPDataloader` *is* the overlap pipeline
(:class:`repro.pipeline.StreamingOverlapPipeline`) under the paper's
name, so every pipeline keyword applies: it owns the prefetch window
(its ``lookahead`` is the paper's kappa, at least one), the worker
backend, the plan-cache consult, delta re-planning on
:class:`~repro.sim.ClusterEventSource` events and the measured overlap
accounting (``stats()``).  ``backend=KVPlannerBackend(planner, store)``
sends every plan through the KV store — the full §6.1 distribution
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..scheduling import ExecutionPlan

__all__ = ["LocalData", "DCPDataloader"]


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
