"""Simulated distributed executor, kernels, fabric and reference."""

from .backward import AttentionGrads, run_forward_backward
from .device import DeviceBuffers
from .executor import BatchInputs, SimExecutor
from .fabric import Fabric, Message
from .kernels import (
    AttnPartial,
    empty_partial,
    finalize,
    finalize_with_lse,
    merge_partials,
    tile_attention,
    tile_backward,
)
from .reference import reference_attention, reference_batch_outputs

__all__ = [
    "AttentionGrads",
    "run_forward_backward",
    "finalize_with_lse",
    "tile_backward",
    "DeviceBuffers",
    "BatchInputs",
    "SimExecutor",
    "Fabric",
    "Message",
    "AttnPartial",
    "empty_partial",
    "finalize",
    "merge_partials",
    "tile_attention",
    "reference_attention",
    "reference_batch_outputs",
]
