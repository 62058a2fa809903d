"""Synthetic datasets and batching."""

from .batching import batches_to_specs, pack_batches, stream_pack_select
from .packing import (
    STREAM_PACKERS,
    LengthGroupedPolicy,
    PackingPolicy,
    SequentialPolicy,
    StreamPacker,
    WorkloadBalancedPolicy,
    packing_stats,
    stream_pack,
)
from .rlhf import RlhfSample
from .datasets import (
    LONGALIGN,
    LONG_DATA_COLLECTIONS,
    LengthDistribution,
    MAX_SEQLEN,
    sample_lengths,
    scale_lengths,
)

__all__ = [
    "batches_to_specs",
    "pack_batches",
    "packing_stats",
    "stream_pack",
    "stream_pack_select",
    "StreamPacker",
    "PackingPolicy",
    "SequentialPolicy",
    "WorkloadBalancedPolicy",
    "LengthGroupedPolicy",
    "STREAM_PACKERS",
    "LONGALIGN",
    "LONG_DATA_COLLECTIONS",
    "LengthDistribution",
    "MAX_SEQLEN",
    "sample_lengths",
    "scale_lengths",
    "RlhfSample",
]
