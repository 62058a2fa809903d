"""Benchmark harness: problem scales, the paper's masks, batch sampling."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

from ..blocks import AttentionSpec, BatchSpec
from ..core import DCPConfig
from ..data import batches_to_specs, pack_batches, sample_lengths, scale_lengths
from ..masks import MaskSpec, make_mask
from ..sim import ClusterSpec

__all__ = ["BenchScale", "PAPER_MASKS", "make_batches"]

#: The four masks of the paper's evaluation, with its parameters (§7.1).
PAPER_MASKS: Dict[str, Callable[[], MaskSpec]] = {
    "causal": lambda: make_mask("causal"),
    "lambda": lambda: make_mask("lambda", sink=64, window=4096),
    "causal_blockwise": lambda: make_mask(
        "causal_blockwise", block=256, window_blocks=2, sink_blocks=1
    ),
    "shared_question": lambda: make_mask(
        "shared_question", num_answers=4, answer_fraction=0.2
    ),
}


@dataclass(frozen=True)
class BenchScale:
    """Problem size of a benchmark run.

    The defaults are the paper's 131072-token batches; ``sweep()`` is
    the mid-size point the ledger and the smoke benchmarks run.
    """

    token_budget: int = 131072
    max_seqlen: int = 131072
    block_size: int = 2048
    num_batches: int = 2
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    attention: AttentionSpec = field(default_factory=AttentionSpec)
    restarts: int = 1
    seed: int = 0

    @staticmethod
    def sweep(**overrides) -> "BenchScale":
        """Mid-size configuration for parameter sweeps (Figs. 17-20)."""
        scale = BenchScale(
            token_budget=32768,
            max_seqlen=32768,
            block_size=1024,
            cluster=ClusterSpec(num_machines=2, devices_per_machine=4),
        )
        return replace(scale, **overrides)

    def dcp_config(self, **overrides) -> DCPConfig:
        base = dict(
            block_size=self.block_size, restarts=self.restarts, seed=self.seed
        )
        base.update(overrides)
        return DCPConfig(**base)


def make_batches(
    dataset: str,
    scale: BenchScale,
    mask: MaskSpec,
    length_scale: float = 1.0,
    num_sequences: int = 600,
) -> List[BatchSpec]:
    """Sample a dataset, scale lengths, pack into batches (paper §7.1)."""
    lengths = sample_lengths(dataset, num_sequences, seed=scale.seed)
    lengths = scale_lengths(lengths, length_scale, cap=scale.max_seqlen)
    packed = pack_batches(
        lengths, token_budget=scale.token_budget, max_seqlen=scale.max_seqlen
    )
    return batches_to_specs(packed[: scale.num_batches], mask)
