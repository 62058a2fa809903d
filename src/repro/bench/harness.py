"""Benchmark harness: scales, result tables, shared runners."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from ..blocks import AttentionSpec, BatchSpec, generate_blocks
from ..core import DCPConfig, DCPPlanner
from ..data import batches_to_specs, pack_batches, sample_lengths, scale_lengths
from ..masks import MaskSpec, make_mask
from ..sim import ClusterSpec, simulate_plan

__all__ = ["BenchScale", "Table", "PAPER_MASKS", "make_batches", "attention_times"]

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

    ``micro()`` and ``e2e()`` match the paper's setups (131072-token
    batches on 32 GPUs / 64 GPUs-as-16-CP-ranks); ``smoke()`` is a tiny
    configuration used by the test suite.
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
    def micro(**overrides) -> "BenchScale":
        """Paper §7.1 micro-benchmark: 4 nodes x 8 GPUs."""
        scale = BenchScale(cluster=ClusterSpec(num_machines=4, devices_per_machine=8))
        return replace(scale, **overrides)

    @staticmethod
    def e2e(**overrides) -> "BenchScale":
        """Paper §7.2 end-to-end: 8 nodes, TP4 => 16 CP ranks."""
        from ..sim.cluster import E2E_CLUSTER

        scale = BenchScale(cluster=E2E_CLUSTER)
        return replace(scale, **overrides)

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

    @staticmethod
    def smoke(**overrides) -> "BenchScale":
        """Tiny configuration for tests."""
        scale = BenchScale(
            token_budget=2048,
            max_seqlen=2048,
            block_size=128,
            num_batches=1,
            cluster=ClusterSpec(num_machines=2, devices_per_machine=2),
            attention=AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32),
        )
        return replace(scale, **overrides)

    def dcp_config(self, **overrides) -> DCPConfig:
        base = dict(
            block_size=self.block_size, restarts=self.restarts, seed=self.seed
        )
        base.update(overrides)
        return DCPConfig(**base)


class Table:
    """A printable/markdown-dumpable result table."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List] = []

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError("row width does not match headers")
        self.rows.append(list(row))

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        return "\n".join(lines) + "\n"

    def show(self) -> None:
        print(self.to_markdown())

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_markdown())

    def column(self, name: str) -> List:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]


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


def attention_times(
    planner,
    batches: Iterable[BatchSpec],
    scale: BenchScale,
) -> Dict[str, float]:
    """Mean simulated forward/backward attention time over batches.

    Also reports total and max-device communication volume (bytes) of
    the plans, averaged over batches.
    """
    forward, backward, comm, inter = [], [], [], []
    for batch in batches:
        block_set = generate_blocks(
            batch, attention=scale.attention, block_size=scale.block_size
        )
        plan = (
            planner.plan(block_set, scale.cluster)
            if not isinstance(planner, DCPPlanner)
            else planner.plan(block_set)
        )
        fw = simulate_plan(plan, scale.cluster, backward=False)
        bw = simulate_plan(plan, scale.cluster, backward=True)
        forward.append(fw.iteration_time)
        backward.append(bw.iteration_time)
        comm.append(plan.total_comm_bytes())
        inter.append(plan.inter_machine_bytes())
    return {
        "fw_ms": 1e3 * float(np.mean(forward)),
        "bw_ms": 1e3 * float(np.mean(backward)),
        "comm_mb": float(np.mean(comm)) / 1e6,
        "inter_mb": float(np.mean(inter)) / 1e6,
    }
