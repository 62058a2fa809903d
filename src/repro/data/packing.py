"""Streaming packers for variable-length batches.

*Which sequences share a batch* determines how balanced any downstream
parallelism can be.  Every packer here is a :class:`StreamPacker` — a
bounded reordering buffer over the single authoritative loop in
:func:`~repro.data.batching.stream_pack_select`, which asks a
:class:`PackingPolicy` for one pick per sequence on its pending buffer:

* ``sequential`` — :class:`SequentialPolicy`; at ``buffer=1`` it is
  :func:`stream_pack` (re-exported from :mod:`repro.data.batching`), at
  a larger buffer first fit in the window, one scan of it per sequence;
* ``workload_balanced`` — :class:`WorkloadBalancedPolicy`, packs each
  batch toward the running balanced-workload target (WLB-LLM [45]),
  one scan of the window per sequence;
* ``length_grouped`` — :class:`LengthGroupedPolicy`, always places the
  shortest buffered sequence from a heap (Hierarchical Balance Packing
  [48]), O(log buffer) per sequence; at unbounded buffer it emits the
  sorted stream.

:data:`STREAM_PACKERS` maps those names to factories taking
``buffer=``.  Packers yield ``List[int]`` batches like
:func:`~repro.data.batching.pack_batches` and compose with
:func:`~repro.data.batching.batches_to_specs`; :func:`packing_stats`
measures a packing's balance.  The offline packers of the packing
ablation live beside it, in ``benchmarks/offline_packers.py``.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional

import numpy as np

from .batching import (
    PackingPolicy,
    PackState,
    SequentialPolicy,
    stream_pack,
    stream_pack_select,
)

__all__ = [
    "stream_pack",
    "StreamPacker",
    "PackingPolicy",
    "SequentialPolicy",
    "WorkloadBalancedPolicy",
    "LengthGroupedPolicy",
    "packing_stats",
    "STREAM_PACKERS",
]

#: Default reordering-buffer size for streaming packers: deep enough to
#: matter, shallow enough that the packer stays O(1) memory per step.
DEFAULT_BUFFER = 16


class WorkloadBalancedPolicy(PackingPolicy):
    """Pack each batch toward the running balanced-workload target.

    The target is the total quadratic workload seen so far divided by
    the number of budget-sized batches that many tokens fill
    (:meth:`~repro.data.batching.PackState.target_work`) — the best
    per-batch workload an offline balancer could achieve on the prefix.
    Among fitting candidates, prefer the longest one that keeps the
    open batch at or under target (fill heavy work early); once every
    candidate overshoots, take the smallest overshoot.  Ties go to the
    oldest candidate so the packer is deterministic.
    """

    name = "workload_balanced"

    def admit(self, pending: list, length: int, work: float) -> None:
        """Keep the length with its workload, in arrival order."""
        pending.append((length, work))

    def take(self, pending: list, state: PackState) -> Optional[int]:
        """Pop the fitting length that best tracks the workload target:
        one scan of the window per sequence."""
        room = state.room
        base = state.batch_work
        target = state.target_work()
        under = over = -1
        longest = 0
        overshoot = 0.0
        for index, (length, work) in enumerate(pending):
            if length > room:
                continue
            projected = base + work
            if projected <= target:
                if length > longest:
                    under, longest = index, length
            elif over < 0 or projected - target < overshoot:
                over, overshoot = index, projected - target
        pick = under if under >= 0 else over
        return None if pick < 0 else pending.pop(pick)[0]


class LengthGroupedPolicy(PackingPolicy):
    """Always place the shortest buffered sequence (HBP-style groups).

    Short sequences cluster into dense homogeneous batches while long
    ones wait in the buffer for company of their own size.  At
    unbounded buffer the emitted order is exactly the sorted stream, so
    the packer reproduces the offline length-grouped packer (sort, then
    pack in order) batch for batch.
    The buffer is a heap of lengths (equal ones are interchangeable, so
    no arrival order breaks ties): a pick is O(log buffer).
    """

    name = "length_grouped"

    def admit(self, pending: list, length: int, work: float) -> None:
        """Push the length onto the heap."""
        heapq.heappush(pending, length)

    def take(self, pending: list, state: PackState) -> Optional[int]:
        """Pop the shortest pending length if it fits the room."""
        if pending[0] > state.room:
            return None
        return heapq.heappop(pending)


class StreamPacker:
    """Bounded-reordering-buffer streaming packer.

    Binds the single authoritative loop
    (:func:`~repro.data.batching.stream_pack_select`, whose properties
    every policy inherits: ``buffer=1`` is exactly :func:`stream_pack`,
    and batches stream out as they close, in O(buffer) memory) to a
    :class:`PackingPolicy` and a buffer size.  As ``buffer`` grows the
    policy sees more of the stream and the packing approaches the
    corresponding offline packer's balance (exactly, for
    :class:`LengthGroupedPolicy` at unbounded buffer).
    """

    def __init__(
        self,
        policy: PackingPolicy,
        token_budget: int = 131072,
        max_seqlen: Optional[int] = None,
        buffer: Optional[int] = DEFAULT_BUFFER,
    ) -> None:
        """Bind a policy to a budget, length cap, and buffer size.

        ``buffer=None`` means unbounded (the offline limit: the whole
        stream is materialized before the first batch closes).
        """
        if buffer is not None and buffer < 1:
            raise ValueError(
                "reordering buffer must hold at least one sequence"
            )
        self.policy = policy
        self.token_budget = token_budget
        self.max_seqlen = max_seqlen
        self.buffer = buffer

    def stream(self, lengths: Iterable[int]) -> Iterator[List[int]]:
        """Lazily pack ``lengths``, yielding each batch as it closes."""
        return stream_pack_select(
            lengths,
            self.policy,
            token_budget=self.token_budget,
            max_seqlen=self.max_seqlen,
            buffer=self.buffer,
        )

def packing_stats(batches: List[List[int]]) -> dict:
    """Balance metrics of a packing.

    Returns batch count, token utilization spread, and the quadratic
    workload imbalance (max/mean - 1) that governs compute balance
    under causal attention.
    """
    if not batches:
        return {
            "num_batches": 0,
            "token_imbalance": 0.0,
            "workload_imbalance": 0.0,
            "max_intra_spread": 0.0,
        }
    tokens = np.array([sum(batch) for batch in batches], dtype=np.float64)
    work = np.array(
        [sum(float(n) ** 2 for n in batch) for batch in batches],
        dtype=np.float64,
    )
    spread = max(
        (max(batch) / min(batch)) for batch in batches
    )
    return {
        "num_batches": len(batches),
        "token_imbalance": float(tokens.max() / tokens.mean() - 1.0),
        "workload_imbalance": float(work.max() / work.mean() - 1.0),
        "max_intra_spread": float(spread),
    }


def _stream_packer(policy_type: type):
    def make(token_budget=131072, max_seqlen=None, buffer=DEFAULT_BUFFER):
        return StreamPacker(policy_type(), token_budget, max_seqlen, buffer)
    return make


#: Streaming-packer factories: ``name -> (token_budget, max_seqlen,
#: buffer) -> StreamPacker``.  The scenario matrix iterates this.
STREAM_PACKERS = {
    policy.name: _stream_packer(policy)
    for policy in (
        SequentialPolicy, WorkloadBalancedPolicy, LengthGroupedPolicy
    )
}
