"""Packing strategies for variable-length batches (paper §8 related work).

Hierarchical Balance Packing [48] and WLB-LLM [45] attack the same
input dynamism as DCP from the packing side: *which sequences share a
batch* determines how balanced any downstream parallelism can be.
This module implements the packing-strategy space so the reproduction
can measure how much of the problem packing alone solves and where
DCP's placement-side dynamism still pays:

* :func:`pack_sequential` — the baseline greedy packer (dataset order);
* :func:`pack_first_fit_decreasing` — classic FFD bin packing on
  tokens, minimizing the number of batches (a max-tree over the free
  room finds the first batch that fits: O(n log n));
* :func:`pack_workload_balanced` — WLB-style: balance *attention
  FLOPs* (quadratic in length) across a fixed number of batches, so no
  batch is compute-dominated by one long sequence (heaps of the
  lightest and of the too-full batches: O(n log n));
* :func:`pack_length_grouped` — HBP-style: group similar lengths so
  static CP degrees fit each batch well (sort, then pack in order).

Every offline packer above also has a **streaming variant** built on
:class:`StreamPacker` — a bounded reordering buffer over the single
authoritative loop in :func:`~repro.data.batching.stream_pack_select`,
which asks a :class:`PackingPolicy` for one pick per sequence on its
pending buffer:

* :func:`stream_pack` — sequential, re-exported from
  :mod:`repro.data.batching` (any policy at ``buffer=1``);
  :class:`SequentialPolicy` at a larger buffer is first fit in the
  window, one scan of it per sequence;
* :func:`stream_pack_workload_balanced` —
  :class:`WorkloadBalancedPolicy`, packs each batch toward the running
  balanced-workload target, one scan of the window per sequence;
* :func:`stream_pack_length_grouped` — :class:`LengthGroupedPolicy`,
  always places the shortest buffered sequence from a heap, O(log
  buffer) per sequence; at unbounded buffer it reproduces
  :func:`pack_length_grouped` exactly.

All packers return ``List[List[int]]`` like
:func:`~repro.data.batching.pack_batches` (streaming variants yield
the same batches lazily) and compose with
:func:`~repro.data.batching.batches_to_specs`.  Registries:
:data:`PACKERS` (offline, materialized) and :data:`STREAM_PACKERS`
(streaming factories taking ``buffer=``).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .batching import (
    PackingPolicy,
    PackState,
    SequentialPolicy,
    batches_to_specs,
    pack_batches,
    stream_pack,
    stream_pack_select,
)

__all__ = [
    "pack_sequential",
    "pack_first_fit_decreasing",
    "pack_workload_balanced",
    "pack_length_grouped",
    "stream_pack",
    "stream_pack_workload_balanced",
    "stream_pack_length_grouped",
    "StreamPacker",
    "PackingPolicy",
    "SequentialPolicy",
    "WorkloadBalancedPolicy",
    "LengthGroupedPolicy",
    "stream_packed_specs",
    "packing_stats",
    "PACKERS",
    "STREAM_PACKERS",
]

#: Default reordering-buffer size for streaming packers: deep enough to
#: matter, shallow enough that the packer stays O(1) memory per step.
DEFAULT_BUFFER = 16


def _clean(
    lengths: Sequence[int], token_budget: int, max_seqlen: Optional[int]
) -> List[int]:
    """Lengths truncated to ``max_seqlen`` and capped at the budget, as
    placed; those shorter than one token are dropped."""
    if token_budget < 1:
        raise ValueError("token budget must be positive")
    cap = token_budget if max_seqlen is None else min(max_seqlen, token_budget)
    capped = (min(int(raw), cap) for raw in lengths)
    return [length for length in capped if length >= 1]


def pack_sequential(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """Greedy packing in dataset order (the paper's setup)."""
    return pack_batches(lengths, token_budget, max_seqlen)


def pack_first_fit_decreasing(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """First-fit-decreasing bin packing on token counts.

    Minimizes batch count (within the classic 11/9 OPT guarantee), so
    fewer iterations process the same data — but ignores attention
    workload, so batches can mix one huge sequence with many tiny ones.
    A max-tree over the batches' free room finds the first batch with
    room in O(log n); leaves not yet opened hold a full budget, so the
    first of them is where a new batch opens.
    """
    cleaned = sorted(_clean(lengths, token_budget, max_seqlen), reverse=True)
    leaves = 1
    while leaves < len(cleaned):
        leaves *= 2
    room = [token_budget] * (2 * leaves)
    batches: List[List[int]] = []
    for length in cleaned:
        node = 1
        while node < leaves:
            node *= 2
            if room[node] < length:
                node += 1
        index = node - leaves
        if index == len(batches):
            batches.append([length])
        else:
            batches[index].append(length)
        free = room[node] - length
        room[node] = free
        while node > 1:  # up to the first ancestor whose max holds
            free = max(free, room[node ^ 1])
            node //= 2
            if room[node] == free:
                break
            room[node] = free
    return batches


def pack_workload_balanced(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """WLB-LLM-style packing: balance attention FLOPs across batches.

    The batch count is fixed to what sequential packing needs (same
    iteration count), then sequences are LPT-assigned by quadratic
    workload subject to the token budget: longest first, each to the
    lightest batch it fits (lowest index on ties); a sequence no batch
    fits opens a batch of its own.  This is the offline balance
    reference the streaming variant
    (:func:`stream_pack_workload_balanced`) approaches as its buffer
    grows.

    A heap of ``(work, index)`` finds the lightest batch.  A batch too
    full for one sequence is parked in a heap of ``(tokens, index)``
    until the sequences get short enough to fit it again — lengths only
    fall and a parked batch does not change — so the packer runs in
    O(n log n).
    """
    cleaned = _clean(lengths, token_budget, max_seqlen)
    num_batches = len(pack_batches(cleaned, token_budget))
    batches: List[List[int]] = [[] for _ in range(num_batches)]
    tokens = [0] * num_batches
    work = [0.0] * num_batches
    lightest = [(0.0, b) for b in range(num_batches)]
    parked: List[tuple] = []
    for length in sorted(cleaned, reverse=True):
        limit = token_budget - length
        while parked and parked[0][0] <= limit:
            b = heapq.heappop(parked)[1]
            heapq.heappush(lightest, (work[b], b))
        while lightest and tokens[lightest[0][1]] > limit:
            b = heapq.heappop(lightest)[1]
            heapq.heappush(parked, (tokens[b], b))
        if not lightest:
            batches.append([length])
            continue
        b = lightest[0][1]
        batches[b].append(length)
        tokens[b] += length
        work[b] += float(length) ** 2
        heapq.heapreplace(lightest, (work[b], b))
    return batches


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
    the packer reproduces :func:`pack_length_grouped` batch for batch.
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

    def pack(self, lengths: Iterable[int]) -> List[List[int]]:
        """Materialize :meth:`stream` into a list of batches."""
        return list(self.stream(lengths))


def stream_pack_workload_balanced(
    lengths: Iterable[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
    buffer: Optional[int] = DEFAULT_BUFFER,
) -> Iterator[List[int]]:
    """Streaming workload-balanced packing over a bounded buffer.

    Online counterpart of :func:`pack_workload_balanced`: each batch is
    packed toward the running balanced-workload target using only the
    ``buffer`` pending sequences.  Equivalent to :func:`stream_pack` at
    ``buffer=1``; within ε of the offline packer's workload balance as
    the buffer grows (see ``tests/test_streaming_packers.py``).
    """
    return StreamPacker(
        WorkloadBalancedPolicy(), token_budget, max_seqlen, buffer
    ).stream(lengths)


def stream_pack_length_grouped(
    lengths: Iterable[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
    buffer: Optional[int] = DEFAULT_BUFFER,
) -> Iterator[List[int]]:
    """Streaming length-grouped packing over a bounded buffer.

    Online counterpart of :func:`pack_length_grouped`: always places
    the shortest buffered sequence, clustering similar lengths.
    Equivalent to :func:`stream_pack` at ``buffer=1``; *exactly* the
    offline packer at unbounded buffer (``buffer=None``).
    """
    return StreamPacker(
        LengthGroupedPolicy(), token_budget, max_seqlen, buffer
    ).stream(lengths)


def pack_length_grouped(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """HBP-style packing: sort by length so batches hold similar sizes.

    Homogeneous batches let a static CP degree fit every sequence in
    the batch; the cost is inter-batch workload variance (long-sequence
    batches are far heavier than short-sequence ones).  Equal to the
    unbounded-buffer streaming packer — picking the shortest pending
    sequence from an unbounded buffer emits exactly the sorted stream.
    """
    return pack_batches(
        sorted(_clean(lengths, token_budget, max_seqlen)), token_budget
    )


def stream_packed_specs(
    lengths: Iterable[int],
    mask,
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
    packer: Optional[StreamPacker] = None,
) -> Iterator:
    """Stream :class:`~repro.blocks.BatchSpec` straight off a packer.

    The generator the streaming overlap pipeline feeds from: each
    packed batch becomes a spec as it is emitted (``mask`` as in
    :func:`~repro.data.batching.batches_to_specs` — a shared spec or a
    ``seqlen -> mask`` callable).  ``packer`` selects the streaming
    packer (a :class:`StreamPacker`; its budget/cap override the
    keyword arguments); default is sequential :func:`stream_pack`.
    """
    if packer is None:
        packer = StreamPacker(SequentialPolicy(), token_budget, max_seqlen, 1)
    for batch in packer.stream(lengths):
        yield batches_to_specs([batch], mask)[0]


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


#: Strategy registry for sweeps (offline, materialized packers).
PACKERS = {
    "sequential": pack_sequential,
    "ffd": pack_first_fit_decreasing,
    "workload_balanced": pack_workload_balanced,
    "length_grouped": pack_length_grouped,
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
