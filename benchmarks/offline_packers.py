"""Offline packers for the packing ablation (paper §8 related work).

Hierarchical Balance Packing [48] and WLB-LLM [45] attack the same
input dynamism as DCP from the packing side: *which sequences share a
batch* determines how balanced any downstream parallelism can be.
``bench_ablation_packing.py`` measures how much of the problem these
packers solve alone; the streaming packers the system runs are
:data:`repro.data.STREAM_PACKERS`.

* ``sequential`` — :func:`repro.data.pack_batches`, greedy in dataset
  order (the paper's setup);
* :func:`pack_first_fit_decreasing` — classic FFD bin packing on
  tokens, minimizing the number of batches (a max-tree over the free
  room finds the first batch that fits: O(n log n));
* :func:`pack_workload_balanced` — WLB-style: balance *attention
  FLOPs* (quadratic in length) across a fixed number of batches (heaps
  of the lightest and of the too-full batches: O(n log n));
* :func:`pack_length_grouped` — HBP-style: group similar lengths so
  static CP degrees fit each batch well (sort, then pack in order).

Each returns ``List[List[int]]`` like ``pack_batches``;
``tests/test_packing_parity.py`` pins them to the straightforward
versions in ``tests/packing_oracles.py``.
"""

import heapq
from typing import List, Optional, Sequence

from repro.data import pack_batches


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
    reference the streaming ``workload_balanced`` packer approaches as
    its buffer grows.

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


def pack_length_grouped(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """HBP-style packing: sort by length so batches hold similar sizes.

    Homogeneous batches let a static CP degree fit every sequence in
    the batch; the cost is inter-batch workload variance (long-sequence
    batches are far heavier than short-sequence ones).  Equal to the
    unbounded-buffer streaming ``length_grouped`` packer — picking the
    shortest pending sequence from an unbounded buffer emits exactly the
    sorted stream.
    """
    return pack_batches(
        sorted(_clean(lengths, token_budget, max_seqlen)), token_budget
    )


#: Strategy registry for the ablation sweep.
PACKERS = {
    "sequential": pack_batches,
    "ffd": pack_first_fit_decreasing,
    "workload_balanced": pack_workload_balanced,
    "length_grouped": pack_length_grouped,
}
