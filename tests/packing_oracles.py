"""Reference packers: the per-candidate streaming loop and the offline
packers as they were before the packing layer picked on the buffer.

:func:`repro.data.batching.stream_pack_select` now makes one pick per
sequence directly on its pending buffer, and the offline packers in
:mod:`repro.data.packing` run in O(n log n).  The straightforward
versions live here, outside the package, because only the tests need
them: every packer must emit exactly the batches these do.

* :func:`stream_pack_select` builds the ``fitting`` index list and the
  candidate list for every sequence and asks a ``select`` function
  which candidate joins the open batch;
* :func:`select_sequential`, :func:`select_workload_balanced` and
  :func:`select_length_grouped` are the three policies' selections;
* :func:`pack_first_fit_decreasing`, :func:`pack_workload_balanced` and
  :func:`pack_length_grouped` are the offline packers.
"""

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np


class PackState:
    """Running state of the open batch and of everything admitted."""

    def __init__(self, token_budget: int) -> None:
        self.token_budget = token_budget
        self.batch: List[int] = []
        self.used = 0
        self.batch_work = 0.0
        self.tokens_entered = 0
        self.work_entered = 0.0

    def target_work(self) -> float:
        batches = max(self.tokens_entered / self.token_budget, 1.0)
        return self.work_entered / batches

    def place(self, length: int) -> None:
        capped = min(length, self.token_budget)
        self.batch.append(capped)
        self.used += capped
        self.batch_work += float(capped) ** 2

    def close(self) -> List[int]:
        closed = self.batch
        self.batch = []
        self.used = 0
        self.batch_work = 0.0
        return closed

    def admit(self, length: int) -> None:
        capped = min(length, self.token_budget)
        self.tokens_entered += capped
        self.work_entered += float(capped) ** 2


def select_sequential(state: PackState, candidates: Sequence[int]) -> int:
    """The oldest fitting candidate."""
    return 0


def select_workload_balanced(
    state: PackState, candidates: Sequence[int]
) -> int:
    """The longest candidate that keeps the open batch at or under the
    workload target, else the smallest overshoot; oldest on ties."""
    target = state.target_work()
    best = 0
    best_key = None
    for index, length in enumerate(candidates):
        capped = min(length, state.token_budget)
        projected = state.batch_work + float(capped) ** 2
        if projected <= target:
            key = (0, -capped)
        else:
            key = (1, projected - target)
        if best_key is None or key < best_key:
            best, best_key = index, key
    return best


def select_length_grouped(state: PackState, candidates: Sequence[int]) -> int:
    """The shortest fitting candidate (oldest on ties)."""
    return min(range(len(candidates)), key=lambda i: candidates[i])


#: Registry name -> selection, mirroring ``repro.data.STREAM_PACKERS``.
SELECTS = {
    "sequential": select_sequential,
    "workload_balanced": select_workload_balanced,
    "length_grouped": select_length_grouped,
}


def stream_pack_select(
    lengths: Iterable[int],
    select=None,
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
    buffer: Optional[int] = 1,
) -> Iterator[List[int]]:
    """The per-candidate streaming loop (``select=None``: oldest first)."""
    if token_budget < 1:
        raise ValueError("token budget must be positive")
    if buffer is not None and buffer < 1:
        raise ValueError("reordering buffer must hold at least one sequence")
    source = iter(lengths)
    pending: List[int] = []
    state = PackState(token_budget)
    exhausted = False
    while True:
        while not exhausted and (buffer is None or len(pending) < buffer):
            try:
                raw = next(source)
            except StopIteration:
                exhausted = True
                break
            length = int(raw)
            if max_seqlen is not None:
                length = min(length, max_seqlen)
            if length < 1:
                continue
            pending.append(length)
            state.admit(length)
        if not pending:
            break
        if state.batch:
            fitting = [
                i for i, length in enumerate(pending)
                if state.used + length <= token_budget
            ]
            if not fitting:
                yield state.close()
                continue
        else:
            fitting = list(range(len(pending)))
        if select is None or len(fitting) == 1:
            position = fitting[0]
        else:
            candidates = [pending[i] for i in fitting]
            position = fitting[select(state, candidates)]
        state.place(pending.pop(position))
    if state.batch:
        yield state.close()


def _clean(lengths: Sequence[int], max_seqlen: Optional[int]) -> List[int]:
    out = []
    for raw in lengths:
        length = int(raw)
        if max_seqlen is not None:
            length = min(length, max_seqlen)
        if length >= 1:
            out.append(length)
    return out


def pack_first_fit_decreasing(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """First fit decreasing with a linear scan for the first batch."""
    if token_budget < 1:
        raise ValueError("token budget must be positive")
    cleaned = sorted(_clean(lengths, max_seqlen), reverse=True)
    batches: List[List[int]] = []
    room: List[int] = []
    for length in cleaned:
        length = min(length, token_budget)
        for index, free in enumerate(room):
            if length <= free:
                batches[index].append(length)
                room[index] -= length
                break
        else:
            batches.append([length])
            room.append(token_budget - length)
    return batches


def pack_workload_balanced(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """LPT by quadratic workload over the sequential batch count, with a
    Python scan over every batch for each sequence."""
    if token_budget < 1:
        raise ValueError("token budget must be positive")
    cleaned = [
        min(length, token_budget) for length in _clean(lengths, max_seqlen)
    ]
    if not cleaned:
        return []
    num_batches = max(
        len(list(stream_pack_select(cleaned, None, token_budget))), 1
    )
    order = sorted(range(len(cleaned)), key=lambda i: cleaned[i],
                   reverse=True)
    batches: List[List[int]] = [[] for _ in range(num_batches)]
    tokens = np.zeros(num_batches, dtype=np.int64)
    work = np.zeros(num_batches, dtype=np.float64)
    for index in order:
        length = cleaned[index]
        candidates = [
            b for b in range(num_batches)
            if tokens[b] + length <= token_budget
        ]
        if not candidates:
            batches.append([])
            tokens = np.append(tokens, 0)
            work = np.append(work, 0.0)
            candidates = [len(batches) - 1]
        target = min(candidates, key=lambda b: work[b])
        batches[target].append(length)
        tokens[target] += length
        work[target] += float(length) ** 2
    return [batch for batch in batches if batch]


def pack_length_grouped(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """The length-grouped stream over an unbounded buffer."""
    return list(stream_pack_select(
        lengths, select_length_grouped, token_budget, max_seqlen, None
    ))


#: Registry name -> offline reference, mirroring ``repro.data.PACKERS``.
OFFLINE = {
    "ffd": pack_first_fit_decreasing,
    "workload_balanced": pack_workload_balanced,
    "length_grouped": pack_length_grouped,
}
