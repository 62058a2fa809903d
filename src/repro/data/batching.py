"""Token-budget batching (paper §7.1: global batch size 131072 tokens).

Sequences are taken in dataset order; each batch greedily accumulates
whole sequences until the token budget would overflow.  Sequences
longer than ``max_seqlen`` are truncated (the paper's "maximally
allowed sequence length").

This module owns the **single authoritative streaming-packing loop**,
:func:`stream_pack_select`: a bounded reordering buffer of pending
sequences plus a :class:`PackingPolicy` that makes one pick per
sequence directly on that buffer, kept in whatever shape makes its
pick cheap (arrival order for a scan, a heap for the shortest).  Every
streaming packer in :mod:`repro.data.packing` is this loop with a
policy, so ``pack_*``/``stream_pack_*`` consistency holds by
construction rather than by parallel implementations.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from ..blocks import BatchSpec
from ..masks import MaskSpec

__all__ = [
    "PackState",
    "PackingPolicy",
    "SequentialPolicy",
    "pack_batches",
    "stream_pack",
    "stream_pack_select",
    "batches_to_specs",
]


class PackState:
    """Running state the packing loop exposes to selection policies.

    Attributes
    ----------
    token_budget:
        The batch token budget the loop packs against.
    batch:
        Lengths already placed in the open batch (read-only by
        convention).
    used:
        Tokens already placed in the open batch.
    batch_work:
        Quadratic attention workload ``sum(l**2)`` of the open batch.
    tokens_entered / work_entered:
        Totals over every sequence that ever entered the buffer, with
        lengths capped at the budget, summed in admission order.
        Policies use these to estimate per-batch targets without
        seeing the future.
    """

    __slots__ = (
        "token_budget",
        "batch",
        "used",
        "batch_work",
        "tokens_entered",
        "work_entered",
    )

    def __init__(self, token_budget: int) -> None:
        """Initialize empty packing state for one ``token_budget``."""
        self.token_budget = token_budget
        self.batch: List[int] = []
        self.used = 0
        self.batch_work = 0.0
        self.tokens_entered = 0
        self.work_entered = 0.0

    @property
    def room(self) -> int:
        """Tokens still available in the open batch."""
        return self.token_budget - self.used

    def target_work(self) -> float:
        """Estimated balanced per-batch quadratic workload.

        Total workload seen so far divided by the number of
        budget-sized batches that many tokens fill — the target a
        workload-balancing policy packs each batch toward.
        """
        batches = max(self.tokens_entered / self.token_budget, 1.0)
        return self.work_entered / batches


class PackingPolicy:
    """How :func:`stream_pack_select` keeps and picks from its buffer.

    The loop creates the pending list per stream and all running state
    lives in the :class:`PackState`, so one policy instance can drive
    many streams.
    """

    #: Registry key and display name of the policy.
    name = "abstract"

    def admit(self, pending: list, length: int, work: float) -> None:
        """Add one admitted length (capped at the budget) and its
        workload ``float(length * length)`` to ``pending``."""
        pending.append(length)

    def take(self, pending: list, state: PackState) -> Optional[int]:
        """Remove and return the length that joins the open batch, or
        ``None`` when no pending length fits ``state.room`` (``pending``
        is never empty, and every length fits an empty batch)."""
        raise NotImplementedError


class SequentialPolicy(PackingPolicy):
    """First fit in the window: place the oldest pending sequence that
    fits the open batch.

    At ``buffer=1`` this is :func:`stream_pack`.  At a larger buffer
    the window is *not* inert: a sequence too long for the room waits
    while younger ones that fit fill the batch — with ``[5, 8, 3, 9,
    2, 7]`` at budget 10 and buffer 16 the first batch is ``[5, 3,
    2]``, where :func:`stream_pack` closes ``[5]``.  Costs one scan of
    the window per sequence.
    """

    name = "sequential"

    def take(self, pending: list, state: PackState) -> Optional[int]:
        """Pop the oldest pending length that fits the room."""
        room = state.token_budget - state.used
        if pending[0] <= room:  # the common case, without a scan
            return pending.pop(0)
        for index, length in enumerate(pending):
            if length <= room:
                return pending.pop(index)
        return None


def stream_pack_select(
    lengths: Iterable[int],
    policy: Optional[PackingPolicy] = None,
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
    buffer: Optional[int] = 1,
) -> Iterator[List[int]]:
    """The authoritative streaming-packing loop (bounded reordering).

    Consumes ``lengths`` lazily into a pending buffer of at most
    ``buffer`` sequences (``None``: unbounded — the whole stream may be
    reordered, the offline limit).  Once the buffer is full (or the
    stream ends), each step asks ``policy`` for one pending sequence
    that fits the open batch; when nothing fits, the batch closes and
    is yielded.  ``policy=None`` is :class:`SequentialPolicy`.

    Two structural properties every policy inherits:

    * at ``buffer=1`` the pending set is a single sequence, so *any*
      policy degenerates to :func:`stream_pack` exactly;
    * batches are emitted the moment they close, so an unbounded source
      streams with O(buffer) memory and a downstream pipeline can plan
      batch 0 while the packer is still reading.

    Sequences are cleaned as in :func:`stream_pack`: truncated to
    ``max_seqlen``, dropped if shorter than one token, and capped at
    the budget.  Capping on admission changes no decision: a length
    over the budget fits only an empty batch either way, and fills it.
    """
    if token_budget < 1:
        raise ValueError("token budget must be positive")
    if buffer is not None and buffer < 1:
        raise ValueError("reordering buffer must hold at least one sequence")
    policy = policy or SequentialPolicy()
    admit, take = policy.admit, policy.take
    state = PackState(token_budget)
    pending: list = []
    end = object()  # after the last length: drain the buffer
    for raw in chain(lengths, repeat(end)):
        if raw is not end:
            length = int(raw)
            if max_seqlen is not None and length > max_seqlen:
                length = max_seqlen
            if length < 1:
                continue
            if length > token_budget:
                length = token_budget
            work = float(length * length)
            state.tokens_entered += length
            state.work_entered += work
            admit(pending, length, work)
            if buffer is None or len(pending) < buffer:
                continue
        elif not pending:
            break
        length = take(pending, state)
        if length is None:
            yield state.batch
            state.batch, state.used, state.batch_work = [], 0, 0.0
            length = take(pending, state)
        state.batch.append(length)
        state.used += length
        state.batch_work += float(length * length)
    if state.batch:
        yield state.batch


def stream_pack(
    lengths: Iterable[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> Iterator[List[int]]:
    """Online packing: yield each batch the moment its budget closes.

    The sequential (arrival-order) instance of
    :func:`stream_pack_select` — consumes ``lengths`` lazily (an
    unbounded source is fine), so a downstream streaming pipeline can
    start planning the first batch while the packer is still reading
    the stream.  :func:`pack_batches` is the materialized form of this
    generator.
    """
    return stream_pack_select(
        lengths, None, token_budget=token_budget, max_seqlen=max_seqlen
    )


def pack_batches(
    lengths: Sequence[int],
    token_budget: int = 131072,
    max_seqlen: Optional[int] = None,
) -> List[List[int]]:
    """Pack lengths into batches of at most ``token_budget`` tokens.

    Every batch contains at least one sequence, so a single sequence at
    the cap still forms a (full) batch.
    """
    return list(stream_pack(lengths, token_budget, max_seqlen))


def batches_to_specs(
    batches: List[List[int]],
    mask: Union[MaskSpec, Callable[[int], MaskSpec]],
) -> List[BatchSpec]:
    """Turn packed length batches into :class:`BatchSpec` objects.

    ``mask`` is either a single spec shared by all sequences or a
    callable ``seqlen -> MaskSpec`` (the paper's ``mask_fn``, for masks
    whose shape depends on the input, like shared-question).
    """
    specs = []
    for lengths in batches:
        if callable(mask) and not isinstance(mask, MaskSpec):
            masks = [mask(int(n)) for n in lengths]
        else:
            masks = mask
        specs.append(BatchSpec.build(lengths, masks))
    return specs
