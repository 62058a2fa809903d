"""Concrete attention masks evaluated in the DCP paper (Fig. 6).

All masks are expressed as at-most-two attendable key ranges per query
row (see :mod:`repro.masks.spec`).  Parameters default to the values the
paper uses in its evaluation (§7.1 "Attention Masks").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import AttendRanges, MaskSpec

__all__ = [
    "CausalMask",
    "LambdaMask",
    "CausalBlockwiseMask",
    "SharedQuestionMask",
    "PackedDocumentMask",
    "MASK_LIBRARY",
    "make_mask",
]


def _empty(seqlen: int) -> np.ndarray:
    return np.zeros(seqlen, dtype=np.int64)


@dataclass(frozen=True)
class CausalMask(MaskSpec):
    """Standard autoregressive mask: token ``i`` attends to ``[0, i]``."""

    name = "causal"

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        rows = np.arange(seqlen, dtype=np.int64)
        return AttendRanges(
            a_start=_empty(seqlen),
            a_end=rows + 1,
            b_start=_empty(seqlen),
            b_end=_empty(seqlen),
        )


@dataclass(frozen=True)
class LambdaMask(MaskSpec):
    """Attention sink + sliding window ("lambda-shaped", Fig. 6b).

    Token ``i`` attends to the first ``sink`` tokens and to the previous
    ``window`` tokens (inclusive of itself).  Paper defaults: 64 sink
    tokens, window 4096.
    """

    sink: int = 64
    window: int = 4096
    name = "lambda"

    def __post_init__(self) -> None:
        """Validate parameters at construction."""
        if self.sink < 0 or self.window < 1:
            raise ValueError("sink must be >= 0 and window >= 1")

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        rows = np.arange(seqlen, dtype=np.int64)
        causal_end = rows + 1
        a_end = np.minimum(self.sink, causal_end)
        b_start = np.maximum(self.sink, rows - self.window + 1)
        b_end = np.maximum(causal_end, b_start)
        # Where the window is fully covered by the sink, the b range is
        # empty; normalise empty ranges to [0, 0) so bounds stay in
        # [0, L] even for sequences shorter than the sink.
        empty = b_end <= b_start
        b_start = np.where(empty, 0, b_start)
        b_end = np.where(empty, 0, b_end)
        return AttendRanges(
            a_start=_empty(seqlen),
            a_end=a_end,
            b_start=b_start,
            b_end=b_end,
        )


@dataclass(frozen=True)
class CausalBlockwiseMask(MaskSpec):
    """Causal blockwise mask for in-context learning (Fig. 6c).

    The sequence is split into fixed blocks of ``block`` tokens; each
    token attends to the first ``sink_blocks`` blocks and to a sliding
    window of ``window_blocks`` blocks (its own plus preceding ones),
    causally.  Tokens in the final block (the "test example") attend to
    all previous tokens.  Paper defaults: block 256, 2-block window,
    1 block for the sink.
    """

    block: int = 256
    window_blocks: int = 2
    sink_blocks: int = 1
    name = "causal_blockwise"

    def __post_init__(self) -> None:
        """Validate parameters at construction."""
        if self.block < 1 or self.window_blocks < 1 or self.sink_blocks < 0:
            raise ValueError("invalid causal blockwise parameters")

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        rows = np.arange(seqlen, dtype=np.int64)
        causal_end = rows + 1
        block_index = rows // self.block
        num_blocks = (seqlen + self.block - 1) // self.block
        last_block = max(num_blocks - 1, 0)

        sink_end = np.minimum(self.sink_blocks * self.block, causal_end)
        window_start = np.maximum(
            (block_index - self.window_blocks + 1) * self.block,
            self.sink_blocks * self.block,
        )
        is_test = block_index == last_block

        a_end = np.where(is_test, causal_end, sink_end)
        b_start = np.where(is_test, 0, window_start)
        b_end = np.where(is_test, 0, causal_end)
        # Clamp: if the window reaches back into the sink the two ranges
        # merge into a single causal prefix.
        merged = b_start <= a_end
        a_end = np.where(merged & ~is_test, b_end, a_end)
        b_start = np.where(merged, 0, b_start)
        b_end = np.where(merged, 0, b_end)
        # Normalise empty ranges to [0, 0) so bounds stay within [0, L]
        # (a large sink can push window_start past a short sequence).
        empty = b_end <= b_start
        b_start = np.where(empty, 0, b_start)
        b_end = np.where(empty, 0, b_end)
        return AttendRanges(
            a_start=_empty(seqlen),
            a_end=a_end,
            b_start=b_start,
            b_end=b_end,
        )


@dataclass(frozen=True)
class SharedQuestionMask(MaskSpec):
    """Shared-question mask for RLHF/DPO-style training (Fig. 6d).

    The sequence is one question followed by ``num_answers`` candidate
    answers.  Question tokens attend causally within the question;
    answer tokens attend to the full question plus causally within
    their own answer — answers do not see each other.

    ``answer_fraction`` is each answer's share of the total sequence
    length (the paper uses 4 answers of 20% each, the question taking
    the remaining 20%).
    """

    num_answers: int = 4
    answer_fraction: float = 0.2
    name = "shared_question"

    def __post_init__(self) -> None:
        """Validate parameters at construction."""
        if self.num_answers < 1:
            raise ValueError("need at least one answer")
        if not 0.0 < self.answer_fraction * self.num_answers < 1.0:
            raise ValueError("answers must leave room for the question")

    def segment_bounds(self, seqlen: int) -> list:
        """Token boundaries: [question, answer_1, ..., answer_k] spans."""
        answer_len = int(seqlen * self.answer_fraction)
        question_len = seqlen - answer_len * self.num_answers
        if question_len < 1:
            question_len = 1
        bounds = [(0, question_len)]
        cursor = question_len
        for i in range(self.num_answers):
            stop = seqlen if i == self.num_answers - 1 else cursor + answer_len
            bounds.append((cursor, stop))
            cursor = stop
        return bounds

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        rows = np.arange(seqlen, dtype=np.int64)
        causal_end = rows + 1
        bounds = self.segment_bounds(seqlen)
        question_len = bounds[0][1]

        a_end = np.minimum(causal_end, question_len)
        b_start = _empty(seqlen)
        b_end = _empty(seqlen)
        for start, stop in bounds[1:]:
            inside = (rows >= start) & (rows < stop)
            b_start = np.where(inside, start, b_start)
            b_end = np.where(inside, causal_end, b_end)
        return AttendRanges(
            a_start=_empty(seqlen),
            a_end=a_end,
            b_start=b_start,
            b_end=b_end,
        )


@dataclass(frozen=True)
class PackedDocumentMask(MaskSpec):
    """Block-diagonal causal mask for packed documents.

    Multiple documents are packed into one sequence (common in
    pre-training; see the paper's WLB-LLM discussion in §8): each token
    attends causally *within its own document only*.  ``doc_lens`` are
    the document lengths; tokens beyond their sum form one additional
    trailing document.
    """

    doc_lens: tuple
    name = "packed_documents"

    def __post_init__(self) -> None:
        """Validate parameters at construction."""
        if not self.doc_lens or any(n < 1 for n in self.doc_lens):
            raise ValueError("document lengths must be positive")

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        rows = np.arange(seqlen, dtype=np.int64)
        starts = np.zeros(seqlen, dtype=np.int64)
        cursor = 0
        for length in self.doc_lens:
            stop = min(cursor + length, seqlen)
            starts[cursor:stop] = cursor
            if stop >= seqlen:
                break
            cursor = stop
        else:
            starts[cursor:] = cursor  # overflow joins the last document
        return AttendRanges(
            a_start=starts,
            a_end=rows + 1,
            b_start=_empty(seqlen),
            b_end=_empty(seqlen),
        )


MASK_LIBRARY = {
    "causal": CausalMask,
    "lambda": LambdaMask,
    "causal_blockwise": CausalBlockwiseMask,
    "shared_question": SharedQuestionMask,
    "packed_documents": PackedDocumentMask,
}


def make_mask(name: str, **kwargs) -> MaskSpec:
    """Instantiate a mask from the library by name.

    >>> make_mask("lambda", sink=16, window=128)
    LambdaMask(sink=16, window=128)
    """
    try:
        cls = MASK_LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(MASK_LIBRARY))
        raise ValueError(f"unknown mask {name!r}; known masks: {known}") from None
    return cls(**kwargs)
