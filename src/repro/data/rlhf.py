"""RLHF/DPO-style samples with per-sequence masks.

The paper stresses that for shared-question and causal-blockwise masks
"the shape of the attention mask is determined not only by the model
design, but also by the input data" (§2.4) — every sequence carries its
own mask.  A sample is a question paired with a variable number of
candidate answers of variable lengths, and its mask is built from those
lengths (the paper's ``mask_fn``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..masks import SharedQuestionMask

__all__ = ["RlhfSample"]


@dataclass(frozen=True)
class RlhfSample:
    """One prompt with candidate answers."""

    question_len: int
    answer_lens: Tuple[int, ...]

    @property
    def total_len(self) -> int:
        return self.question_len + sum(self.answer_lens)

    def mask(self) -> SharedQuestionMask:
        """The sample's shared-question mask (uniform-fraction model).

        :class:`SharedQuestionMask` parameterizes answers by a common
        fraction; we use the mean answer share, which preserves the
        mask's structure (shared prefix + mutually-invisible answers).
        """
        num_answers = len(self.answer_lens)
        fraction = sum(self.answer_lens) / self.total_len / num_answers
        # Keep strictly inside the validity range.
        fraction = min(max(fraction, 1e-3), (1.0 - 1e-3) / num_answers)
        return SharedQuestionMask(
            num_answers=num_answers, answer_fraction=fraction
        )
