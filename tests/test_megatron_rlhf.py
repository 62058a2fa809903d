"""Tests for the RLHF sample's per-sequence shared-question mask."""

from repro.data import RlhfSample
from repro.masks import SharedQuestionMask


class TestRlhfData:
    def test_sample_mask_structure(self):
        sample = RlhfSample(question_len=100, answer_lens=(40, 60, 50))
        mask = sample.mask()
        assert isinstance(mask, SharedQuestionMask)
        assert mask.num_answers == 3
        assert 0 < mask.answer_fraction * 3 < 1
