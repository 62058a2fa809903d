"""Tests for the packing ablation's offline packers
(benchmarks/offline_packers.py) and ``packing_stats``."""

import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import pack_batches, packing_stats, sample_lengths

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "offline_packers.py",
)
_spec = importlib.util.spec_from_file_location("offline_packers", _PATH)
offline_packers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(offline_packers)
PACKERS = offline_packers.PACKERS
pack_first_fit_decreasing = offline_packers.pack_first_fit_decreasing
pack_length_grouped = offline_packers.pack_length_grouped
pack_sequential = pack_batches
pack_workload_balanced = offline_packers.pack_workload_balanced

LENGTHS = [9000, 200, 4100, 700, 7800, 300, 2500, 1200, 6200, 150]
BUDGET = 10000


lengths_strategy = st.lists(
    st.integers(min_value=1, max_value=8000), min_size=1, max_size=40
)


class TestInvariants:
    """Properties every packer must satisfy."""

    @pytest.mark.parametrize("name", sorted(PACKERS))
    def test_conserves_tokens(self, name):
        batches = PACKERS[name](LENGTHS, token_budget=BUDGET)
        assert sorted(n for batch in batches for n in batch) == sorted(
            LENGTHS
        )

    @pytest.mark.parametrize("name", sorted(PACKERS))
    def test_respects_budget(self, name):
        batches = PACKERS[name](LENGTHS, token_budget=BUDGET)
        assert all(sum(batch) <= BUDGET for batch in batches)

    @pytest.mark.parametrize("name", sorted(PACKERS))
    def test_caps_lengths(self, name):
        batches = PACKERS[name](LENGTHS, token_budget=BUDGET, max_seqlen=4096)
        assert all(n <= 4096 for batch in batches for n in batch)

    @pytest.mark.parametrize("name", sorted(PACKERS))
    def test_no_empty_batches(self, name):
        batches = PACKERS[name](LENGTHS, token_budget=BUDGET)
        assert all(batch for batch in batches)

    @pytest.mark.parametrize("name", sorted(PACKERS))
    def test_rejects_bad_budget(self, name):
        with pytest.raises(ValueError):
            PACKERS[name](LENGTHS, token_budget=0)

    @pytest.mark.parametrize("name", sorted(PACKERS))
    @given(lengths=lengths_strategy)
    @settings(max_examples=25, deadline=None)
    def test_property_budget_and_conservation(self, name, lengths):
        batches = PACKERS[name](lengths, token_budget=8192)
        flat = sorted(n for batch in batches for n in batch)
        assert flat == sorted(min(n, 8192) for n in lengths)
        assert all(sum(batch) <= 8192 for batch in batches)


class TestStrategies:
    def test_sequential_matches_pack_batches(self):
        assert pack_sequential(LENGTHS, BUDGET) == pack_batches(
            LENGTHS, BUDGET
        )

    def test_ffd_never_needs_more_batches(self):
        for seed in range(4):
            lengths = sample_lengths("longdatacollections", 120, seed=seed)
            lengths = [min(int(n), BUDGET) for n in lengths]
            ffd = pack_first_fit_decreasing(lengths, BUDGET)
            sequential = pack_sequential(lengths, BUDGET)
            assert len(ffd) <= len(sequential)

    def test_workload_balanced_beats_sequential_imbalance(self):
        lengths = sample_lengths("longdatacollections", 200, seed=1)
        lengths = [min(int(n), BUDGET) for n in lengths]
        wlb = packing_stats(pack_workload_balanced(lengths, BUDGET))
        seq = packing_stats(pack_sequential(lengths, BUDGET))
        assert (
            wlb["workload_imbalance"] <= seq["workload_imbalance"] + 1e-9
        )

    def test_workload_balanced_same_iteration_count_or_fewer(self):
        lengths = sample_lengths("longdatacollections", 200, seed=2)
        lengths = [min(int(n), BUDGET) for n in lengths]
        wlb = pack_workload_balanced(lengths, BUDGET)
        seq = pack_sequential(lengths, BUDGET)
        # WLB fixes the batch count to sequential's, opening extras only
        # when budgets force it.
        assert len(wlb) <= len(seq) + 2

    def test_length_grouped_minimizes_intra_spread(self):
        lengths = sample_lengths("longdatacollections", 200, seed=3)
        lengths = [min(int(n), BUDGET) for n in lengths]
        grouped = packing_stats(pack_length_grouped(lengths, BUDGET))
        sequential = packing_stats(pack_sequential(lengths, BUDGET))
        assert (
            grouped["max_intra_spread"] <= sequential["max_intra_spread"]
        )

    def test_single_oversized_sequence(self):
        batches = pack_first_fit_decreasing([50000], token_budget=BUDGET)
        assert batches == [[BUDGET]]

    def test_empty_input(self):
        for name, packer in PACKERS.items():
            assert packer([], token_budget=BUDGET) == []


class TestStats:
    def test_empty(self):
        stats = packing_stats([])
        assert stats["num_batches"] == 0

    def test_balanced_batches_zero_imbalance(self):
        stats = packing_stats([[100, 100], [100, 100]])
        assert stats["token_imbalance"] == pytest.approx(0.0)
        assert stats["workload_imbalance"] == pytest.approx(0.0)

    def test_skewed_batches_positive_imbalance(self):
        stats = packing_stats([[1000], [10]])
        assert stats["token_imbalance"] > 0.9
        assert stats["workload_imbalance"] > stats["token_imbalance"]

    def test_intra_spread(self):
        stats = packing_stats([[1000, 10]])
        assert stats["max_intra_spread"] == pytest.approx(100.0)
