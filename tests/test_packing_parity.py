"""Every packer emits exactly the batches of its reference in
``tests/packing_oracles.py``, and none is quadratic.

The streaming loop picks on its pending buffer and the offline packers
use trees and heaps; the oracles are the per-candidate loop and the
linear scans they replaced.  Parity is exact — same batches, same order
— over seeded dataset streams, a ``hypothesis`` strategy with lengths
below one token and above the budget, and the ledger's own packing
recipes.
"""

import importlib.util
import itertools
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packing_oracles as oracle
from repro.data import STREAM_PACKERS, sample_lengths, scale_lengths

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "offline_packers.py",
)
_spec = importlib.util.spec_from_file_location("offline_packers", _PATH)
offline_packers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(offline_packers)
PACKERS = offline_packers.PACKERS

BUDGET = 8192
BUFFERS = [1, 2, 16, None]
CAPS = [None, BUDGET, BUDGET // 3]


def seeded_streams():
    """Raw dataset lengths (many above the budget) plus a few below one
    token, so cleaning and capping are both exercised."""
    streams = []
    for seed in range(3):
        for dataset in ("longalign", "longdatacollections"):
            lengths = [int(n) for n in sample_lengths(dataset, 300, seed=seed)]
            lengths[5:5] = [0, -3, 1]
            streams.append(lengths)
    return streams


def stream_reference(name, lengths, budget, cap, buffer):
    return list(oracle.stream_pack_select(
        lengths, oracle.SELECTS[name], budget, cap, buffer
    ))


class TestStreamParity:
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("buffer", BUFFERS)
    @pytest.mark.parametrize("name", sorted(STREAM_PACKERS))
    def test_seeded_streams(self, name, buffer, cap):
        for lengths in seeded_streams():
            packer = STREAM_PACKERS[name](BUDGET, cap, buffer=buffer)
            assert list(packer.stream(lengths)) == stream_reference(
                name, lengths, BUDGET, cap, buffer
            )

    @given(
        lengths=st.lists(st.integers(min_value=-3, max_value=200),
                         max_size=80),
        budget=st.integers(min_value=1, max_value=64),
        cap=st.sampled_from(["none", "budget", "third"]),
        buffer=st.sampled_from(BUFFERS),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_stream(self, lengths, budget, cap, buffer):
        cap = {"none": None, "budget": budget, "third": budget // 3}[cap]
        for name in STREAM_PACKERS:
            packer = STREAM_PACKERS[name](budget, cap, buffer=buffer)
            assert list(packer.stream(lengths)) == stream_reference(
                name, lengths, budget, cap, buffer
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "dataset, name, budget",
        [
            ("longalign", "sequential", 8192),
            ("longdatacollections", "workload_balanced", 16384),
        ],
    )
    def test_ledger_recipes(self, dataset, name, budget, seed):
        """The ledger's packing: 200k lengths drawn for the paper's
        131072-token batch, scaled to the budget, buffer 16, the first
        8192 batches."""
        lengths = scale_lengths(
            sample_lengths(dataset, 200_000, seed=seed),
            budget / 131072,
            cap=budget,
        )
        packer = STREAM_PACKERS[name](budget, budget, buffer=16)
        pool = list(itertools.islice(
            packer.stream(int(n) for n in lengths), 8192
        ))
        reference = list(itertools.islice(
            oracle.stream_pack_select(
                (int(n) for n in lengths),
                oracle.SELECTS[name], budget, budget, 16,
            ),
            8192,
        ))
        assert len(pool) == 8192
        assert pool == reference


class TestOfflineParity:
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("name", sorted(oracle.OFFLINE))
    def test_seeded_streams(self, name, cap):
        for lengths in seeded_streams():
            assert PACKERS[name](lengths, BUDGET, cap) == oracle.OFFLINE[
                name
            ](lengths, BUDGET, cap)

    @given(
        lengths=st.lists(st.integers(min_value=-3, max_value=200),
                         max_size=80),
        budget=st.integers(min_value=1, max_value=64),
        cap=st.sampled_from(["none", "budget", "third"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_stream(self, lengths, budget, cap):
        cap = {"none": None, "budget": budget, "third": budget // 3}[cap]
        for name, reference in oracle.OFFLINE.items():
            assert PACKERS[name](lengths, budget, cap) == reference(
                lengths, budget, cap
            )


def test_no_packer_is_quadratic():
    """100k LongAlign lengths through every offline and streaming
    packer, length-grouped also over an unbounded buffer.  The
    per-candidate loop and the linear scans need minutes for this input
    (the unbounded length-grouped stream alone took 35 s at 20k); the
    O(n log n) packers take ~2 s on a 2-CPU host, so the bound trips on
    a complexity regression, not on a loaded machine."""
    lengths = sample_lengths("longalign", 100_000, seed=0).tolist()
    start = time.perf_counter()
    for packer in PACKERS.values():
        assert packer(lengths, BUDGET)
    for factory in STREAM_PACKERS.values():
        assert list(factory(BUDGET).stream(lengths))
    assert list(
        STREAM_PACKERS["length_grouped"](BUDGET, buffer=None).stream(lengths)
    )
    assert time.perf_counter() - start < 10.0
