"""Property tests for the bounded-reordering-buffer streaming packers.

The contract (ISSUE 10 / ROADMAP scenario-matrix item):

* every policy is ``stream_pack``-equivalent at ``buffer=1`` — with a
  single pending sequence there is nothing to select;
* as the buffer grows, workload-balanced streaming lands within ε of
  the offline packer's workload balance, and length-grouped becomes
  *exactly* the offline packer at unbounded buffer;
* packing is a deterministic function of the stream;
* plans for streamed-packed batches are fingerprint-identical to
  synchronous planning (packers change *which* batches exist, never
  what a given batch's plan is).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packing_oracles as oracle
from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner, make_mask
from repro.data import (
    STREAM_PACKERS,
    StreamPacker,
    batches_to_specs,
    pack_batches,
    packing_stats,
    sample_lengths,
    stream_pack,
)
from repro.pipeline import StreamingOverlapPipeline, plan_fingerprint
from repro.placement import PlacementConfig

BUDGET = 8192


def _streaming(name):
    def pack(lengths, token_budget, max_seqlen=None, buffer=16):
        packer = STREAM_PACKERS[name](token_budget, max_seqlen, buffer)
        return packer.stream(lengths)

    pack.__name__ = f"stream_pack_{name}"
    return pack


stream_pack_sequential = _streaming("sequential")
stream_pack_workload_balanced = _streaming("workload_balanced")
stream_pack_length_grouped = _streaming("length_grouped")
STREAMING = [
    stream_pack_sequential,
    stream_pack_workload_balanced,
    stream_pack_length_grouped,
]


def stream_packed_specs(lengths, mask, packer):
    """Specs straight off ``packer``, each built as its batch closes."""
    for batch in packer.stream(lengths):
        yield batches_to_specs([batch], mask)[0]


def seeded_streams():
    streams = []
    for seed in range(4):
        streams.append(
            list(sample_lengths("longdatacollections", 150, seed=seed))
        )
        streams.append(
            list(sample_lengths("longalign", 150, seed=seed + 10))
        )
    return streams


class TestBufferOneEquivalence:
    @pytest.mark.parametrize("streaming", STREAMING)
    def test_seeded_streams(self, streaming):
        for lengths in seeded_streams():
            base = list(stream_pack(lengths, BUDGET, 4096))
            assert list(streaming(lengths, BUDGET, 4096, buffer=1)) == base

    @pytest.mark.parametrize("name", sorted(STREAM_PACKERS))
    def test_registry_factories(self, name):
        lengths = seeded_streams()[0]
        packer = STREAM_PACKERS[name](BUDGET, 4096, buffer=1)
        assert list(packer.stream(lengths)) == list(stream_pack(lengths, BUDGET, 4096))

    def test_sequential_window_is_first_fit(self):
        """The sequential policy's window is not inert above buffer=1:
        a length too long for the room waits while younger ones that
        fit fill the batch."""
        lengths = [5, 8, 3, 9, 2, 7]
        assert list(stream_pack(lengths, 10)) == [[5], [8], [3], [9], [2, 7]]
        sequential = STREAM_PACKERS["sequential"]
        assert list(sequential(10, buffer=1).stream(lengths)) == list(
            stream_pack(lengths, 10)
        )
        assert list(sequential(10, buffer=16).stream(lengths)) == [
            [5, 3, 2], [8], [9], [7]
        ]

    @given(
        lengths=st.lists(st.integers(min_value=-5, max_value=3000),
                         max_size=60),
        budget=st.integers(min_value=1, max_value=2048),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_stream(self, lengths, budget):
        base = list(stream_pack(lengths, budget))
        for streaming in STREAMING:
            assert list(streaming(lengths, budget, buffer=1)) == base


class TestOfflineLimit:
    def test_length_grouped_unbounded_is_offline(self):
        """Picking the global shortest from an unbounded buffer emits
        the sorted stream, i.e. exactly the offline length-grouped packer."""
        for lengths in seeded_streams():
            assert (
                list(stream_pack_length_grouped(
                    lengths, BUDGET, 4096, buffer=None
                ))
                == oracle.pack_length_grouped(lengths, BUDGET, 4096)
            )

    def test_workload_balance_within_eps_of_offline(self):
        """Large-buffer streaming balance is within ε of offline LPT."""
        for lengths in seeded_streams():
            offline = packing_stats(
                oracle.pack_workload_balanced(lengths, BUDGET)
            )["workload_imbalance"]
            streamed = packing_stats(list(
                stream_pack_workload_balanced(lengths, BUDGET, buffer=256)
            ))["workload_imbalance"]
            assert streamed <= offline + 0.15

    def test_balance_improves_with_buffer(self):
        """A deep buffer never does meaningfully worse than buffer=1
        (sequential) on workload balance."""
        for lengths in seeded_streams():
            sequential = packing_stats(
                pack_batches(lengths, BUDGET)
            )["workload_imbalance"]
            deep = packing_stats(list(
                stream_pack_workload_balanced(lengths, BUDGET, buffer=64)
            ))["workload_imbalance"]
            assert deep <= sequential + 0.05


class TestInvariants:
    @pytest.mark.parametrize("streaming", STREAMING)
    @pytest.mark.parametrize("buffer", [1, 4, 16, None])
    def test_conservation_budget_caps(self, streaming, buffer):
        for lengths in seeded_streams()[:4]:
            batches = list(streaming(lengths, BUDGET, buffer=buffer))
            cleaned = [min(int(x), BUDGET) for x in lengths if int(x) >= 1]
            assert sum(sum(b) for b in batches) == sum(cleaned)
            assert sorted(x for b in batches for x in b) == sorted(cleaned)
            assert all(sum(b) <= BUDGET for b in batches)
            assert all(b for b in batches)

    @pytest.mark.parametrize("streaming", STREAMING)
    def test_rejects_bad_arguments(self, streaming):
        with pytest.raises(ValueError):
            list(streaming([10], 0))
        with pytest.raises(ValueError):
            list(streaming([10], BUDGET, buffer=0))
        with pytest.raises(ValueError):
            StreamPacker(object(), BUDGET, buffer=-1)

    @pytest.mark.parametrize("streaming", STREAMING)
    def test_deterministic(self, streaming):
        """Same stream, same parameters, same batches — repeatably."""
        lengths = list(sample_lengths("longdatacollections", 200, seed=7))
        first = list(streaming(lengths, BUDGET, 4096, buffer=16))
        for _ in range(3):
            assert list(streaming(lengths, BUDGET, 4096, buffer=16)) == first

    @pytest.mark.parametrize("streaming", STREAMING)
    def test_streams_lazily(self, streaming):
        """A bounded buffer reads at most buffer sequences past the
        last emitted batch — the packer works on unbounded sources."""
        pulled = []

        def source():
            for i in range(10_000):
                pulled.append(i)
                yield 600

        gen = streaming(source(), 2048, buffer=8)
        next(gen)
        assert len(pulled) < 30


class TestPipelineFingerprints:
    def test_workload_balanced_stream_matches_sync_plans(self):
        """Plans for a non-sequential streamed packing are byte-identical
        to planning the same batches synchronously."""
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        planner = DCPPlanner(
            cluster,
            AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16),
            DCPConfig(block_size=16, placement=PlacementConfig(restarts=1)),
        )
        lengths = list(sample_lengths("longdatacollections", 40, seed=3))
        packer = STREAM_PACKERS["workload_balanced"](256, 128, buffer=8)
        mask = make_mask("causal")
        specs = list(stream_packed_specs(lengths, mask, packer=packer))
        assert len(specs) >= 2
        sync = [planner.plan_batch(spec) for spec in specs]
        pipeline = StreamingOverlapPipeline(
            stream_packed_specs(lengths, mask, packer=packer),
            planner, lookahead=2, max_workers=2,
        )
        streamed = [plan for _, plan in pipeline]
        assert len(streamed) == len(sync)
        for fast, slow in zip(streamed, sync):
            assert plan_fingerprint(fast) == plan_fingerprint(slow)
