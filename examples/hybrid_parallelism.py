"""Composing DCP with tensor and pipeline parallelism (paper §6.2).

Sweeps TP x DCP x PP topologies of a 32-GPU cluster for the paper's 8B
GPT and prints the iteration-time estimate of each, showing the
trade-off the paper describes: TP burns NVSwitch bandwidth but shrinks
per-rank attention work, PP trades communication for pipeline bubbles,
and DCP absorbs whatever ranks remain.

Run:  python examples/hybrid_parallelism.py
"""

from repro import ClusterSpec, DCPConfig, make_mask
from repro.blocks import BatchSpec
from repro.data import pack_batches, sample_lengths
from repro.parallel import HybridConfig, RankTopology, hybrid_iteration_time
from repro.placement import PlacementConfig


def main() -> None:
    cluster = ClusterSpec(num_machines=4, devices_per_machine=8)
    lengths = sample_lengths("longdatacollections", 60, seed=3)
    packed = pack_batches(lengths, token_budget=65536, max_seqlen=16384)
    batch = BatchSpec.build(packed[0], make_mask("causal"))
    print(
        f"batch: {len(batch.sequences)} sequences, "
        f"{batch.total_tokens} tokens, cluster: 4 x 8 GPUs\n"
    )

    topologies = [
        RankTopology(tp=1, dcp=32, pp=1),
        RankTopology(tp=4, dcp=8, pp=1),
        RankTopology(tp=8, dcp=4, pp=1),
        RankTopology(tp=4, dcp=4, pp=2),
        RankTopology(tp=4, dcp=2, pp=4),
    ]
    print(f"{'topology':<22}{'iter (s)':>10}{'bubble':>9}{'tp comm (s)':>13}")
    best = None
    for topology in topologies:
        config = HybridConfig(
            topology=topology,
            num_microbatches=max(2 * topology.pp, 2),
            dcp_config=DCPConfig(block_size=2048,
                                 placement=PlacementConfig(restarts=1)),
        )
        result = hybrid_iteration_time(batch, cluster, config)
        print(
            f"{topology.describe():<22}"
            f"{result.iteration_time:>10.3f}"
            f"{result.pipeline.bubble_fraction:>9.1%}"
            f"{result.tp_comm_time:>13.3f}"
        )
        if best is None or result.iteration_time < best[1]:
            best = (topology, result.iteration_time)

    print(
        f"\nbest topology: {best[0].describe()} "
        f"at {best[1]:.3f} s per iteration"
    )


if __name__ == "__main__":
    main()
