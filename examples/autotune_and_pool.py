"""Block-size autotuning and distributed look-ahead planning (§6.1/§7.1).

First runs the paper's block-size search (512..4096, automated against
the timing simulator) on a stream of packed batches, then trains
through a :class:`DistributedDataloader`: plans are produced by
planner instances spread over two "machines" and distributed through
the in-memory KV store, exactly the paper's Redis pipeline.

Run:  python examples/autotune_and_pool.py
"""

from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner, make_mask
from repro.core import DistributedDataloader, KVStore, autotune_block_size
from repro.data import batches_to_specs, pack_batches, sample_lengths
from repro.pipeline import KVPlannerBackend
from repro.placement import PlacementConfig
from repro.sim import simulate_plan


def main() -> None:
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=8, num_kv_groups=2, head_dim=64)
    lengths = sample_lengths("longdatacollections", 60, seed=7)
    batches = batches_to_specs(
        pack_batches(lengths, token_budget=16384, max_seqlen=16384),
        make_mask("causal"),
    )

    # -- the paper's block-size search, automated -------------------------
    result = autotune_block_size(
        batches,
        cluster,
        attention=attention,
        config=DCPConfig(placement=PlacementConfig(restarts=1)),
    )
    print("block-size search (attn = simulated fw+bw per batch):")
    print(result.table())
    print(f"-> selected block size {result.best}\n")

    # -- distributed look-ahead planning through the KV store -------------
    planner = DCPPlanner(
        cluster, attention, DCPConfig(block_size=result.best,
                                      placement=PlacementConfig(restarts=1))
    )
    store = KVStore()
    backend = KVPlannerBackend(
        planner, store, num_machines=2, cores_per_machine=2
    )
    loader = DistributedDataloader(batches[:4], backend, lookahead=2)
    for iteration, (local_data, plan) in enumerate(loader):
        timing = simulate_plan(plan)
        tokens = [data.tokens for data in local_data.values()]
        print(
            f"iteration {iteration}: tokens/device {tokens}, "
            f"attention fw {timing.iteration_time * 1e3:.3f} ms"
        )
    print(
        f"\nplan distribution: {len(store.keys())} entries in the store "
        f"(a skeleton plus one stream per device for every plan), "
        f"{store.size_bytes() / 1e6:.2f} MB resident, "
        f"{backend.consumer_wire_bytes / 1e6:.2f} MB pulled over the wire"
    )


if __name__ == "__main__":
    main()
