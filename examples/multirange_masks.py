"""Training with masks beyond the paper's two-range limit (§5 extension).

The paper's kernels support at most two attendable ranges per token and
defer richer masks to FlexAttention/FlashMask.  This reproduction's
attend ranges hold ``K`` ranges per row: LongNet-style dilated block
attention and Longformer-style global tokens plan, execute and verify
end to end.  The ``ranges/row`` column is each mask's ``K`` in the
longer sequence: the widest of its windows of one block of rows.

Run:  python examples/multirange_masks.py
"""

import numpy as np

from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner
from repro.blocks import BatchSpec, generate_blocks
from repro.masks import CausalMask, DilatedBlockMask, GlobalTokenMask
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.sim import simulate_plan


def main() -> None:
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32)
    seqlens = [1536, 512]

    masks = {
        "causal": CausalMask(),
        "dilated block": DilatedBlockMask(block=64, stride=4, window=256),
        "global tokens": GlobalTokenMask(every=256, window=256),
    }
    print(f"{'mask':<20}{'ranges/row':>11}{'sparsity':>10}"
          f"{'fw (ms)':>9}{'comm (MB)':>11}")
    for name, mask in masks.items():
        max_ranges = max(
            mask.ranges(seqlens[0], lo, min(lo + 128, seqlens[0]))
            .max_ranges_per_row()
            for lo in range(0, seqlens[0], 128)
        )
        batch = BatchSpec.build(seqlens, mask)
        block_set = generate_blocks(batch, attention, block_size=128)
        planner = DCPPlanner(cluster, attention, DCPConfig(block_size=128))
        plan = planner.plan(block_set, cluster)

        executor = SimExecutor(plan)
        inputs = BatchInputs.random(block_set, seed=1)
        executor.load_inputs(inputs)
        executor.run()
        for out, ref in zip(
            executor.gather_outputs(),
            reference_batch_outputs(block_set, inputs),
        ):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

        timing = simulate_plan(plan)
        print(
            f"{name:<20}{max_ranges:>11}"
            f"{mask.sparsity_vs_causal(seqlens[0]):>10.2f}"
            f"{timing.iteration_time * 1e3:>9.3f}"
            f"{plan.total_comm_bytes() / 1e6:>11.2f}"
        )
    print("\nall masks verified against the dense reference")


if __name__ == "__main__":
    main()
