"""Full attention autograd step on the simulated cluster.

Runs DCP's forward *and backward* passes as real distributed plans —
KV blocks are re-fetched, dQ/dKV partials return to their home devices
— and checks every gradient against the dense reference.  Prints the
forward/backward traffic ratio the paper's analytic model assumes.

Run:  python examples/distributed_backward.py
"""

import numpy as np

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    generate_blocks,
    make_mask,
)
from repro.model.attention import attention_forward_backward
from repro.placement import PlacementConfig, place_blocks
from repro.runtime import BatchInputs, run_forward_backward
from repro.scheduling import fill_divisions
from repro.sim import simulate_plan
from repro.scheduling import serialize_backward_schedule, serialize_schedule


def main() -> None:
    mask = make_mask("lambda", sink=8, window=32)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32)
    batch = BatchSpec.build([256, 160, 96], mask)
    block_set = generate_blocks(batch, attention, block_size=32)
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    placement = place_blocks(block_set, cluster, PlacementConfig(seed=0))
    schedule = fill_divisions(block_set, placement, num_divisions=4)

    inputs = BatchInputs.random(block_set, seed=0)
    rng = np.random.default_rng(1)
    grad_outputs = [
        rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q
    ]

    outputs, grads, forward, backward = run_forward_backward(
        schedule, inputs, grad_outputs
    )

    worst = 0.0
    for seq in range(len(batch.sequences)):
        _, dense_backward = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], mask
        )
        dq_ref, dk_ref, dv_ref = dense_backward(grad_outputs[seq])
        for got, ref in ((grads.dq[seq], dq_ref), (grads.dk[seq], dk_ref),
                         (grads.dv[seq], dv_ref)):
            np.testing.assert_allclose(got, ref, rtol=3e-3, atol=3e-4)
            worst = max(worst, float(np.abs(got - ref).max()))
    print(f"gradients verified against dense reference "
          f"(max abs err {worst:.2e})")

    fw_bytes = forward.fabric.total_bytes
    bw_bytes = backward.fabric.total_bytes
    print(f"forward traffic : {fw_bytes / 1e6:7.3f} MB")
    print(f"backward traffic: {bw_bytes / 1e6:7.3f} MB "
          f"({bw_bytes / max(fw_bytes, 1):.2f}x forward; the paper's "
          f"analytic model assumes ~2x)")

    fw_time = simulate_plan(serialize_schedule(schedule)).iteration_time
    bw_time = simulate_plan(
        serialize_backward_schedule(schedule)
    ).iteration_time
    print(f"simulated fw {fw_time * 1e3:.3f} ms, bw {bw_time * 1e3:.3f} ms "
          f"({bw_time / fw_time:.2f}x)")


if __name__ == "__main__":
    main()
