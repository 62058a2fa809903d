"""Train a small GPT end-to-end with DCP under a sparse lambda mask.

Reproduces the paper's §7.4 claim in miniature: swapping the dense
attention implementation for DCP's distributed execution changes the
loss curve only by floating-point noise, while the planner exploits the
lambda mask's sparsity to cut communication.

Run:  python examples/sparse_mask_training.py
"""

import numpy as np

from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner, make_mask
from repro.model import (
    GPTConfig,
    TinyGPT,
    generate_corpus,
    make_distributed_forward,
    train,
)


def main() -> None:
    mask = make_mask("lambda", sink=8, window=24)
    config = GPTConfig(
        vocab=64, d_model=32, num_layers=2, num_heads=4, num_kv_groups=2,
        head_dim=8, d_ff=64, max_len=128,
    )
    corpus = generate_corpus(config.vocab, seqlen=96, num_sequences=16, seed=7)
    iterations = 120

    # Baseline: dense single-device attention ("MLM").
    dense_model = TinyGPT(config, seed=11)
    dense_losses = train(dense_model, corpus, iterations, mask=mask)

    # DCP: attention executed through per-batch plans on 4 simulated
    # devices across 2 machines.
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=8)
    planner = DCPPlanner(cluster, attention, DCPConfig(block_size=16))
    forward = make_distributed_forward(planner, attention, block_size=16)
    dcp_model = TinyGPT(config, seed=11)
    dcp_losses = train(dcp_model, corpus, iterations, mask=mask,
                       attention_forward=forward)

    deviation = max(abs(a - b) for a, b in zip(dense_losses, dcp_losses))
    print(f"lambda mask, {iterations} iterations")
    print(f"  dense (MLM) loss: {dense_losses[0]:.4f} -> {dense_losses[-1]:.4f}")
    print(f"  DCP        loss: {dcp_losses[0]:.4f} -> {dcp_losses[-1]:.4f}")
    print(f"  max |loss difference|: {deviation:.2e}")
    assert deviation < 1e-3, "loss curves must coincide"

    # Show a few sampled points of the two curves side by side.
    print("\n  iter    MLM      DCP")
    for i in range(0, iterations, iterations // 8):
        print(f"  {i:4d}  {dense_losses[i]:7.4f}  {dcp_losses[i]:7.4f}")
    print("\nsparse-mask training complete; curves match (paper Fig. 21)")


if __name__ == "__main__":
    main()
