"""Fig. 19: communication volume vs mask sparsity.

Paper claims: DCP's communication grows roughly linearly with mask
sparsity (= FLOPs relative to causal), i.e. it exploits sparsity to
drop redundant communication.
"""

import os

import numpy as np
from conftest import run_once
from figures import fig19_comm_vs_sparsity

from repro.bench import BenchScale


def test_fig19_comm_vs_sparsity(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)
    table = run_once(
        benchmark, lambda: fig19_comm_vs_sparsity("longalign", scale)
    )
    table.save(os.path.join(results_dir, "fig19_comm_vs_sparsity.md"))
    table.show()

    sparsity = np.array(table.column("sparsity"), dtype=float)
    volume = np.array(table.column("inter_mb"), dtype=float)
    # Positive correlation between sparsity and communication volume.
    correlation = np.corrcoef(sparsity, volume)[0, 1]
    assert correlation > 0.6, f"expected near-linear growth, r={correlation:.2f}"
    # Dense (causal) communicates several times more than the sparsest
    # variants — the headline of Fig. 19.
    causal_volume = volume[table.column("variant").index("causal")]
    assert causal_volume >= 3.0 * volume.min()
