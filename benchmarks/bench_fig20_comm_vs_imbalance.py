"""Fig. 20: communication volume vs computation-imbalance tolerance.

Paper claims: allowing more computation imbalance (larger eps) lets the
partitioner trade balance for less communication — volume decreases as
eps grows.
"""

import os
from collections import defaultdict

from conftest import run_once
from figures import fig20_comm_vs_imbalance

from repro.bench import BenchScale


def test_fig20_comm_vs_imbalance(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)
    table = run_once(benchmark, lambda: fig20_comm_vs_imbalance(scale))
    table.save(os.path.join(results_dir, "fig20_comm_vs_imbalance.md"))
    table.show()

    by_dataset = defaultdict(list)
    for dataset, imbalance, inter_mb in table.rows:
        by_dataset[dataset].append((imbalance, inter_mb))

    for dataset, points in by_dataset.items():
        points.sort()
        volumes = [v for _, v in points]
        # Loosest tolerance should not communicate more than the
        # tightest (the trade-off of the paper's Fig. 20).
        assert volumes[-1] <= volumes[0] * 1.05, dataset
