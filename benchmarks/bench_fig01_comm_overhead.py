"""Fig. 1: communication overhead of static context parallelism.

Reproduces the motivating figure: an 8B GPT trained with static CP
(Megatron/TE) spends a large, scale-growing fraction of iteration time
on CP communication.
"""

import os

from conftest import run_once
from figures import e2e_scale, fig01_comm_overhead


def test_fig01_comm_overhead(benchmark, results_dir):
    scale = e2e_scale(num_batches=2)
    table = run_once(benchmark, lambda: fig01_comm_overhead(scale))
    table.save(os.path.join(results_dir, "fig01_comm_overhead.md"))
    table.show()

    comm_pct = table.column("comm_pct")
    # Paper: 27.7% -> 44.6% going from 4 to 8 nodes; 36.7% at 128K.
    assert all(pct > 5.0 for pct in comm_pct), "comm overhead should be material"
    assert comm_pct[1] > comm_pct[0], "overhead grows with cluster size"
