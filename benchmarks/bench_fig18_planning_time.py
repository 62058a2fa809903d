"""Fig. 18: planning time vs block size (real wall-clock of our planner).

Paper claims: planning time drops rapidly as block size grows (fewer
blocks) and is smaller under sparse masks.
"""

import os
from collections import defaultdict

from conftest import run_once
from figures import fig18_planning_time

from repro.bench import BenchScale


def test_fig18_planning_time(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=1)
    table = run_once(
        benchmark, lambda: fig18_planning_time("longalign", scale)
    )
    table.save(os.path.join(results_dir, "fig18_planning_time.md"))
    table.show()

    by_mask = defaultdict(dict)
    for block, mask, total, *_ in table.rows:
        by_mask[mask][block] = total

    for mask, by_block in by_mask.items():
        blocks = sorted(by_block)
        # Monotone-ish decrease: coarsest blocks plan much faster than
        # the finest.
        assert by_block[blocks[-1]] < by_block[blocks[0]], mask
    # Sparse masks have fewer computation blocks, hence faster planning.
    assert by_mask["lambda"][512] < by_mask["causal"][512]
