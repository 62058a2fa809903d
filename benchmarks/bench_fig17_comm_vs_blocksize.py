"""Fig. 17: inter-node communication volume vs block size.

Paper claims: DCP's volume is far below the MLM baseline and increases
slightly with block size (coarser blocks = less placement flexibility).
"""

import os
from collections import defaultdict

from conftest import run_once
from figures import fig17_comm_vs_blocksize

from repro.bench import BenchScale


def test_fig17_comm_vs_blocksize(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)
    table = run_once(
        benchmark, lambda: fig17_comm_vs_blocksize("longalign", scale)
    )
    table.save(os.path.join(results_dir, "fig17_comm_vs_blocksize.md"))
    table.show()

    by_mask = defaultdict(list)  # mask -> [(block, dcp, mlm)]
    for block, mask, dcp_mb, mlm_mb in table.rows:
        by_mask[mask].append((block, dcp_mb, mlm_mb))

    for mask, rows in by_mask.items():
        rows.sort()
        dcp = [r[1] for r in rows]
        mlm = [r[2] for r in rows]
        # DCP always well under the static baseline.
        assert all(d < m for d, m in zip(dcp, mlm)), mask
        # Volume does not decrease much as blocks get coarser (paper:
        # slightly increasing trend).
        assert dcp[-1] >= 0.7 * dcp[0], mask
