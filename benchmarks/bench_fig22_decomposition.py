"""Fig. 22: decomposition of end-to-end iteration time.

Paper claims: for sparse masks DCP sharply reduces total communication
time (overlap + exposed) vs MLM; attention compute also shrinks.
"""

import os
from dataclasses import replace

from conftest import run_once
from figures import e2e_scale, fig22_decomposition


def test_fig22_decomposition(benchmark, results_dir):
    scale = replace(e2e_scale(), num_batches=2)
    table = run_once(benchmark, lambda: fig22_decomposition(scale))
    table.save(os.path.join(results_dir, "fig22_decomposition.md"))
    table.show()

    rows = {(r[0], r[1]): r for r in table.rows}
    comm_col = table.headers.index("non_ovlp_comm_s")
    overlap_col = table.headers.index("overlap_s")
    for mask in ("lambda", "causal_blockwise", "shared_question"):
        dcp_comm = rows[(mask, "dcp")][comm_col] + rows[(mask, "dcp")][overlap_col]
        mlm_comm = rows[(mask, "mlm")][comm_col] + rows[(mask, "mlm")][overlap_col]
        assert dcp_comm < mlm_comm, (
            f"{mask}: DCP must reduce total communication time"
        )
