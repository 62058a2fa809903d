"""Fig. 15: end-to-end training iteration time on LongAlign.

8B GPT cost model, 8 nodes with TP4 (=> 16 CP ranks), MLM (enhanced TE)
vs DCP across four max sequence lengths and four masks.  Paper claims:
0.94x-1.16x under causal, 1.00x-1.46x under sparse masks; higher
speed-ups at smaller max lengths.
"""

import os
from collections import defaultdict
from dataclasses import replace

from conftest import run_once
from figures import e2e_scale, fig15_e2e


def test_fig15_e2e_longalign(benchmark, results_dir):
    scale = replace(e2e_scale(), num_batches=2)
    table = run_once(benchmark, lambda: fig15_e2e("longalign", scale))
    table.save(os.path.join(results_dir, "fig15_e2e_longalign.md"))
    table.show()

    speedup_by_mask = defaultdict(list)
    for max_seqlen, mask, mlm, dcp, speedup in table.rows:
        speedup_by_mask[mask].append(speedup)

    # Paper's bands: causal can dip slightly below 1.0 at large max
    # lengths; sparse masks never lose.
    assert min(speedup_by_mask["causal"]) > 0.85
    for mask in ("lambda", "causal_blockwise", "shared_question"):
        assert min(speedup_by_mask[mask]) > 0.95, mask
        assert max(speedup_by_mask[mask]) > 1.05, mask
