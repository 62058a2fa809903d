"""Fig. 16: end-to-end training iteration time on LongDataCollections.

Same setup as Fig. 15; the paper notes higher causal-mask speed-ups
here because LDC has more short sequences.
"""

import os
from collections import defaultdict
from dataclasses import replace

from conftest import run_once
from figures import e2e_scale, fig15_e2e


def test_fig16_e2e_ldc(benchmark, results_dir):
    scale = replace(e2e_scale(), num_batches=2)
    table = run_once(benchmark, lambda: fig15_e2e("longdatacollections", scale))
    table.save(os.path.join(results_dir, "fig16_e2e_ldc.md"))
    table.show()

    speedup_by_mask = defaultdict(list)
    for max_seqlen, mask, mlm, dcp, speedup in table.rows:
        speedup_by_mask[mask].append(speedup)

    assert min(speedup_by_mask["causal"]) > 0.85
    for mask in ("lambda", "causal_blockwise", "shared_question"):
        assert max(speedup_by_mask[mask]) > 1.05, mask
