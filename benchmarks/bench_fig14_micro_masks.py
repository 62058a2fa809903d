"""Fig. 14: attention micro-benchmark under the four attention masks.

TE (enhanced with mask support, as the paper does) vs DCP.  Paper
claims: DCP up to 3.77x on sparse masks, with larger gains on the
sparser lambda / causal-blockwise masks than on shared-question.
"""

import os
from collections import defaultdict
from dataclasses import replace

from conftest import run_once
from figures import fig14_micro_masks, micro_scale


def test_fig14_micro_masks(benchmark, results_dir):
    scale = replace(micro_scale(), num_batches=2)
    table = run_once(benchmark, lambda: fig14_micro_masks(scale))
    table.save(os.path.join(results_dir, "fig14_micro_masks.md"))
    table.show()

    speedups = defaultdict(list)  # mask -> [speedup per scale]
    for row in table.rows:
        _, mask, system, _, _, speedup = row
        if system == "dcp":
            speedups[mask].append(speedup)

    for mask, values in speedups.items():
        best = max(values)
        if mask == "causal":
            assert best > 1.0, "DCP should beat TE somewhere even on causal"
        else:
            assert best > 1.5, f"sparse mask {mask} should show clear wins"
    # Sparser masks benefit more than shared-question (paper §7.1).
    assert max(speedups["lambda"]) > max(speedups["shared_question"]) * 0.8
