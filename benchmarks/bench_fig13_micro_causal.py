"""Fig. 13: attention micro-benchmark with the causal mask.

Five systems (RFA Ring, RFA ZigZag, LoongTrain, TE, DCP) on
131072-token LongDataCollections batches over 32 simulated A100s, at
sequence-length scales 0.5/1/2/4.  Paper claims: DCP fastest overall,
best at scale 0.5 (up to 2.45x vs next best), RFA worst.
"""

import os
from collections import defaultdict
from dataclasses import replace

from conftest import run_once
from figures import fig13_micro_causal, micro_scale


def test_fig13_micro_causal(benchmark, results_dir):
    scale = replace(micro_scale(), num_batches=2)
    table = run_once(benchmark, lambda: fig13_micro_causal(scale))
    table.save(os.path.join(results_dir, "fig13_micro_causal.md"))
    table.show()

    totals = defaultdict(dict)  # len_scale -> system -> fw+bw
    for row in table.rows:
        length_scale, system, fw, bw = row[0], row[1], row[2], row[3]
        totals[length_scale][system] = fw + bw

    for length_scale, systems in totals.items():
        best_baseline = min(
            time for name, time in systems.items() if name != "dcp"
        )
        # DCP never loses to every baseline, and wins clearly at 0.5.
        assert systems["dcp"] <= best_baseline * 1.15, length_scale
        if length_scale == 0.5:
            assert best_baseline / systems["dcp"] > 1.19, (
                "paper reports >= 1.19x speed-up under causal masks"
            )
    # RFA (no head parallelism) is the slowest family overall.
    scale_one = totals[1.0]
    assert scale_one["rfa_ring"] > scale_one["te"]
