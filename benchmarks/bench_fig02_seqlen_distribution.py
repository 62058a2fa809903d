"""Fig. 2: sequence-length distributions of the two datasets."""

import os

from conftest import run_once
from figures import fig02_distribution


def test_fig02_distribution(benchmark, results_dir):
    table = run_once(benchmark, fig02_distribution)
    table.save(os.path.join(results_dir, "fig02_seqlen_distribution.md"))
    table.show()

    rows = {row[0]: row for row in table.rows}
    longalign = rows["longalign"]
    ldc = rows["longdatacollections"]
    mean_col = table.headers.index("mean")
    short_col = table.headers.index("frac<4096")
    # Fig. 2's qualitative content: LongAlign is longer on average;
    # LDC is dominated by short sequences; both are capped at 131072.
    assert longalign[mean_col] > ldc[mean_col]
    assert ldc[short_col] > longalign[short_col]
    assert rows["longalign"][table.headers.index("max")] <= 131072
