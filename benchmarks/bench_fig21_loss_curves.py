"""Fig. 21: training-loss curves, DCP vs the MLM baseline.

Paper claims (§7.4): DCP does not alter the attention algorithm, so
loss curves match up to small kernel-order deviations.  We train the
numpy GPT with dense attention (MLM) and with attention executed
through DCP plans on the simulated cluster, under all four masks.
"""

import os

from conftest import run_once
from figures import fig21_loss_curves


def test_fig21_loss_curves(benchmark, results_dir):
    table, curves = run_once(benchmark, lambda: fig21_loss_curves(
        iterations=200))
    table.save(os.path.join(results_dir, "fig21_loss_curves.md"))
    table.show()

    for mask, mlm_final, dcp_final, deviation in table.rows:
        assert deviation < 1e-2, (
            f"{mask}: loss curves must match (max dev {deviation})"
        )
    for mask, series in curves.items():
        # Training must actually learn (loss decreases meaningfully).
        assert series["mlm"][-1] < series["mlm"][0] - 0.5, mask
