"""Tests for the ``python -m repro.plan`` CLI and distribution fitting."""

import json
import os

import numpy as np
import pytest

from repro.data import LengthDistribution, sample_lengths
from repro.plan_cli import main

BASE = [
    "--seqlens", "512", "256",
    "--machines", "1", "--devices", "2",
    "--block-size", "64",
    "--q-heads", "4", "--kv-groups", "2", "--head-dim", "16",
]


class TestPlanCli:
    def test_basic_run(self, capsys):
        assert main(BASE) == 0
        out = capsys.readouterr().out
        assert "== dcp ==" in out
        assert "tokens/device" in out
        assert "planning:" in out
        assert "busy" in out
        assert "placement: " in out and "partitioned " in out

    def test_mask_selection(self, capsys):
        assert main(BASE + ["--mask", "lambda"]) == 0
        assert "mask lambda" in capsys.readouterr().out

    def test_unknown_mask_fails_cleanly(self, capsys):
        assert main(BASE + ["--mask", "not-a-mask"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seqlens", "0"],
            ["--devices", "0"],
            ["--machines", "0"],
            ["--divisions", "0"],
            ["--block-size", "0"],
            ["--q-heads", "5", "--kv-groups", "2"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_numbers_fail_cleanly(self, flags, capsys):
        assert main(BASE + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("baseline", ["rfa_zigzag", "loongtrain", "te"])
    def test_baseline_comparison(self, baseline, capsys):
        assert main(BASE + ["--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert f"== {baseline} ==" in out
        assert "speed-up" in out

    def test_trace_output(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "t.json")
        assert main(BASE + ["--trace", path]) == 0
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]

    def test_divisions_flag(self, capsys):
        assert main(BASE + ["--divisions", "2"]) == 0


class TestLengthDistributionFit:
    def test_fit_recovers_parameters(self):
        source = LengthDistribution(
            name="src", log_mean=np.log(4000.0), log_sigma=0.8,
            min_len=1, cap=10**9,
        )
        sample = source.sample(20000, seed=0)
        fitted = LengthDistribution.fit(sample, cap=10**9)
        assert fitted.log_mean == pytest.approx(source.log_mean, abs=0.05)
        assert fitted.log_sigma == pytest.approx(source.log_sigma, abs=0.05)

    def test_fitted_distribution_samples(self):
        lengths = sample_lengths("longdatacollections", 500, seed=1)
        fitted = LengthDistribution.fit(lengths, name="mine")
        out = fitted.sample(100, seed=2)
        assert out.min() >= fitted.min_len
        assert out.max() <= fitted.cap
        assert fitted.name == "mine"

    def test_constant_lengths(self):
        fitted = LengthDistribution.fit([1000] * 50)
        assert fitted.log_sigma > 0  # floored, not zero
        sample = fitted.sample(10, seed=0)
        assert np.allclose(sample, 1000, rtol=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LengthDistribution.fit([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LengthDistribution.fit([100, 0])
