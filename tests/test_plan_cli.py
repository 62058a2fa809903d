"""Tests for the ``python -m repro.plan`` CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.plan import main

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

    def test_module_entry_point(self):
        """``python -m repro.plan`` runs ``main`` and exits with its
        code."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        ok = subprocess.run(
            [sys.executable, "-m", "repro.plan", *BASE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert ok.returncode == 0, ok.stderr
        assert "== dcp ==" in ok.stdout
        bad = subprocess.run(
            [sys.executable, "-m", "repro.plan", *BASE, "--devices", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: ")

    def test_trace_output(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "t.json")
        assert main(BASE + ["--trace", path]) == 0
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]

    def test_divisions_flag(self, capsys):
        assert main(BASE + ["--divisions", "2"]) == 0
