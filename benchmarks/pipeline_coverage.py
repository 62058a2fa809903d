"""Line-coverage gate for ``repro.pipeline`` without external deps.

``run_tier1.sh`` wants ``pytest --cov=repro.pipeline
--cov-fail-under=85`` for the pipeline package, but the container image
may not ship ``pytest-cov``/``coverage``.  This tool is the fallback: a
``sys.settrace``-based line tracer scoped to ``src/repro/pipeline``
that runs the pipeline test modules under pytest and fails (exit 1) if
the executed fraction of traceable lines drops below the threshold.

The universe of traceable lines is derived from the compiled code
objects themselves (``co_lines`` over the module and every nested code
object), so it is exactly the set of lines that *can* emit trace
events — the same definition coverage.py uses.  Lines marked
``# pragma: no cover`` are excluded, matching the conventional escape
hatch.  Worker threads are traced too (``threading.settrace`` is
installed before any pool spawns).  The tracer is
:class:`reachability.Tracer`, the one ``benchmarks/reachability.py``
runs.

Usage::

    PYTHONPATH=src python benchmarks/pipeline_coverage.py --fail-under 85
"""

from __future__ import annotations

import argparse
import os
from typing import Set

from reachability import Tracer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro", "pipeline")

#: Test modules that exercise the pipeline package.
TEST_MODULES = [
    "tests/test_overlap_pipeline.py",
    "tests/test_streaming_pipeline.py",
    "tests/test_fault_injection.py",
    "tests/test_plan_cache.py",
    "tests/test_plan_transport.py",
    "tests/test_obs.py",
    "tests/test_pool_kvstore.py",
    "tests/test_delta_replan.py",
]


def _package_files() -> list:
    return sorted(
        os.path.join(PACKAGE_DIR, name)
        for name in os.listdir(PACKAGE_DIR)
        if name.endswith(".py")
    )


def _traceable_lines(path: str) -> Set[int]:
    """Line numbers that can emit trace events, minus pragma'd lines."""
    with open(path) as handle:
        source = handle.read()
    pragma_lines = {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if "pragma: no cover" in text
    }
    lines: Set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _start, _end, line in code.co_lines():
            if line is not None:
                lines.add(line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines - pragma_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fail-under", type=float, default=85.0,
                        help="minimum total line coverage percent")
    parser.add_argument("tests", nargs="*", default=None,
                        help="test files to run (default: pipeline suite)")
    args = parser.parse_args(argv)

    targets = [
        os.path.join(REPO_ROOT, rel) for rel in (args.tests or TEST_MODULES)
    ]
    universe = {path: _traceable_lines(path) for path in _package_files()}

    tracer = Tracer(root=PACKAGE_DIR)
    tracer.install()
    try:
        import pytest

        import repro.pipeline.pipeline

        # Tracing makes the pipeline's own bookkeeping ~10x slower,
        # which pushes queue waits past the default stall threshold and
        # flips timing assertions.  Raise the threshold well above
        # tracer noise but far below any injected stall (tests use
        # >= 12 ms plans).
        repro.pipeline.pipeline.STALL_EPS = 2e-3

        exit_code = pytest.main(["-q", "-p", "no:cacheprovider", *targets])
    finally:
        tracer.uninstall()
    if exit_code != 0:
        print(f"pipeline tests failed (pytest exit {exit_code})")
        return int(exit_code) or 1

    total_lines = 0
    total_hit = 0
    print(f"\n{'file':<52} {'lines':>6} {'hit':>6} {'cover':>7}")
    for path, lines in universe.items():
        hit = len(tracer.executed.get(path, set()) & lines)
        total_lines += len(lines)
        total_hit += hit
        percent = 100.0 * hit / len(lines) if lines else 100.0
        rel = os.path.relpath(path, REPO_ROOT)
        print(f"{rel:<52} {len(lines):>6} {hit:>6} {percent:>6.1f}%")
    total = 100.0 * total_hit / total_lines if total_lines else 100.0
    print(f"{'TOTAL':<52} {total_lines:>6} {total_hit:>6} {total:>6.1f}%")

    if total < args.fail_under:
        print(
            f"FAIL: repro.pipeline line coverage {total:.1f}% is below "
            f"--fail-under {args.fail_under:.1f}%"
        )
        return 1
    print(f"ok: repro.pipeline line coverage {total:.1f}% "
          f">= {args.fail_under:.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
