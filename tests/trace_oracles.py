"""The CI gate's trace-nesting check, for tests.

``benchmarks/check_bench_floors.py:partial_overlaps`` finds complete
events that partially overlap on one ``(pid, tid)`` track; the
trace-event format requires every track to nest.
"""

import importlib.util
import os
import sys

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
sys.path.insert(0, _BENCHMARKS)  # the checker imports a module beside it
try:
    _spec = importlib.util.spec_from_file_location(
        "check_bench_floors", os.path.join(_BENCHMARKS, "check_bench_floors.py")
    )
    check_bench_floors = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(check_bench_floors)
finally:
    sys.path.remove(_BENCHMARKS)

partial_overlaps = check_bench_floors.partial_overlaps


def assert_tracks_nest(trace: dict) -> None:
    """Fail on any partial overlap between slices of one track."""
    overlaps = partial_overlaps(trace["traceEvents"])
    assert not overlaps, (
        f"{len(overlaps)} partial overlaps, first: {overlaps[0]}"
    )
