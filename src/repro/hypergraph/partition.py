"""Multilevel hypergraph partitioning driver.

The standard multilevel scheme (coarsen -> initial partition -> project
back, refining once at each level) with two extras the DCP planner
relies on:

* **Warm starts** — caller-provided label vectors (e.g. the zigzag
  placement static CP would use, or a DP bin-packing) are refined
  directly on the finest graph; DCP therefore never produces a plan
  with more communication than the heuristics it generalizes.
* **Restarts** — several seeds run end-to-end.

Candidates run in order — warm starts as given, then the restarts — and
the best feasible one wins (then lower cost, then lower imbalance; ties
go to the earlier).  Connectivity cannot go below zero, so the first
feasible candidate at cost 0 is returned and the rest are not run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import span as _span
from .coarsen import coarsen
from .graph import BalanceConstraint, Hypergraph, PartitionResult
from .initial import greedy_initial
from .refine import COUNTERS, RefinementState, fm_refine, greedy_refine, rebalance

__all__ = ["partition_hypergraph"]


@contextmanager
def _work_span(name: str, **args) -> Iterator:
    """A planner span annotated with the refinement work done under it."""
    with _span(name, "planner", **args) as span:
        before = COUNTERS.snapshot()
        yield span
        span.set(**{k: v - before[k] for k, v in COUNTERS.snapshot().items()})


def _refined(
    graph: Hypergraph,
    labels: np.ndarray,
    k: int,
    caps: np.ndarray,
    rng: np.random.Generator,
    greedy_passes: int,
    fm_passes: int,
) -> RefinementState:
    state = RefinementState(graph, labels, k)
    if not state.is_feasible(caps):
        rebalance(state, caps, rng)
    greedy_refine(state, caps, rng, max_passes=greedy_passes)
    fm_refine(state, caps, rng, max_passes=fm_passes)
    return state


def _result(
    state: RefinementState,
    caps: np.ndarray,
    rng: np.random.Generator,
    method: str,
) -> PartitionResult:
    if not state.is_feasible(caps):
        rebalance(state, caps, rng)
        greedy_refine(state, caps, rng, max_passes=2)
    return PartitionResult(
        labels=state.labels,
        cost=state.cost(),
        part_weights=state.part_weights.copy(),
        feasible=state.is_feasible(caps),
        method=method,
    )


def _multilevel_run(
    graph: Hypergraph,
    k: int,
    caps: np.ndarray,
    rng: np.random.Generator,
    refine_passes: int,
) -> PartitionResult:
    with _span("coarsen", "planner"):
        levels = coarsen(graph, k, rng)
    coarsest = levels[-1][0] if levels else graph
    with _work_span("initial_partition"):
        labels = greedy_initial(coarsest, k, caps, rng)
        state = _refined(coarsest, labels, k, caps, rng, refine_passes, 3)

    # Project back through the hierarchy, refining once at every level
    # (level 0 is ``graph`` itself).  The mapping stored at level ``i``
    # projects the level-``i`` coarse graph onto the previous (finer) one.
    level_passes = max(refine_passes // 2, 2)
    for index in range(len(levels) - 1, -1, -1):
        finer_graph = graph if index == 0 else levels[index - 1][0]
        labels = state.labels[levels[index][1]]
        with _work_span("refine_level", level=index):
            state = _refined(finer_graph, labels, k, caps, rng, level_passes, 2)
    return _result(state, caps, rng, "multilevel")


def partition_hypergraph(
    graph: Hypergraph,
    k: int,
    balance: Optional[BalanceConstraint] = None,
    seed: int = 0,
    restarts: int = 2,
    warm_starts: Optional[Sequence[np.ndarray]] = None,
    refine_passes: int = 6,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` balanced parts, minimizing
    connectivity (total communication volume).

    Parameters
    ----------
    balance:
        Per-dimension imbalance tolerances; defaults to the paper's
        ``eps = 0.1`` on computation with near-exact data balance.
    warm_starts:
        Optional label vectors, refined before the multilevel runs.
        With ``restarts=0`` the multilevel runs are skipped entirely
        and only the warm starts are refined — the delta re-planner's
        fast path, where a previous placement is known to be near the
        optimum for the new cluster shape.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if restarts < 1 and not warm_starts:
        raise ValueError("restarts=0 requires at least one warm start")
    if graph.num_vertices == 0:
        return PartitionResult(
            labels=np.zeros(0, dtype=np.int64),
            cost=0,
            part_weights=np.zeros((k, graph.weight_dims), dtype=np.int64),
            feasible=True,
            method="empty",
        )
    if k == 1:
        labels = np.zeros(graph.num_vertices, dtype=np.int64)
        return PartitionResult(
            labels=labels,
            cost=0,
            part_weights=graph.part_weights(labels, 1),
            feasible=True,
            method="trivial",
        )

    warm_starts = [np.asarray(warm, dtype=np.int64) for warm in warm_starts or []]
    for warm in warm_starts:
        if warm.shape != (graph.num_vertices,):
            raise ValueError("warm start must label every vertex")
        if warm.min() < 0 or warm.max() >= k:
            raise ValueError("warm start labels out of range")

    balance = balance or BalanceConstraint()
    caps = balance.caps(graph, k)

    def rank(result: PartitionResult) -> Tuple:
        imbalance = float(result.imbalance().max())
        return (not result.feasible, result.cost, imbalance)

    multilevel_runs = restarts if warm_starts else max(restarts, 1)
    candidates = len(warm_starts) + multilevel_runs
    best: Optional[PartitionResult] = None
    for index in range(candidates):
        restart = index - len(warm_starts)
        if restart < 0:
            work = _work_span("refine", method="warm", k=k)
        else:
            work = _work_span("partition", k=k, restart=restart)
        with work as span:
            if restart < 0:
                rng = np.random.default_rng(seed + 104729 + index)
                state = _refined(
                    graph, warm_starts[index], k, caps, rng, refine_passes, 3
                )
                result = _result(state, caps, rng, "warm")
            else:
                rng = np.random.default_rng(seed + 7919 * restart)
                result = _multilevel_run(graph, k, caps, rng, refine_passes)
            if best is None or rank(result) < rank(best):
                best = result
            optimal = best.feasible and best.cost == 0  # the lower bound
            span.set(candidates_skipped=candidates - index - 1 if optimal else 0)
        if optimal:
            break
    return best
