"""The DCP planner: block generation -> placement -> schedule -> plan.

One :meth:`DCPPlanner.plan` call performs everything the paper's
planner does for one training batch (§3.1): generate data/computation
blocks from sequence lengths and masks, optimize their placement with
hierarchical hypergraph partitioning, schedule divisions, and serialize
the per-device instruction streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..blocks import AttentionSpec, BatchSpec, BlockSet, generate_blocks
from ..hypergraph import COUNTERS as _REFINE_COUNTERS
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span as _span
from ..placement import place_blocks
from ..scheduling import ExecutionPlan, build_schedule, serialize_schedule
from ..sim.cluster import ClusterSpec
from .config import DCPConfig

__all__ = ["DCPPlanner", "PlanningStats"]


@dataclass
class PlanningStats:
    """Wall-clock breakdown of one planning run (Fig. 18).

    Besides the per-stage timings, per-stage work counters make perf
    regressions visible in the fig18/fig22 benchmark output: the size
    of the placement hypergraph and how many moves refinement made
    (``refine_rolled_back`` of them tentative FM moves undone again) /
    gains it consulted on it (counted per planning thread), how many
    partition calls ended outside the balance caps, the division count
    the scheduler chose (``DCPConfig.num_divisions`` is its upper bound)
    and whose placement it chose (``"partitioned"``, or the alternative
    that priced cheaper: its ``"owner"``-computes projection or the
    static ``"zigzag"`` / ``"dp_pack"`` one, or ``"refined"``: the
    price search's neighbour of the cheapest owner-structured one), the
    moves that search kept on the price (``price_moves``) and the swaps
    it then kept to move fewer bytes at no higher price
    (``byte_moves``), and the chosen forward
    plan's attention tiles (one per Q row per kernel) and the block
    pairs they compute.
    """

    block_generation: float = 0.0
    placement: float = 0.0
    scheduling: float = 0.0
    num_vertices: int = 0
    num_edges: int = 0
    refine_moves: int = 0
    refine_rolled_back: int = 0
    gain_evals: int = 0
    infeasible_partitions: int = 0
    num_divisions: int = 0
    placement_source: str = ""
    attention_tiles: int = 0
    tile_pairs: int = 0
    price_moves: int = 0
    byte_moves: int = 0

    @property
    def total(self) -> float:
        return self.block_generation + self.placement + self.scheduling


class DCPPlanner:
    """Produces a fresh parallelization configuration per batch."""

    name = "dcp"

    def __init__(
        self,
        cluster: ClusterSpec,
        attention: Optional[AttentionSpec] = None,
        config: Optional[DCPConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cluster = cluster
        self.attention = attention or AttentionSpec()
        self.config = config or DCPConfig()
        #: Per-stage latency histograms and work counters
        #: (``planner.plan_s``, ``planner.placement_s``, ...) accumulate
        #: here; pass a shared registry to pool several planners onto
        #: one accounting truth (``repro.obs``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def plan_batch(
        self,
        batch: BatchSpec,
        cluster: Optional[ClusterSpec] = None,
        warm=None,
    ) -> ExecutionPlan:
        """Plan from raw (sequence lengths, masks).

        ``cluster`` targets the plan at a different cluster shape
        without persisting it — the streaming pipeline re-plans against
        the shape a mid-stream device add/remove event produced while
        the planner's configured :attr:`cluster` stays untouched.
        ``warm`` is a previous placement of the same batch —
        ``(slice_device, comp_device[, source])``, typically a prior
        plan's ``meta["placement"]`` — handed to
        :func:`~repro.placement.place_blocks` so an event re-plan
        starts from (or outright adopts) the old placement instead of
        partitioning from scratch.
        """
        with _span("plan_batch", "planner"):
            stats = PlanningStats()
            start = time.perf_counter()
            with _span("generate_blocks", "planner"):
                block_set = generate_blocks(
                    batch,
                    attention=self.attention,
                    block_size=self.config.block_size,
                )
            stats.block_generation = time.perf_counter() - start
            return self._plan_blocks(
                block_set, stats, cluster=cluster, warm=warm
            )

    def plan(
        self,
        block_set: BlockSet,
        cluster: Optional[ClusterSpec] = None,
    ):
        """Planner-protocol entry point (shared with the baselines).

        When ``cluster`` is given, the plan targets it without
        persisting it: a shared planner instance keeps its configured
        :attr:`cluster` untouched across calls.
        """
        return self._plan_blocks(block_set, PlanningStats(), cluster=cluster)

    def _plan_blocks(
        self,
        block_set: BlockSet,
        stats: PlanningStats,
        cluster: Optional[ClusterSpec] = None,
        warm=None,
    ):
        cluster = self.cluster if cluster is None else cluster
        _REFINE_COUNTERS.reset()
        start = time.perf_counter()
        with _span("placement", "planner"):
            placement = place_blocks(
                block_set, cluster, self.config.placement, warm=warm
            )
        stats.placement = time.perf_counter() - start
        stats.num_vertices = placement.num_vertices
        stats.num_edges = placement.num_edges
        stats.refine_moves = _REFINE_COUNTERS.moves
        stats.refine_rolled_back = _REFINE_COUNTERS.rolled_back
        stats.gain_evals = _REFINE_COUNTERS.gain_evals
        stats.infeasible_partitions = placement.infeasible_partitions

        start = time.perf_counter()
        with _span("scheduling", "planner"):
            schedule = build_schedule(
                block_set,
                placement,
                num_divisions=self.config.num_divisions,
                strategy=self.config.scheduler,
            )
            plan = serialize_schedule(schedule)
        stats.scheduling = time.perf_counter() - start
        stats.num_divisions = schedule.num_divisions
        stats.price_moves = schedule.price_moves
        stats.byte_moves = schedule.byte_moves
        stats.attention_tiles, stats.tile_pairs = plan.tile_counts()
        # The schedule's placement is the one it chose (``placement``,
        # one of its alternatives or their price-refined neighbour).
        placement = schedule.placement
        stats.placement_source = placement.source

        plan.meta["planning_stats"] = stats
        plan.meta["placement_prices"] = dict(schedule.placement_prices)
        # The chosen placement's labels (and source) ride with the plan
        # so a later delta re-plan (after a cluster event) can
        # warm-start from — or adopt — them: they are a few KB of int64
        # next to megabytes of instruction streams, and plan_fingerprint
        # ignores meta.
        plan.meta["placement"] = (
            placement.slice_device,
            placement.comp_device,
            placement.source,
        )
        metrics = self.metrics
        metrics.counter("planner.plans").inc()
        metrics.histogram("planner.plan_s").observe(stats.total)
        metrics.histogram("planner.block_generation_s").observe(
            stats.block_generation
        )
        metrics.histogram("planner.placement_s").observe(stats.placement)
        metrics.histogram("planner.scheduling_s").observe(stats.scheduling)
        metrics.histogram("planner.num_divisions").observe(stats.num_divisions)
        metrics.counter("planner.refine_moves").inc(stats.refine_moves)
        metrics.counter("planner.refine_rolled_back").inc(
            stats.refine_rolled_back
        )
        metrics.counter("planner.gain_evals").inc(stats.gain_evals)
        metrics.counter("planner.infeasible_partitions").inc(
            stats.infeasible_partitions
        )
        metrics.counter(f"planner.placement_source.{placement.source}").inc()
        metrics.counter("planner.attention_tiles").inc(stats.attention_tiles)
        metrics.counter("planner.tile_pairs").inc(stats.tile_pairs)
        metrics.counter("planner.price_moves").inc(stats.price_moves)
        metrics.counter("planner.byte_moves").inc(stats.byte_moves)
        return plan
