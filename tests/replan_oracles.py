"""Whole-window re-plan oracles for the streaming pipeline.

:class:`~repro.pipeline.StreamingOverlapPipeline` answers a cluster-shape
event by delta re-planning: it reuses every settled plan the new shape
can run and re-dispatches only the rest.  The brute-force answers live
here, outside the package, because nothing but the tests and the
delta-replan benchmark needs them:

* ``WholeWindowPipeline()`` re-dispatches *every* window job warm from
  its settled placement labels and drops every stale cache entry.  It
  runs the same warm primitive as delta on every job, so a delta run
  must yield ``plan_fingerprint``-identical plans: the reuse shortcut
  (``rebind_plan`` and the cache remap) never changes what the pipeline
  produces.
* ``WholeWindowPipeline(cold=True)`` re-dispatches every window job
  cold, as if no plan had settled — the cost baseline of the
  delta-replan benchmark's ``replan_cost_ratio``.

``benchmarks/bench_overlap_pipeline.py`` loads this file by path.
"""

from repro.pipeline import StreamingOverlapPipeline


class WholeWindowPipeline(StreamingOverlapPipeline):
    """Re-plans the whole prefetch window on every shape change.

    Takes every :class:`~repro.pipeline.StreamingOverlapPipeline`
    parameter plus ``cold``: re-dispatch without the settled plans'
    placement labels.
    """

    def __init__(self, *args, cold: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cold = cold

    def _retarget(self, item) -> None:
        plan = None if self.cold else self._settled_plan(item)
        self._redispatch(item, warm=self._warm_labels(plan))

    def _remap_cache_entry(self, key, plan):
        return None
