"""The plan cache's reservation protocol, run synchronously.

:class:`~repro.core.PlanCache` has one protocol: ``reserve``, then
``publish`` or ``abandon``.  The pipeline and the plan service run it
across threads; the tests drive it one call at a time through
:func:`plan_batch`.
"""

from repro.core.cache import PlanAbandoned, batch_signature


def plan_batch(cache, batch):
    """The cached plan for ``batch``, planning it on a miss.

    Goes through ``reserve`` like every other caller, so concurrent
    misses on one signature plan once: the owner plans (outside the
    lock) and publishes, the rest wait on its future.  A waiter whose
    reservation was invalidated before it published claims the
    signature again; an owner's planning error abandons the reservation
    and reaches its waiters too.
    """
    key = batch_signature(batch)
    while True:
        status, payload, epoch = cache.reserve(key)
        if status == "hit":
            return payload
        if status == "wait":
            try:
                return payload.result()
            except PlanAbandoned:
                continue
        try:
            plan = cache.planner.plan_batch(batch)
        except BaseException as exc:
            cache.abandon(key, exc, epoch=epoch)
            raise
        cache.publish(key, plan, epoch)
        return plan
