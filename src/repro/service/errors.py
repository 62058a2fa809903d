"""Typed failure hierarchy for the plan-serving path.

Every way a plan fetch can fail used to be its own ad-hoc exception —
``PlanRejected`` lived in :mod:`repro.service.admission`, timeouts
surfaced as bare ``KeyError``/``TimeoutError``, and a dead KV shard had
no type at all.  One hierarchy fixes the two things callers actually
need to know:

* **what** failed (the class), and
* **whether retrying can help** (the ``retryable`` flag).

Retryability is carried as a plain class attribute:
:func:`is_retryable` reads ``getattr(exc, "retryable", False)``, so an
exception from outside the hierarchy classifies as non-retryable.

Classes
-------
``ServiceError``
    Root; ``retryable = False``.
``TransientServiceError``
    Root of the retryable branch; ``retryable = True``.
``PlanRejected``
    Admission control shed the request (carries ``reason`` and a
    ``retry_after_s`` backoff hint).  Retryable by definition.
``ShardUnavailable``
    A KV shard is down, or every owner replica of a key is.
    Retryable — replicas or the restarted shard can serve the next
    attempt.
``PlanTimeout``
    A plan fetch missed its deadline.  Retryable, though the service
    normally converts it into a degraded-mode serve instead of
    surfacing it.
``PlannerUnavailable``
    No planner worker can make progress (pool dead, scheduler closed).
    Not retryable without operator action.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "TransientServiceError",
    "PlanRejected",
    "ShardUnavailable",
    "PlanTimeout",
    "PlannerUnavailable",
    "is_retryable",
]


class ServiceError(RuntimeError):
    """Root of the plan-service failure hierarchy (non-retryable)."""

    #: Whether an immediate retry of the same request can succeed.
    #: Duck-typed (a plain attribute, no isinstance needed) so the
    #: core layer can classify without importing this module.
    retryable = False


class TransientServiceError(ServiceError):
    """A failure expected to clear on its own; retry with backoff."""

    retryable = True


class PlanRejected(TransientServiceError):
    """A plan request shed by admission control (typed, retryable).

    ``retry_after_s`` is the backoff hint clients should honor before
    re-submitting; ``reason`` is one of ``"tenant_queue_full"``,
    ``"tenant_inflight"`` or ``"service_saturated"``.
    """

    def __init__(self, tenant: str, reason: str,
                 retry_after_s: float = 0.0) -> None:
        super().__init__(
            f"plan request for tenant {tenant!r} rejected: {reason}"
        )
        self.tenant = tenant
        self.reason = reason
        self.retry_after_s = retry_after_s


class ShardUnavailable(TransientServiceError):
    """A KV shard cannot serve: killed, or every owner replica down."""

    def __init__(self, shard: str, reason: str = "unavailable") -> None:
        super().__init__(f"shard {shard!r} unavailable: {reason}")
        self.shard = shard
        self.reason = reason


class PlanTimeout(TransientServiceError):
    """A plan fetch exceeded its deadline."""

    def __init__(self, deadline_s: float, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"plan fetch missed its {deadline_s:.3f}s deadline{suffix}"
        )
        self.deadline_s = deadline_s


class PlannerUnavailable(ServiceError):
    """No planner worker can make progress; operator attention needed."""


def is_retryable(exc: BaseException) -> bool:
    """Whether ``exc`` is a transient failure worth retrying.

    Works on any exception: non-service errors default to
    non-retryable (``retryable`` attribute absent).
    """
    return bool(getattr(exc, "retryable", False))
