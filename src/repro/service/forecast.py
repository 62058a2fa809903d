"""Workload forecasting for pre-warm planning (BRAD-style).

The forecaster keeps what BRAD calls the *workload* abstraction: per
epoch, how many times each batch signature arrived.  Histories of a
few epochs are enough to predict the next epoch's hot set — recurring
signatures dominate training traffic (bucketed batching repeats
shapes), so an exponentially-weighted count over recent epochs ranks
them well — and the service pre-plans those signatures before demand
asks, through the same cache-reservation path demand uses, so a
pre-warm and a demand request can never plan the same signature twice.

Deliberately minimal: no model fitting, no timestamps — epochs are
request-count windows rolled by the service, and the only state is a
bounded deque of per-epoch count dicts.
"""

from __future__ import annotations

import threading
from collections import Counter as TallyCounter
from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["WorkloadForecast"]


class WorkloadForecast:
    """Per-epoch arrival counts per signature, with hot-set prediction.

    Thread-safe: the service records arrivals from every client thread.
    """

    #: Completed epochs retained.
    HISTORY = 4
    #: Per-epoch weight multiplier when scoring: the most recent epoch
    #: weighs 1, the one before ``DECAY``, then ``DECAY**2`` ...
    DECAY = 0.5

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._epochs: deque = deque(maxlen=self.HISTORY)
        self._current: TallyCounter = TallyCounter()
        self._epoch = 0
        self._epoch_gauge = self.metrics.gauge("service.forecast_epoch")
        self._arrivals = self.metrics.counter("service.forecast_arrivals")

    @property
    def epoch(self) -> int:
        """Completed epochs so far."""
        with self._lock:
            return self._epoch

    def record(self, signature: Hashable) -> None:
        """One demand arrival of ``signature``."""
        with self._lock:
            self._current[signature] += 1
        self._arrivals.inc()

    def roll_epoch(self) -> Dict[Hashable, int]:
        """Close the current epoch; returns its arrival counts."""
        with self._lock:
            closed = dict(self._current)
            self._epochs.append(closed)
            self._current = TallyCounter()
            self._epoch += 1
            self._epoch_gauge.set(self._epoch)
        return closed

    def scores(self) -> Dict[Hashable, float]:
        """Decayed arrival score per signature over retained epochs."""
        with self._lock:
            epochs = list(self._epochs)
        scored: Dict[Hashable, float] = {}
        weight = 1.0
        for counts in reversed(epochs):  # newest first
            for signature, count in counts.items():
                scored[signature] = scored.get(signature, 0.0) + weight * count
            weight *= self.DECAY
        return scored

    def predict(self, top_k: int = 16) -> List[Hashable]:
        """The predicted hot set for the next epoch, hottest first.

        Ties break deterministically on the signature's repr so the
        pre-warm set is stable run to run.
        """
        if top_k < 1:
            raise ValueError("top_k must be positive")
        ranked: List[Tuple[float, str, Hashable]] = sorted(
            ((score, repr(signature), signature)
             for signature, score in self.scores().items()),
            key=lambda item: (-item[0], item[1]),
        )
        return [signature for _score, _tie, signature in ranked[:top_k]]
