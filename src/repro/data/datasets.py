"""Synthetic long-context datasets (substitute for LongAlign / LDC).

The paper's evaluation depends on the *sequence-length distribution* of
its two datasets (Fig. 2), not on token content:

* **LongDataCollections** [41]: skewed and long-tailed with many short
  sequences — most mass below ~8K tokens, a thin tail to 131072.
* **LongAlign** [5]: longer average length and fewer short sequences,
  same long-tailed shape.

We model both as capped lognormal distributions whose parameters were
chosen to match the qualitative shape of Fig. 2 (mode of LDC near 2-4K,
mode of LongAlign near 8-16K, both capped at 131072).  Generation is
deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "LengthDistribution",
    "LONGALIGN",
    "LONG_DATA_COLLECTIONS",
    "sample_lengths",
    "scale_lengths",
]

#: Cap used throughout the paper (tokens).
MAX_SEQLEN = 131072


@dataclass(frozen=True)
class LengthDistribution:
    """A capped lognormal sequence-length distribution."""

    name: str
    log_mean: float
    log_sigma: float
    min_len: int = 32
    cap: int = MAX_SEQLEN

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lengths = rng.lognormal(self.log_mean, self.log_sigma, size=n)
        return np.clip(lengths.astype(np.int64), self.min_len, self.cap)


#: LongAlign-like: longer average, fewer short sequences (Fig. 2).
LONGALIGN = LengthDistribution(
    name="longalign", log_mean=np.log(9000.0), log_sigma=0.95
)

#: LongDataCollections-like: many short sequences, long tail (Fig. 2).
LONG_DATA_COLLECTIONS = LengthDistribution(
    name="longdatacollections", log_mean=np.log(3000.0), log_sigma=1.25
)

_BY_NAME = {
    "longalign": LONGALIGN,
    "longdatacollections": LONG_DATA_COLLECTIONS,
}


def sample_lengths(dataset: str, n: int, seed: int = 0) -> np.ndarray:
    """Sample ``n`` sequence lengths from a named dataset distribution."""
    try:
        dist = _BY_NAME[dataset]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown dataset {dataset!r}; known: {known}") from None
    return dist.sample(n, seed)


def scale_lengths(
    lengths: np.ndarray, scale: float, cap: Optional[int] = MAX_SEQLEN
) -> np.ndarray:
    """Multiply lengths by ``scale`` (paper §7.1: 0.5/1/2/4), then cap."""
    scaled = np.maximum((lengths * scale).astype(np.int64), 1)
    if cap is not None:
        scaled = np.minimum(scaled, cap)
    return scaled
