"""Benchmark harness shared by ``benchmarks/`` and the ledger.

:class:`BenchScale` (a problem size), :data:`PAPER_MASKS` (the four
masks of the paper's evaluation) and :func:`make_batches` (sample,
scale and pack a dataset into batches).  The per-figure drivers live
beside their benchmarks, in ``benchmarks/figures.py``.
"""

from .harness import PAPER_MASKS, BenchScale, make_batches

__all__ = ["BenchScale", "PAPER_MASKS", "make_batches"]
