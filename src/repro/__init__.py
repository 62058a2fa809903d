"""repro — reproduction of DCP: Dynamic Context Parallelism (SOSP 2025).

The top level re-exports what planning one batch needs (specs,
``DCPConfig`` / ``DCPPlanner`` / ``DCPDataloader``, ``make_mask``,
``generate_blocks``); the subpackages hold the rest:

* :mod:`repro.core` — DCPConfig, DCPPlanner, DCPDataloader, KV store,
  plan cache, block-size autotuner (``repro.core.autotune_block_size``)
* :mod:`repro.masks` — attention-mask specifications (2-range paper
  masks plus arbitrary multi-range masks)
* :mod:`repro.blocks` — data/computation block representation
* :mod:`repro.hypergraph` — multilevel hypergraph partitioner
* :mod:`repro.placement` — hierarchical block placement
* :mod:`repro.scheduling` — divisions, instructions, serialization
* :mod:`repro.pipeline` — background planning pipeline hiding planner
  latency behind execution (§6.1, measured)
* :mod:`repro.runtime` — simulated distributed executor (numerics)
* :mod:`repro.sim` — cluster spec, timing simulation, model cost,
  memory accounting, timeline/trace export
* :mod:`repro.parallel` — composing DCP with TP and PP (§6.2)
* :mod:`repro.baselines` — RingFlashAttention / LoongTrain /
  TransformerEngine
* :mod:`repro.data` — synthetic datasets, batching, streaming packers
* :mod:`repro.model` — numpy GPT for the loss-curve experiment
* :mod:`repro.obs` — unified telemetry: span tracer, metrics registry,
  latency histograms
* :mod:`repro.bench` — the problem scales and batch sampling shared by
  ``benchmarks/`` and the ledger
* :mod:`repro.service` / :mod:`repro.faults` — multi-tenant plan
  service over a replicated store, and its fault injection

``python -m repro.plan`` plans one batch from the command line.
"""

from .blocks import AttentionSpec, BatchSpec, generate_blocks
from .core import DCPConfig, DCPDataloader, DCPPlanner
from .masks import make_mask
from .sim import ClusterSpec

__version__ = "1.2.0"

__all__ = [
    "AttentionSpec",
    "BatchSpec",
    "generate_blocks",
    "DCPConfig",
    "DCPDataloader",
    "DCPPlanner",
    "make_mask",
    "ClusterSpec",
    "__version__",
]
