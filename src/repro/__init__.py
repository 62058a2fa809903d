"""repro — reproduction of DCP: Dynamic Context Parallelism (SOSP 2025).

Top-level convenience re-exports; see subpackages for the full API:

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
  TransformerEngine / Megatron-LM
* :mod:`repro.data` — synthetic datasets, batching, packing strategies
* :mod:`repro.model` — numpy GPT for the loss-curve experiment
* :mod:`repro.obs` — unified telemetry: span tracer, metrics registry,
  latency histograms, obs CLI (``python -m repro.obs``)
"""

from .blocks import AttentionSpec, BatchSpec, SequenceSpec, generate_blocks
from .core import DCPConfig, DCPDataloader, DCPPlanner
from .masks import make_mask
from .obs import MetricsRegistry, enable_tracing, get_tracer, span
from .pipeline import OverlapStats, PipelineRunner
from .sim import ClusterSpec

__version__ = "1.2.0"

__all__ = [
    "AttentionSpec",
    "BatchSpec",
    "SequenceSpec",
    "generate_blocks",
    "DCPConfig",
    "DCPDataloader",
    "DCPPlanner",
    "make_mask",
    "MetricsRegistry",
    "enable_tracing",
    "get_tracer",
    "span",
    "ClusterSpec",
    "OverlapStats",
    "PipelineRunner",
    "__version__",
]
