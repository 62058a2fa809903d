"""Scenario-matrix benchmark: every mask family x every streaming packer.

The paper's core claim is that planned context parallelism handles
*arbitrary* attention workloads (§2.4: the mask is determined by the
input data, not just the model).  This benchmark turns that claim into
a gated grid.  Each cell drives one scenario —

* **mask family**: ``causal``, ``multirange`` (LongNet-style dilated
  blocks from :mod:`repro.masks.multirange`), ``documents``
  (block-diagonal :class:`~repro.masks.PackedDocumentMask` built per
  sequence), ``shared_question`` (RLHF samples from
  :mod:`repro.data.rlhf`, each sequence carrying its own mask), and
  ``mixed_tenant`` (heterogeneous traffic: consecutive batches cycle
  through tenant mask families);
* **streaming packer**: ``sequential``, ``workload_balanced``,
  ``length_grouped`` — the bounded-reordering-buffer packers from
  :data:`repro.data.STREAM_PACKERS`;
* **stream type**: ``fixed`` (no cluster events; plans proven
  ``plan_fingerprint``-identical to synchronous planning) and
  ``events`` (a mid-stream device removal re-plans the prefetch window
  in ``delta`` mode; the cell must observe >= 1 re-plan);

— through :class:`repro.pipeline.StreamingOverlapPipeline` and records
hidden fraction, per-plan communication volume, and re-plan cost.

Writes ``BENCH_scenarios.json`` at the repo root (the full grid, 30
cells).  ``--smoke`` runs a reduced grid (>= 12 cells) against tiny
batches, writes a scratch report, and *gates*: per-cell steady hidden
fraction must clear the ``smoke_hidden_floor`` recorded in the tracked
``BENCH_scenarios.json``, fixed cells must be fingerprint-identical to
synchronous planning, event cells must re-plan, every plan that places
a computation block away from its query or key/value slice must move
data, and the grid must cover every mask family x packer pair.
``benchmarks/check_bench_floors.py:check_scenarios`` re-checks the
same floors in CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py           # full grid
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke   # CI gate
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import time
from typing import Dict, Iterable, List, Optional, Sequence

from revision import git_revision

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_scenarios.json")
SMOKE_OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_scenarios.smoke.json")

MASK_FAMILIES = (
    "causal",
    "multirange",
    "documents",
    "shared_question",
    "mixed_tenant",
)
PACKER_NAMES = ("sequential", "workload_balanced", "length_grouped")

#: Per-cell steady-state hidden-fraction floor for the smoke grid.  The
#: smoke cells run execution at ~3x the cost model, so a healthy
#: pipeline hides most planning in steady state on every scenario; 0.3
#: (vs the 0.5 single-cell overlap floor) leaves room for the heavier
#: mask families (multirange planning is slower per batch) and CI
#: scheduling noise, while a serialized pipeline (~0.0) still fails.
DEFAULT_SMOKE_HIDDEN_FLOOR = 0.3

#: Execution-time multiplier of the smoke cells (~3x the cost model).
SMOKE_TIME_SCALE = 3.0

#: Reordering-buffer depth the matrix runs the streaming packers at.
MATRIX_BUFFER = 16


# ---------------------------------------------------------------------------
# Scenario construction: mask families over a packed length stream.
# ---------------------------------------------------------------------------


def _document_mask(seqlen: int):
    """Deterministic per-sequence packed-documents mask (~4 docs)."""
    from repro.masks import PackedDocumentMask

    if seqlen < 8:
        return PackedDocumentMask(doc_lens=(seqlen,))
    quarter = seqlen // 4
    return PackedDocumentMask(
        doc_lens=(quarter, quarter, quarter, seqlen - 3 * quarter)
    )


def _rlhf_mask(seqlen: int):
    """Deterministic RLHF shared-question mask derived from the length.

    Builds a :class:`repro.data.RlhfSample` whose question takes ~20%
    of the sequence and whose answer count varies with the length, then
    uses the sample's own ``mask()`` — the paper's data-dependent
    ``mask_fn``.  Sequences too short to hold a question plus answers
    fall back to causal.
    """
    from repro.data import RlhfSample
    from repro.masks import CausalMask

    if seqlen < 16:
        return CausalMask()
    num_answers = 2 + (seqlen % 3)
    question = max(seqlen // 5, 1)
    rest = seqlen - question
    base = rest // num_answers
    answer_lens = tuple(
        base if i < num_answers - 1 else rest - base * (num_answers - 1)
        for i in range(num_answers)
    )
    return RlhfSample(question_len=question, answer_lens=answer_lens).mask()


def _family_mask(family: str, max_seqlen: int):
    """The mask (spec or ``seqlen -> spec`` callable) for one family."""
    from repro.masks import CausalMask, DilatedBlockMask

    if family == "causal":
        return CausalMask()
    if family == "multirange":
        return DilatedBlockMask(
            block=max(max_seqlen // 32, 8),
            stride=4,
            window=max(max_seqlen // 8, 32),
        )
    if family == "documents":
        return _document_mask
    if family == "shared_question":
        return _rlhf_mask
    raise ValueError(f"unknown mask family {family!r}")


def _tenant_cycle(max_seqlen: int) -> List:
    """Mask families the mixed-tenant stream cycles through per batch."""
    from repro.masks import CausalMask, LambdaMask

    return [
        CausalMask(),
        LambdaMask(
            sink=max(max_seqlen // 32, 4), window=max(max_seqlen // 8, 32)
        ),
        _document_mask,
        _rlhf_mask,
        _family_mask("multirange", max_seqlen),
    ]


def _scenario_lengths(scale, num_sequences: int = 600) -> List[int]:
    """The matrix's length stream: paper distribution scaled to budget."""
    from repro.data import sample_lengths, scale_lengths

    lengths = sample_lengths("longdatacollections", num_sequences)
    lengths = scale_lengths(
        lengths, scale.token_budget / 131072, cap=scale.max_seqlen
    )
    return [int(n) for n in lengths]


def scenario_specs(
    family: str, scale, packer_name: str, num_batches: int
) -> List:
    """Materialize one cell's batch stream (``num_batches`` specs).

    The packer consumes the scenario's length stream through its
    reordering buffer; each emitted batch is dressed with the family's
    mask (per-sequence for the data-dependent families, cycling per
    batch for ``mixed_tenant``).
    """
    from repro.data import STREAM_PACKERS, batches_to_specs

    packer = STREAM_PACKERS[packer_name](
        scale.token_budget, scale.max_seqlen, buffer=MATRIX_BUFFER
    )
    lengths = _scenario_lengths(scale)
    batches = itertools.islice(packer.stream(lengths), num_batches)
    if family == "mixed_tenant":
        cycle = _tenant_cycle(scale.max_seqlen)
        return [
            batches_to_specs([batch], cycle[index % len(cycle)])[0]
            for index, batch in enumerate(batches)
        ]
    mask = _family_mask(family, scale.max_seqlen)
    return [batches_to_specs([batch], mask)[0] for batch in batches]


# ---------------------------------------------------------------------------
# Cell measurement.
# ---------------------------------------------------------------------------


def _settle_window(pipeline, timeout: float = 30.0) -> None:
    """Wait for every prefetch-window job to finish planning, so the
    event cell's device removal re-dispatches a fully-planned window
    and the measured re-plan cost is deterministic."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(
            item.ticket is None or item.ticket.ready()
            for item in pipeline._pending
        ):
            return
        time.sleep(0.005)


def _measure_cell(
    scale,
    specs: List,
    family: str,
    packer_name: str,
    stream: str,
    kappa: int,
    workers: int,
    time_scale: float,
) -> Dict:
    """Run one (mask family, packer, stream type) cell.

    ``stream="fixed"``: no cluster events; the cell additionally plans
    the same specs synchronously and records whether the pipeline's
    plans are ``plan_fingerprint``-identical.  ``stream="events"``: a
    device removal fires after the mid-stream iteration (window settled
    first), the pipeline re-plans in ``delta`` mode, and the cell runs
    cache-less so the re-plan cost is actually measured.
    """
    from repro.core import DCPPlanner, PlanCache
    from repro.data import packing_stats
    from repro.pipeline import (
        PipelineRunner,
        StreamingOverlapPipeline,
        cost_model_executor,
        plan_fingerprint,
    )
    from repro.sim import ClusterEventSource

    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    events = None
    cache = None
    sync_prints: Optional[List] = None
    if stream == "fixed":
        cache = PlanCache(planner, capacity=64)
        sync_planner = DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config()
        )
        sync_prints = [
            plan_fingerprint(sync_planner.plan_batch(spec)) for spec in specs
        ]
    else:
        events = ClusterEventSource(scale.cluster)
    pipeline = StreamingOverlapPipeline(
        (spec for spec in specs),
        planner,
        lookahead=kappa,
        max_workers=workers,
        cache=cache,
        events=events,
    )

    remove_at = max(len(specs) // 2 - 1, 0)

    def fire(index: int, _info: dict) -> None:
        if events is not None and index == remove_at:
            _settle_window(pipeline)
            events.remove_machines(1)

    inner_execute = cost_model_executor(time_scale=time_scale)
    fingerprints: List = []
    comm_bytes: List[int] = []
    sources: Dict[str, int] = {}
    needing = missing = 0

    def execute(local_data, plan):
        nonlocal needing, missing
        fingerprints.append(plan_fingerprint(plan))
        nbytes = plan.total_comm_bytes()
        comm_bytes.append(nbytes)
        source = plan.meta["placement"][2]
        sources[source] = sources.get(source, 0) + 1
        if needs_comm(plan):
            needing += 1
            missing += nbytes <= 0
        return inner_execute(local_data, plan)

    runner = PipelineRunner(
        pipeline,
        execute=execute,
        on_iteration=fire if events is not None else None,
    )
    stats = runner.run().stats

    balance = packing_stats(
        [[seq.seqlen for seq in spec.sequences] for spec in specs]
    )
    row = {
        "scenario": f"{family}/{packer_name}/{stream}",
        "mask_family": family,
        "packer": packer_name,
        "stream": stream,
        "buffer": MATRIX_BUFFER,
        "iterations": stats.iterations,
        "hidden_fraction": round(stats.hidden_fraction, 4),
        "steady_hidden_fraction": round(stats.steady_hidden_fraction, 4),
        "mean_plan_s": round(stats.total_plan_s / max(stats.iterations, 1), 4),
        "mean_exec_s": round(stats.total_exec_s / max(stats.iterations, 1), 4),
        "comm_bytes_mean": int(
            sum(comm_bytes) / max(len(comm_bytes), 1)
        ),
        "comm_bytes_total": int(sum(comm_bytes)),
        "placement_sources": dict(sorted(sources.items())),
        "plans_needing_comm": needing,
        "plans_missing_comm": missing,
        "replans": stats.replans,
        "replan_jobs_reused": stats.replan_jobs_reused,
        "replan_plan_s": round(stats.replan_plan_s, 4),
        "workload_imbalance": round(balance["workload_imbalance"], 4),
        "wall_s": round(stats.wall_s, 3),
    }
    if stream == "fixed":
        row["fingerprints_identical"] = bool(
            fingerprints and fingerprints == sync_prints
        )
    else:
        row["remove_machine_at"] = remove_at
    print(
        f"{row['scenario']:<42} hidden={row['hidden_fraction']:.3f} "
        f"steady={row['steady_hidden_fraction']:.3f} "
        f"comm={row['comm_bytes_mean']} replans={row['replans']} "
        f"imb={row['workload_imbalance']:.3f} wall={row['wall_s']:.1f}s"
    )
    return row


# ---------------------------------------------------------------------------
# Grids.
# ---------------------------------------------------------------------------


def run_matrix(
    token_budget: int = 8192,
    block_size: int = 256,
    num_batches: int = 8,
    kappa: int = 2,
    workers: int = 4,
    time_scale: float = 1.0,
    families: Sequence[str] = MASK_FAMILIES,
    packers: Sequence[str] = PACKER_NAMES,
    event_cells: Optional[Iterable] = None,
) -> Dict:
    """Measure the scenario grid.

    ``event_cells`` restricts which (family, packer) pairs also run the
    ``events`` stream type (``None``: all of them — the full 30-cell
    grid).
    """
    from repro.bench import BenchScale

    scale = BenchScale.sweep(
        num_batches=num_batches,
        token_budget=int(token_budget),
        max_seqlen=int(token_budget),
        block_size=int(block_size),
    )
    event_pairs = (
        {(f, p) for f, p in event_cells}
        if event_cells is not None
        else {(f, p) for f in families for p in packers}
    )

    rows: List[Dict] = []
    for family in families:
        for packer_name in packers:
            specs = scenario_specs(family, scale, packer_name, num_batches)
            rows.append(
                _measure_cell(
                    scale, specs, family, packer_name, "fixed",
                    kappa, workers, time_scale,
                )
            )
            if (family, packer_name) in event_pairs:
                rows.append(
                    _measure_cell(
                        scale, specs, family, packer_name, "events",
                        kappa, workers, time_scale,
                    )
                )

    return {
        "benchmark": "scenario_matrix",
        "config": {
            "token_budget": int(token_budget),
            "block_size": int(block_size),
            "cluster": "2x4 (sweep)",
            "num_batches": num_batches,
            "kappa": kappa,
            "workers": workers,
            "time_scale": time_scale,
            "buffer": MATRIX_BUFFER,
            "mask_families": list(families),
            "packers": list(packers),
        },
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke_hidden_floor": DEFAULT_SMOKE_HIDDEN_FLOOR,
        "min_cells": 12,
        "rows": rows,
    }


def run_smoke() -> Dict:
    """Reduced grid for CI: every family x packer fixed cell (15) plus
    one events cell per packer on the causal family (3) — 18 cells."""
    report = run_matrix(
        token_budget=2048,
        block_size=256,
        num_batches=5,
        kappa=2,
        workers=2,
        time_scale=SMOKE_TIME_SCALE,
        event_cells=[("causal", packer) for packer in PACKER_NAMES],
    )
    report["benchmark"] = "scenario_matrix_smoke"
    return report


# ---------------------------------------------------------------------------
# Gating.
# ---------------------------------------------------------------------------


def _tracked_floor(key: str, default):
    try:
        with open(OUTPUT_PATH) as handle:
            return json.load(handle)[key]
    except (OSError, KeyError, ValueError):
        return default


def needs_comm(plan) -> bool:
    """Whether some computation block of ``plan`` runs on another device
    than its query or key/value slice, so the plan cannot run without
    moving data.  Read from the placement labels
    (``plan.meta["placement"]``), not from the sends, so it holds
    whichever placement won: DP packing, or an owner projection of
    sequences that fit one block, need none."""
    slice_device, comp_device = plan.meta["placement"][:2]
    block_set = plan.block_set
    comp = block_set.comp_array
    q_device = slice_device[
        block_set.slice_indices(comp.seq_index, comp.q_block)
    ]
    kv_device = slice_device[
        block_set.slice_indices(comp.seq_index, comp.kv_block)
    ]
    return bool(((q_device != comp_device) | (kv_device != comp_device)).any())


def missing_comm(row: Dict) -> bool:
    """Some plan of the cell needs data moved (:func:`needs_comm`) yet
    sent none.  A row without the count fails too."""
    return int(row.get("plans_missing_comm", 1)) > 0


def gate_failures(report: Dict, hidden_floor: float,
                  min_cells: int) -> List[str]:
    """Floor violations of a scenario report (empty list = pass)."""
    failures: List[str] = []
    rows = report.get("rows", [])
    if len(rows) < min_cells:
        failures.append(
            f"matrix has {len(rows)} cells, fewer than the required "
            f"{min_cells}"
        )
    covered = {(r["mask_family"], r["packer"]) for r in rows}
    for family in report["config"]["mask_families"]:
        for packer_name in report["config"]["packers"]:
            if (family, packer_name) not in covered:
                failures.append(
                    f"cell {family}/{packer_name} missing from the matrix"
                )
    for row in rows:
        name = row["scenario"]
        if row["steady_hidden_fraction"] < hidden_floor:
            failures.append(
                f"{name}: steady hidden fraction "
                f"{row['steady_hidden_fraction']:.3f} below the floor "
                f"{hidden_floor:.3f}"
            )
        if missing_comm(row):
            failures.append(
                f"{name}: {row.get('plans_missing_comm')} plans that place "
                f"a block away from its slices moved no data"
            )
        if row["stream"] == "fixed" and not row.get("fingerprints_identical"):
            failures.append(
                f"{name}: plans are not fingerprint-identical to "
                f"synchronous planning"
            )
        if row["stream"] == "events" and row["replans"] < 1:
            failures.append(f"{name}: event cell observed no re-plans")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced grid; exits 1 on any floor violation against the "
        "tracked BENCH_scenarios.json",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report (default: repo root; smoke "
        "runs default to a scratch file)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_smoke()
        output = args.output or SMOKE_OUTPUT_PATH
    else:
        report = run_matrix()
        output = args.output or OUTPUT_PATH

    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    hidden_floor = float(
        _tracked_floor("smoke_hidden_floor", DEFAULT_SMOKE_HIDDEN_FLOOR)
    )
    min_cells = int(_tracked_floor("min_cells", 12))
    failures = gate_failures(report, hidden_floor, min_cells)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    fixed = [r for r in report["rows"] if r["stream"] == "fixed"]
    events = [r for r in report["rows"] if r["stream"] == "events"]
    print(
        f"ok: {len(report['rows'])} cells "
        f"({len(fixed)} fixed, {len(events)} events), "
        f"steady hidden min "
        f"{min(r['steady_hidden_fraction'] for r in report['rows']):.3f} "
        f">= floor {hidden_floor:.3f}, all fixed cells "
        f"fingerprint-identical, all event cells re-planned"
    )
    return 0


def test_scenarios_smoke():
    """Pytest entry point: a slice of the matrix must clear the floors.

    One data-dependent mask family and one event cell keep the tier-1
    runtime bounded; the full smoke grid runs in ``run_tier1.sh``/CI.
    """
    report = run_matrix(
        token_budget=2048,
        block_size=256,
        num_batches=4,
        kappa=2,
        workers=2,
        time_scale=SMOKE_TIME_SCALE,
        families=("shared_question",),
        packers=("workload_balanced",),
    )
    failures = gate_failures(report, DEFAULT_SMOKE_HIDDEN_FLOOR, 2)
    assert not failures, failures


if __name__ == "__main__":
    raise SystemExit(main())
