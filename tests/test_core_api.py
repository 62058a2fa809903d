"""Tests for the public API: config, planner, dataloader."""

import numpy as np
import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPDataloader,
    DCPPlanner,
    make_mask,
)
from repro.core import LocalData
from repro.placement import PlacementConfig
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs


class TestDCPConfig:
    def test_defaults_match_paper(self):
        config = DCPConfig()
        assert config.num_divisions == 4
        assert config.placement.eps_inter == pytest.approx(0.4)
        assert config.placement.eps_intra == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DCPConfig(block_size=0)
        with pytest.raises(ValueError):
            DCPConfig(num_divisions=0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"eps_inter": -0.1},
            {"eps_intra": -0.1},
            {"restarts": -1},
            {"restarts": 0, "use_warm_starts": False},
        ],
    )
    def test_rejects_nonsense_partitioner_knobs(self, knobs):
        with pytest.raises(ValueError):
            PlacementConfig(**knobs)

    def test_warm_starts_alone_are_a_valid_search(self):
        planner = DCPPlanner(
            ClusterSpec(num_machines=2, devices_per_machine=2),
            AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16),
            DCPConfig(block_size=16, placement=PlacementConfig(restarts=0)),
        )
        batch = BatchSpec.build([64, 32], make_mask("causal"))
        assert planner.plan_batch(batch).num_devices == 4

    def test_lookahead_is_the_pipelines_knob(self):
        """kappa is the pipeline's ``lookahead``; the planner config has
        no dead copy of it."""
        with pytest.raises(TypeError):
            DCPConfig(lookahead=2)

    def test_placement_config_is_the_one_instance(self):
        """The partitioner's knobs live once, in the config's
        ``placement``; ``placement_config()`` hands that instance on."""
        placement = PlacementConfig(eps_inter=0.7, seed=9)
        assert DCPConfig(placement=placement).placement_config() is placement


class TestDCPPlanner:
    def make(self, **cfg):
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        return DCPPlanner(
            cluster, attention, DCPConfig(
                block_size=16, **cfg, placement=PlacementConfig(restarts=1)
            )
        )

    def test_plan_batch_records_stats(self):
        planner = self.make()
        batch = BatchSpec.build([64, 32], make_mask("causal"))
        plan = planner.plan_batch(batch)
        stats = plan.meta["planning_stats"]
        assert stats.total > 0
        assert stats.placement > 0
        assert plan.meta["planner"] == "dcp"
        assert plan.num_devices == 4

    def test_every_token_assigned_once(self):
        planner = self.make()
        batch = BatchSpec.build([64, 48, 16], make_mask("causal"))
        plan = planner.plan_batch(batch)
        seen = {}
        for device_plan in plan.device_plans.values():
            for ts in device_plan.local_slices:
                key = (ts.seq_index, ts.block_index)
                assert key not in seen
                seen[key] = device_plan.device
        total = sum(
            ts.tokens
            for dp in plan.device_plans.values()
            for ts in dp.local_slices
        )
        assert total == batch.total_tokens


class TestDataloader:
    def make_loader(self, lookahead):
        cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
        attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        planner = DCPPlanner(
            cluster, attention, DCPConfig(
                block_size=16, placement=PlacementConfig(restarts=1)
            )
        )
        mask = make_mask("causal")
        batches = [
            BatchSpec.build([48, 32], mask),
            BatchSpec.build([64], mask),
            BatchSpec.build([32, 32, 16], mask),
        ]
        return DCPDataloader(batches, planner, lookahead=lookahead), batches

    @pytest.mark.parametrize("lookahead", [1, 2])
    def test_yields_all_batches(self, lookahead):
        loader, batches = self.make_loader(lookahead)
        seen = list(loader)
        assert len(seen) == len(batches)
        for (local_data, plan), batch in zip(seen, batches):
            tokens = sum(data.tokens for data in local_data.values())
            assert tokens == batch.total_tokens
            assert all(isinstance(d, LocalData) for d in local_data.values())

    def test_plans_are_executable(self):
        loader, _ = self.make_loader(lookahead=1)
        for _, plan in loader:
            executor = SimExecutor(plan)
            inputs = BatchInputs.random(plan.block_set, seed=0)
            executor.load_inputs(inputs)
            executor.run()
            outputs = executor.gather_outputs()
            refs = reference_batch_outputs(plan.block_set, inputs)
            for out, ref in zip(outputs, refs):
                np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)
