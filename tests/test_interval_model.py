"""Interval model integration tests (thesis Eq 3.1 evaluation)."""

import pytest

from reference_loops import branch_resolution_time_stepwise
from repro.core import AnalyticalModel, nehalem
from repro.core.interval import (
    DEFAULT_ENTROPY_MODEL,
    IntervalModel,
    STACK_COMPONENTS,
)
from repro.core.branch import branch_resolution_time
from repro.core.machine import MachineConfig
from repro.profiler.dependences import ChainProfile, DependenceChains


class TestPredictionStructure:
    def test_cycles_positive(self, gcc_profile, reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert prediction.cycles > 0

    def test_stack_sums_to_cycles(self, gcc_profile, reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert sum(prediction.stack.values()) == pytest.approx(
            prediction.cycles, rel=1e-6
        )

    def test_stack_components_complete(self, gcc_profile, reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert set(prediction.stack) == set(STACK_COMPONENTS)

    def test_cpi_ipc_reciprocal(self, gcc_profile, reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert prediction.cpi * prediction.ipc == pytest.approx(1.0)

    def test_windows_cover_profile(self, gcc_profile, reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert len(prediction.windows) == len(gcc_profile.micro_traces)

    def test_seconds_scale_with_frequency(self, gcc_profile):
        model = IntervalModel()
        slow = model.predict(gcc_profile, nehalem().with_frequency(1.33))
        fast = model.predict(gcc_profile, nehalem().with_frequency(2.66))
        assert slow.seconds > fast.seconds


class TestModelBehaviour:
    def test_wider_dispatch_not_slower(self, gamess_profile):
        from dataclasses import replace
        model = IntervalModel()
        narrow = model.predict(
            gamess_profile, replace(nehalem(), dispatch_width=2)
        )
        wide = model.predict(
            gamess_profile, replace(nehalem(), dispatch_width=6)
        )
        assert wide.cycles <= narrow.cycles * 1.01

    def test_bigger_llc_not_slower(self, mcf_profile):
        from dataclasses import replace
        from repro.caches.cache import CacheConfig
        model = IntervalModel()
        small = model.predict(
            mcf_profile,
            replace(nehalem(), llc=CacheConfig(1 << 21, 16, 64, latency=30)),
        )
        large = model.predict(
            mcf_profile,
            replace(nehalem(), llc=CacheConfig(1 << 23, 16, 64, latency=30)),
        )
        assert large.cycles <= small.cycles * 1.05

    def test_no_mlp_model_is_slowest(self, libquantum_profile,
                                     reference_config):
        # Thesis Fig 4.3: serializing all misses inflates execution time.
        stride = IntervalModel(mlp_model="stride").predict(
            libquantum_profile, reference_config
        )
        none = IntervalModel(mlp_model="none").predict(
            libquantum_profile, reference_config
        )
        assert none.cycles > stride.cycles

    def test_cold_model_runs(self, libquantum_profile, reference_config):
        prediction = IntervalModel(mlp_model="cold").predict(
            libquantum_profile, reference_config
        )
        assert prediction.cycles > 0

    def test_invalid_mlp_model_rejected(self):
        with pytest.raises(ValueError):
            IntervalModel(mlp_model="quantum")

    def test_mlp_at_least_one(self, libquantum_profile, reference_config):
        prediction = IntervalModel().predict(
            libquantum_profile, reference_config
        )
        assert prediction.mlp >= 1.0

    def test_memory_bound_workload_dram_dominated(self, mcf_profile,
                                                  reference_config):
        prediction = IntervalModel().predict(mcf_profile, reference_config)
        stack = prediction.cpi_stack()
        assert stack["dram"] > stack["base"]

    def test_compute_workload_base_dominated(self, gamess_profile,
                                             reference_config):
        prediction = IntervalModel().predict(gamess_profile,
                                             reference_config)
        stack = prediction.cpi_stack()
        assert stack["base"] > stack["branch"]


class TestBranchResolution:
    def make_chains(self, abp=3.0, cp=8.0):
        chains = DependenceChains()
        grid = tuple(range(16, 257, 16))
        chains.abp = ChainProfile(values={g: abp for g in grid})
        chains.cp = ChainProfile(values={g: cp for g in grid})
        chains.ap = ChainProfile(values={g: 2.0 for g in grid})
        return chains

    def test_resolution_at_least_one_latency(self):
        resolution = branch_resolution_time(
            self.make_chains(), 1.0, 1000.0, MachineConfig()
        )
        assert resolution >= 1.0

    def test_terminates_on_huge_intervals(self):
        chains = self.make_chains()
        resolution = branch_resolution_time(chains, 2.0, 1e7, MachineConfig())
        assert resolution > 0.0
        # 10k uops already reach the steady-state ROB occupancy; the
        # per-cycle loop would step 1e7 uops to land on the same value.
        steady = branch_resolution_time_stepwise(
            chains, 2.0, 1e4, MachineConfig()
        )
        assert branch_resolution_time(
            chains, 2.0, 1e4, MachineConfig()
        ) == steady
        assert resolution == steady

    def test_longer_abp_longer_resolution(self):
        short = branch_resolution_time(
            self.make_chains(abp=2.0), 1.5, 1000.0, MachineConfig()
        )
        long = branch_resolution_time(
            self.make_chains(abp=8.0), 1.5, 1000.0, MachineConfig()
        )
        assert long > short

    def test_default_entropy_model_sane(self):
        assert 0.0 <= DEFAULT_ENTROPY_MODEL.predict(0.5) <= 1.0


class TestAnalyticalModelFacade:
    def test_bundle_fields(self, gcc_profile, reference_config):
        result = AnalyticalModel().predict(gcc_profile, reference_config)
        assert result.cpi > 0
        assert result.power_watts > 0
        assert result.energy_joules > 0
        assert result.edp > 0
        assert result.ed2p > 0

    def test_power_stack_keys(self, gcc_profile, reference_config):
        result = AnalyticalModel().predict(gcc_profile, reference_config)
        stack = result.power_stack()
        assert "llc" in stack and "core_logic" in stack

    def test_activity_scales_with_instructions(self, gcc_profile,
                                               reference_config):
        result = AnalyticalModel().predict(gcc_profile, reference_config)
        assert result.activity.uops == pytest.approx(
            result.performance.uops, rel=0.01
        )
        assert result.activity.l1_accesses > 0


class TestWindowWeighting:
    def test_weights_cover_trace(self, gcc_profile, reference_config):
        model = IntervalModel()
        total = 0.0
        for micro in gcc_profile.micro_traces:
            total += model._window_weight(gcc_profile, micro) * micro.length
        assert total == pytest.approx(gcc_profile.num_instructions,
                                      rel=0.01)

    def test_empty_micro_trace_weight_zero(self, gcc_profile):
        from repro.profiler.profile import MicroTraceProfile
        from repro.profiler.mix import UopMix
        from repro.profiler.dependences import DependenceChains
        from repro.profiler.memory import MicroTraceMemoryProfile
        model = IntervalModel()
        empty = MicroTraceProfile(
            start=0, length=0, mix=UopMix(),
            chains=DependenceChains(),
            memory=MicroTraceMemoryProfile(),
        )
        assert model._window_weight(gcc_profile, empty) == 0.0


class TestComponentToggles:
    def test_all_toggles_off_still_positive(self, gcc_profile,
                                            reference_config):
        model = IntervalModel(
            mlp_model="none",
            enable_llc_chaining=False,
            enable_mshr=False,
            enable_bus=False,
        )
        prediction = model.predict(gcc_profile, reference_config)
        assert prediction.cycles > 0

    def test_bus_toggle_changes_memory_component(self, libquantum_profile,
                                                 reference_config):
        with_bus = IntervalModel(enable_bus=True).predict(
            libquantum_profile, reference_config
        )
        without_bus = IntervalModel(enable_bus=False).predict(
            libquantum_profile, reference_config
        )
        assert with_bus.stack["dram"] >= without_bus.stack["dram"] - 1e-9


class TestPredictionBookkeeping:
    def test_mispredictions_non_negative(self, gcc_profile,
                                         reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert prediction.branch_mispredictions >= 0.0

    def test_llc_misses_accumulated(self, mcf_profile, reference_config):
        prediction = IntervalModel().predict(mcf_profile, reference_config)
        assert prediction.llc_load_misses > 0.0

    def test_workload_and_config_names_carried(self, gcc_profile,
                                               reference_config):
        prediction = IntervalModel().predict(gcc_profile, reference_config)
        assert prediction.workload == "gcc"
        assert prediction.config_name == reference_config.name
