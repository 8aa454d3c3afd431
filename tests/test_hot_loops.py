"""Algorithm 3.2 and the stride-MLP window scan against frozen oracles.

:func:`branch_resolution_time` stops at the steady-state ROB occupancy
and :func:`stride_mlp` buckets the virtual stream by window in one
pass.  Both must return exactly what the per-cycle / per-window loops
in ``reference_loops.py`` return: hypothesis drives random chain
profiles (non-monotone CP included), latencies, intervals, ROB sizes,
dispatch widths and virtual streams through both and compares with
``==``, and a whole-suite sweep must produce the same run documents
with the oracles patched into the model.
"""

from hypothesis import given, settings, strategies as st

from reference_loops import branch_resolution_time_stepwise, stride_mlp_scan
from repro.api import Session
from repro.core import batch, interval
from repro.core.branch import branch_resolution_time
from repro.core.machine import MachineConfig
from repro.core.mlp import VirtualLoad, VirtualStream, stride_mlp
from repro.explore.space import DesignSpace, Parameter
from repro.profiler.dependences import ChainProfile, DependenceChains
from repro.workloads.suite import workload_names

ROB_SIZES = (1, 8, 16, 32, 64, 128, 256, 512)

#: Long enough for every drawn orbit to reach its steady state (the
#: settling phase consumes a few dozen ROBs at most), short enough for
#: the per-cycle oracle to run in a fraction of a second.
STEADY_INTERVAL = float(1 << 16)

_chain_profiles = st.dictionaries(
    st.sampled_from((1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256,
                     384, 512)),
    st.floats(0.0, 64.0),
    max_size=6,
).map(lambda values: ChainProfile(values=values))


@st.composite
def chains(draw):
    """Independent AP/ABP/CP draws: CP is free to be non-monotone."""
    return DependenceChains(ap=draw(_chain_profiles),
                            abp=draw(_chain_profiles),
                            cp=draw(_chain_profiles))


latencies = st.one_of(st.sampled_from((1.0, 1.5, 3.0)),
                      st.floats(0.1, 20.0))
cores = st.builds(MachineConfig,
                  dispatch_width=st.integers(1, 8),
                  rob_size=st.sampled_from(ROB_SIZES))


@st.composite
def intervals(draw, config):
    """0, at most one dispatch group, or a mid-range interval."""
    width = float(config.dispatch_width)
    return draw(st.one_of(st.just(0.0), st.floats(0.0, width),
                          st.floats(width, 20_000.0)))


class TestBranchResolutionOracle:
    @given(chains=chains(), latency=latencies, config=cores,
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cycle_loop(self, chains, latency, config, data):
        interval_uops = data.draw(intervals(config))
        assert branch_resolution_time(
            chains, latency, interval_uops, config
        ) == branch_resolution_time_stepwise(
            chains, latency, interval_uops, config
        )

    @given(chains=chains(), latency=latencies, config=cores)
    @settings(max_examples=15, deadline=None)
    def test_huge_interval_returns_the_steady_state(self, chains, latency,
                                                    config):
        steady = branch_resolution_time_stepwise(
            chains, latency, STEADY_INTERVAL, config
        )
        assert branch_resolution_time(
            chains, latency, STEADY_INTERVAL, config
        ) == steady
        assert branch_resolution_time(chains, latency, 1e7, config) == steady


@st.composite
def streams(draw):
    """A virtual stream whose loads may sit in the partial last window,
    past ``length``, or past the last window's end (excluded)."""
    length = draw(st.integers(0, 1500))
    loads = draw(st.lists(
        st.builds(
            VirtualLoad,
            position=st.integers(-4, length + 600),
            pc=st.integers(0, 6),
            miss_weight=st.one_of(st.sampled_from((0.0, 1.0)),
                                  st.floats(0.0, 1.0)),
            independence=st.floats(0.0, 1.0),
        ),
        max_size=120,
    ))
    if draw(st.booleans()):
        loads.sort(key=lambda load: load.position)
    return VirtualStream(loads=loads, length=length)


mlp_cores = st.builds(MachineConfig,
                      rob_size=st.sampled_from(ROB_SIZES),
                      mshr_entries=st.sampled_from((1, 4, 10, 64)))


class TestStrideMLPOracle:
    @given(stream=streams(), config=mlp_cores,
           deff=st.floats(0.0, 8.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_window_scan(self, stream, config, deff):
        assert stride_mlp(stream, {}, config, deff=deff) == stride_mlp_scan(
            stream, {}, config, deff=deff
        )


def test_suite_sweep_matches_oracles(monkeypatch, tmp_path):
    """Every suite workload sweeps to the same run document either way."""
    space = DesignSpace([
        Parameter.categorical("dispatch_width", (1, 2, 4, 6)),
        Parameter.categorical("rob_size", (16, 64, 256)),
        Parameter.categorical("llc_mb", (1, 8)),
    ], name="hot-loops")
    space.save(str(tmp_path / "space.json"))
    spec = {"kind": "sweep", "params": {
        "workloads": workload_names(), "instructions": 3000,
        "micro_trace": 500, "window": 1000,
        "space": str(tmp_path / "space.json"), "objective": "edp",
    }}

    def sweep():
        with Session(workers=1) as session:
            return session.run(spec).to_dict(include_telemetry=False)

    fast = sweep()
    for module in (interval, batch):
        monkeypatch.setattr(module, "branch_resolution_time",
                            branch_resolution_time_stepwise)
        monkeypatch.setattr(module, "stride_mlp", stride_mlp_scan)
    assert sweep() == fast
