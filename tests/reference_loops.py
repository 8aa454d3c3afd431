"""Frozen per-cycle / per-window references for the model's hot loops.

These are copies, code unchanged, of the straightforward loops that
:func:`repro.core.branch.branch_resolution_time` (Algorithm 3.2, one
ROB cycle per iteration) and :func:`repro.core.mlp.stride_mlp` (a full
scan of the virtual stream for every ROB window) were first written
as.  The library versions stop Algorithm 3.2 at its steady state and
bucket the stream by window in one pass; the tests compare them
against these references with ``==``.  They are test oracles only:
nothing under ``src/`` imports them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.machine import MachineConfig
from repro.core.mlp import MLPResult, VirtualStream
from repro.profiler.dependences import DependenceChains


def _independent_instructions(
    chains: DependenceChains, rob_occupancy: float, average_latency: float
) -> float:
    """I(ROB) = ROB / (lat * CP(ROB)) (thesis Eq 3.6)."""
    occupancy = max(rob_occupancy, 1.0)
    cp = max(chains.cp.at(int(occupancy)), 1.0)
    return occupancy / (average_latency * cp)


def branch_resolution_time_stepwise(
    chains: DependenceChains,
    average_latency: float,
    instructions_per_interval: float,
    config: MachineConfig,
) -> float:
    """Algorithm 3.2 stepped one ROB cycle at a time until exit."""
    dispatch_width = float(config.dispatch_width)
    rob_size = float(config.rob_size)
    remaining = max(instructions_per_interval, 0.0)
    occupancy = 0.0

    max_iterations = int(remaining / max(1.0, 1.0)) + config.rob_size + 16
    iterations = 0
    while remaining > dispatch_width and iterations < max_iterations:
        iterations += 1
        if occupancy + dispatch_width <= rob_size:
            remaining -= dispatch_width
            occupancy += dispatch_width
        else:
            entered = rob_size - occupancy
            remaining -= entered
            occupancy = rob_size
        leave = min(
            _independent_instructions(chains, occupancy, average_latency),
            dispatch_width,
        )
        leave = max(leave, 1.0)  # guard against stagnation
        occupancy = max(0.0, occupancy - leave)

    abp = max(chains.abp.at(max(int(occupancy), 1)), 1.0)
    return average_latency * abp


def stride_mlp_scan(
    stream: VirtualStream,
    load_dependence: Mapping[int, float],
    config: MachineConfig,
    deff: float = 4.0,
) -> MLPResult:
    """Stride MLP with the whole stream rescanned for every ROB window."""
    rob = config.rob_size
    memory_latency = float(config.llc.latency + config.dram_latency)
    window_misses: List[float] = []
    window_independent: List[float] = []
    if stream.length == 0:
        return MLPResult(mlp=1.0, llc_misses=0.0)

    total_raw = sum(
        load.miss_weight * load.independence for load in stream.loads
    )
    density = total_raw / stream.length  # independent misses per uop
    pipeline_global = 0.0
    if density > 0.0:
        pipeline_global = min(
            memory_latency * density * max(deff, 1e-6),
            rob * density,
            float(max(config.mshr_entries, 1)),
        )

    for start in range(0, stream.length, rob):
        end = start + rob
        weight = 0.0
        per_pc_weight: Dict[int, float] = {}
        per_pc_independence: Dict[int, float] = {}
        for load in stream.loads:
            if start <= load.position < end and load.miss_weight > 0.0:
                weight += load.miss_weight
                per_pc_weight[load.pc] = (
                    per_pc_weight.get(load.pc, 0.0) + load.miss_weight
                )
                per_pc_independence[load.pc] = load.independence
        if weight > 0.0:
            independent = 0.0
            raw_independent = 0.0  # chain-free miss mass only
            for pc, m_pc in per_pc_weight.items():
                head = min(m_pc, 1.0)
                tail = max(m_pc - 1.0, 0.0)
                chain_independence = per_pc_independence[pc]
                independent += head + tail * chain_independence
                raw_independent += m_pc * chain_independence
            independent = max(independent, 1.0)
            window_misses.append(weight)
            window_independent.append(
                max(independent, pipeline_global, 1.0)
            )

    if not window_misses:
        return MLPResult(mlp=1.0, llc_misses=stream.total_miss_weight)

    mlp = sum(window_independent) / len(window_independent)
    return MLPResult(
        mlp=mlp,
        llc_misses=stream.total_miss_weight,
        window_misses=window_misses,
    ).clamped()
