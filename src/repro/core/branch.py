"""Branch misprediction penalty (thesis §3.5, Algorithm 3.2).

The penalty of one misprediction is the branch *resolution time* plus the
fixed front-end refill.  The resolution time depends on how full the ROB
is when the mispredicted branch dispatches, which the 'leaky bucket'
algorithm of Michaud et al. estimates: instructions enter at the dispatch
width and leave at the independent-instruction rate I(ROB) until the
interval's useful instructions are exhausted; the branch then resolves
after ``lat * ABP(ROB_occupancy)`` cycles.
"""

from __future__ import annotations

from typing import Dict

from repro.core.machine import MachineConfig
from repro.profiler.dependences import DependenceChains


def branch_resolution_time(
    chains: DependenceChains,
    average_latency: float,
    instructions_per_interval: float,
    config: MachineConfig,
) -> float:
    """Algorithm 3.2: resolution time of a mispredicted branch.

    ``instructions_per_interval`` is the number of (useful) uops between
    two mispredictions.  Returns cycles from dispatch to execution of the
    branch.

    Each iteration is one ROB cycle: up to ``dispatch_width`` uops enter,
    then ``I(ROB) = ROB / (lat * CP(ROB))`` (thesis Eq 3.6, clamped to
    ``[1, dispatch_width]``) leave.  That occupancy update never reads
    the uops still to dispatch, which only decide when the loop stops,
    and the only output is ABP at the occupancy left at exit.  So once a
    cycle leaves the occupancy unchanged, every later cycle would too,
    and the loop stops there with the value it would reach on either exit
    condition.  Orbits that never settle are stepped cycle by cycle up
    to the iteration bound.
    """
    dispatch_width = float(config.dispatch_width)
    rob_size = float(config.rob_size)
    remaining = max(instructions_per_interval, 0.0)
    occupancy = 0.0
    # max(CP(k), 1) per integer occupancy k; ChainProfile.at is not cheap.
    critical_path: Dict[int, float] = {}

    max_iterations = int(remaining) + config.rob_size + 16
    iterations = 0
    while remaining > dispatch_width and iterations < max_iterations:
        iterations += 1
        previous = occupancy
        if occupancy + dispatch_width <= rob_size:
            remaining -= dispatch_width
            occupancy += dispatch_width
        else:
            remaining -= rob_size - occupancy
            occupancy = rob_size
        occupied = max(occupancy, 1.0)
        k = int(occupied)
        cp = critical_path.get(k)
        if cp is None:
            cp = critical_path[k] = max(chains.cp.at(k), 1.0)
        leave = min(occupied / (average_latency * cp), dispatch_width)
        occupancy = max(0.0, occupancy - max(leave, 1.0))
        if occupancy == previous:
            break

    abp = max(chains.abp.at(max(int(occupancy), 1)), 1.0)
    return average_latency * abp


def branch_penalty(
    chains: DependenceChains,
    average_latency: float,
    instructions_per_interval: float,
    config: MachineConfig,
) -> float:
    """Full per-misprediction penalty: resolution + front-end refill."""
    resolution = branch_resolution_time(
        chains, average_latency, instructions_per_interval, config
    )
    return resolution + config.frontend_refill
