"""Simulator throughput: one full simulated run.

The validation harness executes ~900 full runs per campaign, so simulator
throughput is what makes the Table 2 bench take seconds instead of hours.
The unit of campaign work is a full simulated run at the largest
validation configuration (pytest-benchmark timed).
"""

from repro.machines.spec import Configuration
from repro.workloads.registry import get_program


def test_sim_full_run_throughput(benchmark, xeon_sim):
    """One full (8,8,fmax) SP run: the unit of validation-campaign work."""
    program = get_program("SP")
    cfg = Configuration(8, 8, xeon_sim.spec.node.core.fmax)
    counter = iter(range(10**9))

    result = benchmark(
        lambda: xeon_sim.run(program, cfg, run_index=next(counter))
    )
    assert result.wall_time_s > 0
