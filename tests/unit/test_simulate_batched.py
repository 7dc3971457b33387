"""Batch submission: ``SimulatedCluster.run_batch`` and ``run_many``.

A batch is a list of `RunRequest`s; each entry must come back, in
request order, exactly equal to the standalone `run` call with the same
knobs (named stream, DVFS throttle point, trace collection, the
cluster's fault model). Replication means must also land where the
M/G/1 closed forms and the roofline limits say they should.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.roofline import place_workload
from repro.machines.spec import Configuration
from repro.simulate import RunRequest
from repro.simulate.faults import FaultModel
from repro.workloads.registry import get_program
from tests.conftest import config


class TestExecuteBatch:
    def test_results_come_back_in_request_order(self, xeon_sim, arm_sim):
        """Interleaved programs and shapes come back in their request
        slots."""
        sp, lu = get_program("SP"), get_program("LU")
        requests = [
            RunRequest(sp, config(2, 4, 1.8), run_index=0),
            RunRequest(lu, config(1, 2, 1.5), run_index=0),
            RunRequest(sp, config(2, 4, 1.8), run_index=1),
            RunRequest(sp, config(4, 8, 1.2), run_index=0),
            RunRequest(lu, config(1, 2, 1.5), run_index=1),
        ]
        results = xeon_sim.run_batch(requests)
        assert len(results) == len(requests)
        for req, res in zip(requests, results):
            assert res.program == req.program.name
            assert res.config == req.config
            assert res == xeon_sim.run(
                req.program, req.config, run_index=req.run_index
            )

    def test_single_lane_batch_matches_run(self, arm_sim):
        cp = get_program("CP")
        cfg = config(2, 4, 1.4)
        [only] = arm_sim.run_batch([RunRequest(cp, cfg, run_index=2)])
        assert only == arm_sim.run(cp, cfg, run_index=2)

    def test_lanes_may_mix_faults_and_dvfs(self, xeon_sim):
        """A batch on a faulty cluster may mix throttled and unthrottled
        requests; each must equal the standalone run with the same knobs."""
        sp = get_program("SP")
        cfg = config(2, 2, 1.8)
        fault = FaultModel(straggler_node=0, straggler_factor=1.5)
        faulty_sim = dataclasses.replace(xeon_sim, faults=fault)
        requests = [
            RunRequest(sp, cfg),
            RunRequest(sp, cfg, stall_frequency_hz=1.2e9),
        ]
        faulty, faulty_throttled = faulty_sim.run_batch(requests)
        _, throttled = xeon_sim.run_batch(requests)
        assert faulty == faulty_sim.run(sp, cfg)
        assert faulty_throttled == faulty_sim.run(sp, cfg, stall_frequency_hz=1.2e9)
        assert throttled == xeon_sim.run(sp, cfg, stall_frequency_hz=1.2e9)
        # the knobs actually differ: a straggler and a throttle are not
        # the same run
        assert faulty.wall_time_s != throttled.wall_time_s
        assert faulty_throttled.wall_time_s != throttled.wall_time_s

    def test_collect_trace_per_lane(self, xeon_sim):
        sp = get_program("SP")
        requests = [
            RunRequest(sp, config(2, 2, 1.8), run_index=0, collect_trace=True),
            RunRequest(sp, config(2, 2, 1.8), run_index=1),
        ]
        traced, untraced = xeon_sim.run_batch(requests)
        assert traced.trace is not None
        assert traced.trace.iterations == sp.iterations(sp.reference_class)
        assert untraced.trace is None
        reference = xeon_sim.run(sp, config(2, 2, 1.8), collect_trace=True)
        assert np.array_equal(traced.trace.iteration_s, reference.trace.iteration_s)

    def test_invalid_configuration_rejected_before_any_work(self, xeon_sim):
        sp = get_program("SP")
        bad_freq = RunRequest(sp, config(1, 1, 9.9))
        with pytest.raises(ValueError):
            xeon_sim.run_batch([bad_freq])
        bad_stall = RunRequest(
            sp, config(1, 1, 1.8), stall_frequency_hz=9.9e9
        )
        with pytest.raises(ValueError):
            xeon_sim.run_batch([bad_stall])

    def test_empty_batch(self, xeon_sim):
        assert xeon_sim.run_batch([]) == []


class TestBatchStatisticalValidity:
    """Replication means must land where the closed forms say they should."""

    def test_batch_means_track_mg1_model(self, xeon_sim, xeon_sp_model):
        """The analytical model (M/G/1 network wait, Pollaczek-Khinchine
        via ``repro.mg1``) was calibrated against the simulator; batch
        replication means must stay within validation-level tolerance of
        its prediction."""
        cfg = config(4, 8, 1.8)
        runs = xeon_sim.run_batch(
            [
                RunRequest(get_program("SP"), cfg, run_index=i)
                for i in range(4)
            ]
        )
        pred = xeon_sp_model.predict(cfg)
        assert not pred.time.saturated  # rho < 1: the closed form is live
        t_mean = float(np.mean([r.wall_time_s for r in runs]))
        e_mean = float(np.mean([r.energy.total_j for r in runs]))
        assert t_mean == pytest.approx(pred.time_s, rel=0.40)
        assert e_mean == pytest.approx(pred.energy_j, rel=0.40)

    def test_batch_means_respect_roofline_limits(self, xeon_sim):
        """No batch mean may beat the machine's first-principles bounds:
        single-node time/energy floors from the roofline module."""
        sp = get_program("SP")
        placement = place_workload(xeon_sim.spec, sp)
        cfg = Configuration(
            nodes=1,
            cores=xeon_sim.spec.node.max_cores,
            frequency_hz=xeon_sim.spec.node.core.fmax,
        )
        runs = xeon_sim.run_many(sp, cfg, repetitions=4)
        t_mean = float(np.mean([r.wall_time_s for r in runs]))
        e_mean = float(np.mean([r.energy.total_j for r in runs]))
        assert t_mean >= placement.min_time_s
        assert e_mean >= placement.min_energy_j
