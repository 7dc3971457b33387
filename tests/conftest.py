"""Shared fixtures: simulated clusters and characterized models.

Characterization is the expensive step (a full single-node (c, f) sweep),
so models are cached per (cluster, program) at session scope.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.model import HybridProgramModel
from repro.machines.arm import arm_cluster
from repro.machines.spec import Configuration
from repro.machines.xeon import xeon_cluster
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.registry import get_program

# Hypothesis budget profiles, selected via REPRO_HYPOTHESIS_PROFILE.
# "smoke" keeps CI's tier-1 job deadline-safe (model characterization
# makes per-example wall time vary too much for hypothesis deadlines);
# "deep" is the nightly exhaustive sweep.  Tests that carry an explicit
# @settings(...) keep their own values — profiles only fill the gaps.
settings.register_profile("smoke", max_examples=15, deadline=None)
settings.register_profile("deep", max_examples=250, deadline=None)
settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def ambient_chaos():
    """Run the whole suite under a chaos schedule when REPRO_CHAOS is set.

    CI's chaos job points REPRO_CHAOS at a pinned drop/delay-only schedule
    (no corruption) with generous retries (REPRO_CHAOS_RETRIES, default 8):
    every sample eventually succeeds with its original value, so the suite
    must pass unchanged while the retry machinery is exercised end to end.
    """
    schedule_path = os.environ.get("REPRO_CHAOS")
    if not schedule_path:
        yield None
        return
    from repro import resilience
    from repro.context import use

    policy = resilience.RetryPolicy(
        max_retries=int(os.environ.get("REPRO_CHAOS_RETRIES", "8"))
    )
    chaos = resilience.ChaosSchedule.load(schedule_path)
    with use(resilience=resilience.ResilienceContext(policy, chaos)) as context:
        yield context.resilience


@pytest.fixture(scope="session")
def xeon_sim() -> SimulatedCluster:
    """Simulated 8-node Xeon cluster."""
    return SimulatedCluster(xeon_cluster())


@pytest.fixture(scope="session")
def arm_sim() -> SimulatedCluster:
    """Simulated 8-node ARM cluster."""
    return SimulatedCluster(arm_cluster())


@pytest.fixture(scope="session")
def model_cache():
    """Session cache of characterized models keyed by (cluster, program)."""
    cache: dict[tuple[str, str], HybridProgramModel] = {}

    def get(sim: SimulatedCluster, program_name: str) -> HybridProgramModel:
        key = (sim.spec.name, program_name)
        if key not in cache:
            cache[key] = HybridProgramModel.from_measurements(
                sim, get_program(program_name)
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def xeon_sp_model(xeon_sim, model_cache) -> HybridProgramModel:
    """Characterized SP-on-Xeon model (the paper's flagship example)."""
    return model_cache(xeon_sim, "SP")


@pytest.fixture(scope="session")
def arm_cp_model(arm_sim, model_cache) -> HybridProgramModel:
    """Characterized CP-on-ARM model (Fig. 9's subject)."""
    return model_cache(arm_sim, "CP")


def config(n: int, c: int, f_ghz: float) -> Configuration:
    """Terse configuration constructor for tests."""
    return Configuration(nodes=n, cores=c, frequency_hz=f_ghz * 1e9)
