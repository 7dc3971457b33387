"""The paper's contribution: measurement-driven time-energy modeling.

Public surface:

* :func:`characterize` / :class:`ModelInputs` — run the measurement
  campaigns (baseline counters, mpiP, NetPIPE, power micro-benchmarks)
  and assemble the model inputs (paper §III-E).
* :class:`HybridProgramModel` — predict execution time, energy and UCR for
  any (n, c, f) configuration (paper §III-C/D, Eqs. 1-13).
* :class:`ConfigSpace` / :func:`evaluate_space` — enumerate and evaluate
  configuration spaces.
* :func:`pareto_frontier` and the optimizer queries — time-energy
  Pareto-optimal configurations under deadlines and energy budgets
  (paper §V-A).
* :mod:`repro.core.ucr` — the Useful Computation Ratio metric and its
  decomposition (paper §V-B, Eqs. 13-14).
* :mod:`repro.core.whatif` — resource-scaling what-if analysis (e.g. the
  paper's memory-bandwidth-doubling study).
"""

from repro.core.params import BaselineArtefacts, CommCharacteristics, ModelInputs
from repro.core.inputs import characterize, fit_comm_model
from repro.core.time_model import TimeBreakdown, predict_time
from repro.core.energy_model import EnergyBreakdown, predict_energy
from repro.core.model import HybridProgramModel, Prediction
from repro.core.configspace import ConfigSpace, SpaceEvaluation, evaluate_space
from repro.core.vectorized import (
    CacheInfo,
    VectorizedEvaluation,
    clear_evaluation_cache,
    evaluate_configs,
    evaluation_cache_info,
)
from repro.core.pareto import ParetoPoint, pareto_frontier
from repro.core.optimizer import (
    min_energy_within_deadline,
    min_time_within_budget,
)
from repro.core.ucr import (
    UCRSpaceDecomposition,
    ucr_decomposition,
    ucr_decomposition_space,
)
from repro.core.whatif import SpaceDelta, WhatIf
from repro.core.dvfs import (
    DvfsAdvice,
    advise_stall_dvfs,
    decompose_stalls,
    predict_with_stall_dvfs,
)
from repro.core.roofline import (
    Roofline,
    node_energy_roofline,
    node_roofline,
    place_workload,
)
from repro.core.scaling import (
    ScalingPoint,
    energy_optimal_parallelism,
    fit_amdahl,
    karp_flatt,
    strong_scaling,
    weak_scaling,
)
from repro.core.search import (
    SearchStats,
    search_min_energy_within_deadline,
    search_min_time_within_budget,
)
from repro.core.calibrate import CalibratedModel, TermCorrections, calibrate
from repro.core.metrics import edp, ed2p, edp_optimal, throughput_per_watt
from repro.core.batch import BatchPlan, Job, PlacedJob, plan_batch
from repro.core.cache import ResultCache
from repro.context import ExecutionContext, use

__all__ = [
    "BaselineArtefacts",
    "CommCharacteristics",
    "ModelInputs",
    "characterize",
    "fit_comm_model",
    "TimeBreakdown",
    "predict_time",
    "EnergyBreakdown",
    "predict_energy",
    "HybridProgramModel",
    "Prediction",
    "ConfigSpace",
    "SpaceEvaluation",
    "evaluate_space",
    "CacheInfo",
    "VectorizedEvaluation",
    "evaluate_configs",
    "evaluation_cache_info",
    "clear_evaluation_cache",
    "ParetoPoint",
    "pareto_frontier",
    "min_energy_within_deadline",
    "min_time_within_budget",
    "ucr_decomposition",
    "ucr_decomposition_space",
    "UCRSpaceDecomposition",
    "SpaceDelta",
    "WhatIf",
    "DvfsAdvice",
    "advise_stall_dvfs",
    "decompose_stalls",
    "predict_with_stall_dvfs",
    "Roofline",
    "node_roofline",
    "node_energy_roofline",
    "place_workload",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "fit_amdahl",
    "karp_flatt",
    "energy_optimal_parallelism",
    "SearchStats",
    "search_min_energy_within_deadline",
    "search_min_time_within_budget",
    "CalibratedModel",
    "TermCorrections",
    "calibrate",
    "edp",
    "ed2p",
    "edp_optimal",
    "throughput_per_watt",
    "Job",
    "PlacedJob",
    "BatchPlan",
    "plan_batch",
    "ResultCache",
    "ExecutionContext",
    "use",
]
