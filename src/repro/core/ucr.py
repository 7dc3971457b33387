"""Useful Computation Ratio (paper §V-B, Eqs. 13-14).

    UCR = T_useful / T = T_CPU / T                                  (13)
    T   = T_CPU + T_data_dep + T_mem_contention + T_net_contention  (14)

UCR is normalized to [0, 1] (unlike the classic computation-to-
communication ratio), so it is comparable across configurations; its upper
bound for a program is attained at (1, 1, f_min) where contention and
communication vanish.  The decomposition separates:

* ``T_data_dep``       — memory service time that exists even without any
  contention (a program characteristic: the single-thread non-overlapped
  memory time);
* ``T_mem_contention`` — additional memory time caused by the c threads
  sharing the controller (the Eq. 14 intra-node communication cost);
* ``T_net_contention`` — all inter-node communication time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.configspace import ConfigSpace, SpaceEvaluation, evaluate_space
from repro.core.model import HybridProgramModel, Prediction
from repro.machines.spec import Configuration


@dataclass(frozen=True)
class UCRDecomposition:
    """The Eq. 14 terms for one configuration (seconds)."""

    t_cpu_s: float
    t_data_dep_s: float
    t_mem_contention_s: float
    t_net_contention_s: float

    @property
    def total_s(self) -> float:
        """Execution time ``T`` reassembled from the terms."""
        return (
            self.t_cpu_s
            + self.t_data_dep_s
            + self.t_mem_contention_s
            + self.t_net_contention_s
        )

    @property
    def ucr(self) -> float:
        """UCR (Eq. 13)."""
        return self.t_cpu_s / self.total_s if self.total_s > 0 else 0.0


def ucr_decomposition(
    model: HybridProgramModel,
    prediction: Prediction,
) -> UCRDecomposition:
    """Decompose a prediction's time into the Eq. 14 terms.

    The data-dependency term is estimated from the single-thread baseline
    at the same frequency (no shared-memory contention with c = 1); memory
    time beyond that proportion is attributed to intra-node contention.
    """
    cfg = prediction.config
    single = model.inputs.artefacts(1, cfg.frequency_hz)
    scale = model.program.scale_factor(
        prediction.class_name, model.inputs.baseline_class
    )
    # The single-thread baseline's memory stalls are contention-free: its
    # per-core stall cycles cover the whole problem's traffic.  Divided
    # across n*c cores, they give the per-core memory time a contention-free
    # execution would show — anything the prediction's memory term carries
    # beyond that is intra-node contention.
    t_data_dep = single.mem_stall_cycles * scale / (
        cfg.nodes * cfg.cores * cfg.frequency_hz
    )
    t_data_dep = min(t_data_dep, prediction.time.t_mem_s)
    t_mem_contention = prediction.time.t_mem_s - t_data_dep
    return UCRDecomposition(
        t_cpu_s=prediction.time.t_cpu_s,
        t_data_dep_s=t_data_dep,
        t_mem_contention_s=t_mem_contention,
        t_net_contention_s=prediction.time.t_net_s,
    )


@dataclass(frozen=True)
class UCRSpaceDecomposition:
    """Eq. 14 terms for every configuration of a space, as aligned arrays.

    The vectorized counterpart of :func:`ucr_decomposition`: the Fig. 10/11
    grids decompose in one broadcast pass over the evaluation's arrays.
    """

    evaluation: SpaceEvaluation
    t_cpu_s: np.ndarray
    t_data_dep_s: np.ndarray
    t_mem_contention_s: np.ndarray
    t_net_contention_s: np.ndarray

    @property
    def totals_s(self) -> np.ndarray:
        """Execution times ``T`` reassembled from the terms."""
        return (
            self.t_cpu_s
            + self.t_data_dep_s
            + self.t_mem_contention_s
            + self.t_net_contention_s
        )

    @property
    def ucrs(self) -> np.ndarray:
        """UCR (Eq. 13) per configuration."""
        totals = self.totals_s
        return np.divide(
            self.t_cpu_s, totals, out=np.zeros_like(totals), where=totals > 0
        )

    def __len__(self) -> int:
        return int(self.t_cpu_s.shape[0])

    def point(self, index: int) -> UCRDecomposition:
        """Materialize the scalar-API decomposition for one configuration."""
        return UCRDecomposition(
            t_cpu_s=float(self.t_cpu_s[index]),
            t_data_dep_s=float(self.t_data_dep_s[index]),
            t_mem_contention_s=float(self.t_mem_contention_s[index]),
            t_net_contention_s=float(self.t_net_contention_s[index]),
        )


def ucr_decomposition_space(
    model: HybridProgramModel,
    space: ConfigSpace | Sequence[Configuration],
    class_name: str | None = None,
) -> UCRSpaceDecomposition:
    """Decompose every configuration of a space in one vectorized pass.

    Equivalent to running :func:`ucr_decomposition` over each prediction of
    ``evaluate_space(model, space, class_name)``, but the space evaluation
    comes from the vectorized engine's LRU cache and the single-thread
    data-dependency estimate broadcasts over the whole space at once.
    """
    evaluation = evaluate_space(model, space, class_name)
    vec = evaluation.vectorized
    assert vec is not None  # evaluate_space always routes vectorized
    cls = class_name or model.inputs.baseline_class
    scale = model.program.scale_factor(cls, model.inputs.baseline_class)

    # single-thread contention-free memory stalls at each frequency
    uniq_f, inv_f = np.unique(vec.frequencies_hz, return_inverse=True)
    single_mem = np.array(
        [model.inputs.artefacts(1, float(fv)).mem_stall_cycles for fv in uniq_f]
    )
    t_data_dep = single_mem[inv_f] * scale / (
        vec.nodes * vec.cores * vec.frequencies_hz
    )
    t_data_dep = np.minimum(t_data_dep, vec.t_mem_s)
    return UCRSpaceDecomposition(
        evaluation=evaluation,
        t_cpu_s=vec.t_cpu_s,
        t_data_dep_s=t_data_dep,
        t_mem_contention_s=vec.t_mem_s - t_data_dep,
        t_net_contention_s=vec.t_net_s,
    )


def ucr_upper_bound(
    model: HybridProgramModel, class_name: str | None = None
) -> Prediction:
    """The program's UCR upper bound: the (1, 1, f_min) prediction."""
    fmin = min(k[1] for k in model.inputs.baseline.keys())
    return model.predict(
        Configuration(nodes=1, cores=1, frequency_hz=fmin), class_name
    )
