"""Property suite: streamed == materialized == sharded, always.

The planner's hard contract (docs/PLANNER.md): block-streamed execution
returns results bit-identical to the materialized broadcast engine for
any machine/workload/grid/budget tuple — including degenerate grids —
and so does the sharded engine.  The scalar reference loop
(``model.predict`` per configuration) agrees to the repo-wide 1e-9
relative tolerance.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import planner
from repro.core.cache import ARRAY_FIELDS
from repro.core.configspace import ConfigSpace
from repro.core.parallel import _run_sharded
from repro.core.planner import WORKING_BYTES_PER_CONFIG, evaluate_space_streamed
from repro.core.vectorized import _compute
from tests.unit.test_core_vectorized import random_models, spaces_for

RTOL = 1e-9

_suppress = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]

#: A fixed grid for the degenerate-budget cases.
_SPACE = ConfigSpace(
    node_counts=(1, 2, 3, 5, 8, 13),
    core_counts=(1, 2, 8),
    frequencies_hz=(1.2e9, 1.8e9, 2.4e9),
)

#: Block budgets spanning one-config blocks to whole-space blocks.
_budgets = st.integers(min_value=1, max_value=40).map(
    lambda blocks: blocks * WORKING_BYTES_PER_CONFIG + 1
)


def _assert_bit_identical(a, b):
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(
            np.asarray(getattr(a, name)),
            np.asarray(getattr(b, name)),
            err_msg=name,
        )


# ----------------------------------------------------------------------
# streamed == materialized, random machines/workloads/grids/budgets
# ----------------------------------------------------------------------


@given(data=st.data())
@settings(deadline=None, suppress_health_check=_suppress)
def test_streamed_matches_materialized_bit_for_bit(data):
    model = data.draw(random_models())
    space = data.draw(spaces_for(model))
    budget = data.draw(_budgets)
    full = _compute(model, space, None, "bracketed", True, instrument=False)
    streamed = evaluate_space_streamed(model, space, max_block_bytes=budget)
    _assert_bit_identical(full, streamed)


@given(data=st.data())
@settings(deadline=None, suppress_health_check=_suppress)
def test_sharded_matches_materialized_bit_for_bit(data):
    model = data.draw(random_models())
    space = data.draw(spaces_for(model))
    full = _compute(model, space, None, "bracketed", True, instrument=False)
    sharded = _run_sharded(
        2, model, space, model.inputs.baseline_class, "bracketed", True
    )
    _assert_bit_identical(full, sharded)


@given(data=st.data())
@settings(deadline=None, suppress_health_check=_suppress)
def test_scalar_strategy_matches_vectorized_at_rtol(data):
    model = data.draw(random_models())
    space = data.draw(spaces_for(model))
    full = _compute(model, space, None, "bracketed", True, instrument=False)
    preds = [model.predict(cfg) for cfg in space]
    np.testing.assert_allclose(
        [p.time_s for p in preds], full.times_s, rtol=RTOL
    )
    np.testing.assert_allclose(
        [p.energy_j for p in preds], full.energies_j, rtol=RTOL
    )
    np.testing.assert_allclose([p.ucr for p in preds], full.ucrs, rtol=RTOL)
    np.testing.assert_array_equal(
        [p.time.saturated for p in preds], full.saturated
    )


# ----------------------------------------------------------------------
# degenerate grids and budgets
# ----------------------------------------------------------------------


def test_single_config_grid_streams_exactly(xeon_sp_model):
    grid = ConfigSpace(
        node_counts=(1,), core_counts=(8,), frequencies_hz=(1.8e9,)
    )
    full = _compute(xeon_sp_model, grid, None, "bracketed", True, False)
    streamed = evaluate_space_streamed(xeon_sp_model, grid, max_block_bytes=1)
    _assert_bit_identical(full, streamed)
    assert [length for _, length, _ in planner.iter_block_spaces(grid, 1)] == [1]


def test_block_size_larger_than_grid_is_one_block(xeon_sp_model):
    full = _compute(xeon_sp_model, _SPACE, None, "bracketed", True, False)
    streamed = evaluate_space_streamed(
        xeon_sp_model, _SPACE, max_block_bytes=10**12
    )
    _assert_bit_identical(full, streamed)
    blocks = list(planner.iter_block_spaces(_SPACE, 10**12))
    assert len(blocks) == 1


def test_empty_explicit_sequence(xeon_sp_model):
    streamed = evaluate_space_streamed(xeon_sp_model, (), max_block_bytes=1)
    assert len(streamed) == 0
    assert list(planner.iter_block_spaces((), 1)) == [(0, 0, ())]
