"""Golden chaos campaigns: pinned outputs + interrupt/resume bit-identity.

Three seeded schedules live in ``tests/fixtures/chaos/``:

* ``schedule_a`` — drop-heavy (every instrument loses 30% of attempts);
* ``schedule_b`` — delays on counters plus background drops;
* ``schedule_c`` — corrupting counters (the only schedule whose campaign
  output legitimately differs from a clean run).

With aggressive retries the drop/delay schedules must reproduce the clean
campaign *exactly* (instruments are idempotent), while the corrupting
schedule must reproduce its own pinned outputs exactly — both pinned at
1e-9 in ``tests/fixtures/chaos/expected.json``.

A second family of tests interrupts a checkpointed campaign (by rewriting
the checkpoint with only a prefix of its completed units, as a crash
would leave it) and asserts the resumed run is bit-identical to the
uninterrupted one.

Regenerate the expected file after an intentional model change with::

    PYTHONPATH=src python -m tests.integration.test_chaos_golden
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import resilience
from repro.context import use
from repro.core.configspace import ConfigSpace
from repro.core.model import HybridProgramModel
from repro.machines.arm import arm_cluster
from repro.resilience.pipeline import (
    characterize_resilient,
    evaluate_space_checkpointed,
)
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.registry import get_program

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "chaos"
EXPECTED = FIXTURES / "expected.json"

#: Pinning tolerance for golden outputs.
RTOL = 1e-9

#: The probe configurations whose predictions are pinned per schedule.
PROBES = (
    (4, 4, 1.4e9),
    (2, 2, 0.6e9),
)

SCHEDULES = ("schedule_a", "schedule_b", "schedule_c")


def _campaign(schedule_name: str | None):
    """Characterize CP on ARM under one chaos schedule (or cleanly)."""
    sim = SimulatedCluster(arm_cluster())
    program = get_program("CP")
    if schedule_name is None:
        inputs, report = characterize_resilient(sim, program)
    else:
        chaos = resilience.ChaosSchedule.load(FIXTURES / f"{schedule_name}.json")
        context = resilience.ResilienceContext(
            resilience.RetryPolicy.aggressive(), chaos
        )
        with use(resilience=context):
            inputs, report = characterize_resilient(sim, program)
    model = HybridProgramModel(program=program, inputs=inputs)
    return model, report


def _probe_outputs(model) -> dict[str, dict[str, float]]:
    from repro.machines.spec import Configuration

    out = {}
    for n, c, f in PROBES:
        pred = model.predict(Configuration(nodes=n, cores=c, frequency_hz=f))
        out[f"{n},{c},{f:.0f}"] = {
            "time_s": pred.time_s,
            "energy_j": pred.energy_j,
            "ucr": pred.ucr,
        }
    return out


@pytest.fixture(scope="module")
def expected() -> dict:
    assert EXPECTED.exists(), (
        f"{EXPECTED} missing — regenerate with "
        "`PYTHONPATH=src python -m tests.integration.test_chaos_golden`"
    )
    return json.loads(EXPECTED.read_text())


class TestGoldenSchedules:
    @pytest.mark.parametrize("name", SCHEDULES)
    def test_campaign_matches_pinned_outputs(self, name, expected):
        model, report = _campaign(name)
        got = _probe_outputs(model)
        want = expected[name]["probes"]
        assert got.keys() == want.keys()
        for probe, values in want.items():
            for field, pinned in values.items():
                assert got[probe][field] == pytest.approx(
                    pinned, rel=RTOL
                ), f"{name} {probe} {field}"
        # the retry machinery must actually have been exercised
        assert sum(s.retries for s in _stats(report)) > 0 or name == "schedule_b"

    def test_drop_and_delay_schedules_reproduce_clean_run(self, expected):
        """Idempotent instruments + retries: losing and re-reading samples
        must not move the calibration at all."""
        clean = expected["clean"]["probes"]
        for name in ("schedule_a", "schedule_b"):
            for probe, values in expected[name]["probes"].items():
                for field, pinned in values.items():
                    assert pinned == pytest.approx(
                        clean[probe][field], rel=RTOL
                    ), f"{name} diverged from clean at {probe} {field}"

    def test_corrupting_schedule_moves_the_calibration(self, expected):
        clean = expected["clean"]["probes"]
        corrupted = expected["schedule_c"]["probes"]
        assert any(
            abs(corrupted[p]["time_s"] - clean[p]["time_s"])
            > 1e-6 * clean[p]["time_s"]
            for p in clean
        ), "schedule_c's corruption left no trace in the model"


def _stats(report):
    return report.instruments


class TestInterruptResume:
    """A crashed-and-resumed campaign is bit-identical to an uninterrupted
    one: same checkpoint file, half its units erased, re-run."""

    def _truncate(self, path: pathlib.Path, keep: int) -> None:
        doc = json.loads(path.read_text())
        kept = dict(list(doc["completed"].items())[:keep])
        assert 0 < len(kept) < len(doc["completed"]), "truncation must bite"
        doc["completed"] = kept
        path.write_text(json.dumps(doc))

    def test_baseline_sweep_resume_is_bit_identical(self, tmp_path):
        sim = SimulatedCluster(arm_cluster())
        program = get_program("CP")
        chaos = resilience.ChaosSchedule.load(FIXTURES / "schedule_a.json")
        ck = tmp_path / "baseline.json"
        policy = resilience.RetryPolicy.aggressive()
        with use(resilience=resilience.ResilienceContext(policy, chaos)):
            full, _ = characterize_resilient(
                sim, program, baseline_checkpoint=ck
            )
        self._truncate(ck, keep=3)
        with use(resilience=resilience.ResilienceContext(policy, chaos)):
            resumed, _ = characterize_resilient(
                sim, program, baseline_checkpoint=ck
            )
        assert resumed == full  # dataclass equality: every float identical
        for key, point in full.baseline.items():
            assert resumed.baseline[key] == point

    def test_evaluate_space_resume_is_bit_identical(self, arm_cp_model, tmp_path):
        space = ConfigSpace.physical(arm_cluster())
        ck = tmp_path / "space.json"
        full = evaluate_space_checkpointed(
            arm_cp_model, space, checkpoint_path=ck, chunk_size=16
        )
        self._truncate(ck, keep=4)
        resumed = evaluate_space_checkpointed(
            arm_cp_model, space, checkpoint_path=ck, chunk_size=16
        )
        v_full, v_res = full.vectorized, resumed.vectorized
        for name in ("times_s", "energies_j", "ucrs", "rho_network"):
            assert np.array_equal(getattr(v_full, name), getattr(v_res, name)), name
        assert np.array_equal(v_full.saturated, v_res.saturated)

    def test_pruned_search_resume_returns_identical_winner(
        self, arm_cp_model, tmp_path
    ):
        from repro.core.search import search_min_energy_within_deadline

        space = list(ConfigSpace.physical(arm_cluster()))
        # a deadline tight enough to force real pruning decisions
        times = [arm_cp_model.predict(c).time_s for c in space[:: len(space) // 8]]
        deadline = sorted(times)[len(times) // 2]
        plain_best, plain_stats = search_min_energy_within_deadline(
            arm_cp_model, space, deadline
        )
        ck = tmp_path / "search.json"
        full_best, _ = search_min_energy_within_deadline(
            arm_cp_model, space, deadline, checkpoint=ck
        )
        self._truncate(ck, keep=1)
        resumed_best, resumed_stats = search_min_energy_within_deadline(
            arm_cp_model, space, deadline, checkpoint=ck
        )
        assert plain_best is not None
        for best in (full_best, resumed_best):
            assert best is not None
            assert best.config == plain_best.config
            assert best.energy_j == plain_best.energy_j
            assert best.time_s == plain_best.time_s
        assert resumed_stats.total == plain_stats.total

    def test_uncheckpointed_and_checkpointed_sweeps_agree(
        self, arm_cp_model, tmp_path
    ):
        from repro.core.configspace import evaluate_space

        space = ConfigSpace.physical(arm_cluster())
        plain = evaluate_space(arm_cp_model, space)
        via_ck = evaluate_space_checkpointed(
            arm_cp_model,
            space,
            checkpoint_path=tmp_path / "space.json",
            chunk_size=16,
        )
        assert np.array_equal(
            plain.vectorized.times_s, via_ck.vectorized.times_s
        )
        assert np.array_equal(
            plain.vectorized.energies_j, via_ck.vectorized.energies_j
        )


def _regenerate() -> None:
    doc = {}
    for name in (None, *SCHEDULES):
        model, _ = _campaign(name)
        doc[name or "clean"] = {"probes": _probe_outputs(model)}
    EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
