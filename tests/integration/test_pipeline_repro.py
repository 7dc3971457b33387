"""The end-to-end reproduction DAG: the acceptance contract of the
pipeline subsystem.

Editing exactly one machine spec and re-running ``repro pipeline run``
must re-execute only the stages downstream of that spec — shown by both
``pipeline status`` and the run report — and the final artifacts must be
bit-identical to a cold rebuild.  The spec files are copied under a
temporary root (``fingerprint.REPO_ROOT`` is monkeypatched there), so
the repository itself is never mutated.
"""

from __future__ import annotations

import shutil

import pytest

from repro import obs
from repro.context import use
from repro.core.vectorized import clear_evaluation_cache
from repro.pipeline import (
    ArtifactStore,
    paper_pipeline,
    pipeline_status,
    run_pipeline,
)
from repro.pipeline.fingerprint import canonical_payload_bytes

#: Every relative input file the shipped paper pipeline declares.
DECLARED_INPUTS = (
    "src/repro/machines/xeon.py",
    "src/repro/machines/arm.py",
    "src/repro/machines/epyc.py",
    "src/repro/workloads/npb.py",
    "src/repro/workloads/quantum.py",
)

XEON_SUBTREE = {
    "characterize-xeon-sp",
    "calibrate-xeon-sp",
    "validate-xeon-sp",
    "fig8-pareto-xeon-sp",
}


@pytest.fixture
def sandbox_root(tmp_path, monkeypatch):
    """A private copy of the declared input files as the repo root."""
    from repro.pipeline import fingerprint

    for rel in DECLARED_INPUTS:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(fingerprint.REPO_ROOT / rel, target)
    monkeypatch.setattr(fingerprint, "REPO_ROOT", tmp_path)
    return tmp_path


def _artifact_bytes(run):
    return {
        name: canonical_payload_bytes(payload)
        for name, payload in run.artifacts.items()
    }


def test_edit_one_spec_reruns_only_downstream_bit_identical(
    sandbox_root, tmp_path
):
    pipeline = paper_pipeline()
    store = ArtifactStore(tmp_path / "store")

    cold = run_pipeline(pipeline, store)
    assert set(cold.executed) == set(pipeline.order)
    assert all(
        s.state == "fresh" for s in pipeline_status(pipeline, store)
    )

    # touch exactly one machine spec (a comment: content changes, the
    # characterized behavior does not)
    xeon = sandbox_root / "src/repro/machines/xeon.py"
    xeon.write_text(xeon.read_text() + "\n# bumped clock comment\n")

    # status: the xeon characterization is stale because of *that file*,
    # its downstream because of the stale upstream; the ARM/EPYC branches
    # stay fresh
    status = {s.name: s for s in pipeline_status(pipeline, store)}
    assert status["characterize-xeon-sp"].state == "stale"
    assert status["characterize-xeon-sp"].reasons == (
        "input changed: src/repro/machines/xeon.py",
    )
    for name in XEON_SUBTREE - {"characterize-xeon-sp"}:
        assert status[name].state == "stale"
        assert status[name].reasons == (
            "upstream stage not fresh: characterize-xeon-sp",
        )
    for name in set(pipeline.order) - XEON_SUBTREE:
        assert status[name].state == "fresh", name

    # incremental run: the characterization re-executes; its outputs come
    # out identical, so early cutoff revalidates the downstream stages
    # without running them
    warm = run_pipeline(pipeline, store)
    assert warm.executed == ("characterize-xeon-sp",)
    assert set(warm.cached) == set(pipeline.order) - {"characterize-xeon-sp"}

    # the store now satisfies everything again
    assert all(
        s.state == "fresh" for s in pipeline_status(pipeline, store)
    )

    # bit-identical to a cold rebuild in a fresh store
    rebuilt = run_pipeline(pipeline, ArtifactStore(tmp_path / "store2"))
    assert set(rebuilt.executed) == set(pipeline.order)
    assert _artifact_bytes(rebuilt) == _artifact_bytes(warm)
    assert _artifact_bytes(rebuilt) == _artifact_bytes(cold)


def test_repro_summary_matches_paper_structure(sandbox_root, tmp_path):
    """The default pipeline's artifacts carry the paper's headline
    numbers: validation errors inside the paper's bound, the 216-config
    Fig. 8 space, and both extension studies."""
    run = run_pipeline(paper_pipeline(), ArtifactStore(tmp_path / "store"))

    for name in ("validation_xeon_sp", "validation_arm_cp"):
        summary = run.artifacts[name]["summary"]
        assert summary["time_mean_abs_err_pct"] < 15.0
        assert summary["energy_mean_abs_err_pct"] < 15.0

    corr = run.artifacts["corrections_xeon_sp"]
    assert 0.8 < corr["cpu"] < 1.3  # corrections confirm the physics

    fig8 = run.artifacts["fig8_pareto_xeon_sp"]
    assert fig8["configurations"] == 216
    assert len(fig8["frontier"]) >= 5
    assert fig8["ucr_min"] < 0.25 and fig8["ucr_max"] > 0.6

    modern = run.artifacts["ext_modern_machine"]
    assert modern["spot_check_time_mean_abs_err_pct"] < 15.0

    dvfs = run.artifacts["ext_dvfs_advice"]
    assert dvfs["advised_configs"] >= 1
    assert dvfs["confirmed_configs"] >= 0.6 * dvfs["advised_configs"]


def test_jobs_keep_the_execution_context(tmp_path):
    """Stage fan-out threads run under the caller's execution context.

    Regression: the block budget used to be thread-local, so ``--jobs 2``
    silently evaluated every space unstreamed.  Both runs must make the
    same planner decisions and stream the same blocks, and produce
    byte-equal fingerprints and artifacts.
    """
    runs = {}
    for workers in (1, 2):
        clear_evaluation_cache()  # make both runs reach the planner
        registry = obs.enable_metrics()
        try:
            with use(max_block_bytes=4096):
                run = run_pipeline(
                    paper_pipeline(),
                    ArtifactStore(tmp_path / f"store-{workers}"),
                    workers=workers,
                )
            counters = (
                registry.counter_value("planner.decisions"),
                registry.counter_value("planner.stream_blocks"),
            )
        finally:
            obs.disable()
        runs[workers] = run, counters
    (serial, serial_counters), (fanned, fanned_counters) = runs[1], runs[2]
    decisions, blocks = serial_counters
    assert decisions > 0 and blocks > 0
    assert fanned_counters == serial_counters
    assert [(r.name, r.fingerprint) for r in fanned.reports] == [
        (r.name, r.fingerprint) for r in serial.reports
    ]
    assert _artifact_bytes(fanned) == _artifact_bytes(serial)
