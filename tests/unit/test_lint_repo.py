"""Repository-level reprolint tests: the tree itself is clean, the CLI
exits correctly on the committed fixtures, and each rule catches a
seeded regression reintroduced into a copy of real source."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.cli.main import main as repro_main
from repro.lint import LintConfig, lint_paths
from repro.lint.cli import main as lint_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


class TestRepositoryIsClean:
    def test_src_and_tools_have_no_findings(self):
        result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tools"], REPO_ROOT)
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files_scanned > 80

    def test_committed_baseline_is_empty(self):
        document = json.loads((REPO_ROOT / ".reprolint-baseline.json").read_text())
        assert document["findings"] == []


class TestCliOnFixtures:
    VIOLATIONS = FIXTURES / "violations"

    @pytest.mark.parametrize(
        ("target", "rule"),
        [
            ("units_bad.py", "RL001"),
            ("determinism_bad.py", "RL002"),
            ("forksafety_bad.py", "RL003"),
            ("atomicio_bad.py", "RL004"),
            ("repro", "RL005"),
            ("asyncblocking_bad.py", "RL006"),
            ("lockguard_bad.py", "RL007"),
            ("lockorder_bad.py", "RL008"),
        ],
    )
    def test_each_violation_fixture_fails(self, capsys, target, rule):
        code = lint_main(
            ["--root", str(self.VIOLATIONS), str(self.VIOLATIONS / target)]
        )
        assert code == 1
        assert rule in capsys.readouterr().out

    def test_clean_fixture_passes(self, capsys):
        clean = FIXTURES / "clean"
        code = lint_main(["--root", str(clean), str(clean)])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_report_parses(self, capsys):
        code = lint_main(
            ["--json", "--root", str(self.VIOLATIONS), str(self.VIOLATIONS)]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["ok"] is False
        rules = {f["rule"] for f in document["findings"]}
        assert rules == {
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        }
        assert "symbol_table" in document["timings"]
        assert "call_graph" in document["timings"]

    def test_repro_cli_forwards_lint_subcommand(self, capsys):
        code = repro_main(
            ["lint", "--root", str(self.VIOLATIONS), str(self.VIOLATIONS)]
        )
        assert code == 1
        assert "RL001" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ):
            assert rule in out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("def f(x):\n    return x * 1e9\n")
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [
                    "--root",
                    str(tmp_path),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = lint_main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tmp_path)]
        )
        assert code == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{broken")
        code = lint_main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tmp_path)]
        )
        assert code == 2
        assert "baseline" in capsys.readouterr().err


def _seed(tmp_path: pathlib.Path, src_rel: str, dst_rel: str, old: str, new: str) -> pathlib.Path:
    """Copy a real source file into the scratch tree with one edit."""
    source = (REPO_ROOT / src_rel).read_text()
    assert old in source, f"seed anchor {old!r} missing from {src_rel}"
    dst = tmp_path / dst_rel
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(source.replace(old, new))
    return dst


class TestSeededRegressions:
    """Each rule must catch its violation reintroduced into real source."""

    def test_rl001_units_regression(self, tmp_path):
        _seed(
            tmp_path,
            "src/repro/workflow.py",
            "workflow.py",
            "to_ghz(self.dvfs.best.stall_frequency_hz)",
            "(self.dvfs.best.stall_frequency_hz / 1e9)",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL001",)))
        assert [f.rule for f in result.findings] == ["RL001"]

    def test_rl002_determinism_regression(self, tmp_path):
        _seed(
            tmp_path,
            "src/repro/core/inputs.py",
            "inputs.py",
            "def characterize(",
            "def _wall_clock():\n"
            "    import time\n"
            "    return time.time()\n"
            "\n"
            "\n"
            "def characterize(",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL002",)))
        assert [f.rule for f in result.findings] == ["RL002"]
        assert "time.time" in result.findings[0].message

    def test_rl003_forksafety_regression(self, tmp_path):
        _seed(
            tmp_path,
            "src/repro/core/parallel.py",
            "parallel.py",
            "    t_start = time.perf_counter()",
            "    t_start = time.perf_counter()\n"
            "    global _POOL\n"
            "    _POOL = None",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL003",)))
        assert [f.rule for f in result.findings] == ["RL003"]
        assert "'_POOL'" in result.findings[0].message

    def test_rl003_pristine_parallel_is_clean(self, tmp_path):
        shutil.copy(REPO_ROOT / "src/repro/core/parallel.py", tmp_path / "parallel.py")
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL003",)))
        assert result.ok

    def test_rl004_atomicio_regression(self, tmp_path):
        _seed(
            tmp_path,
            "src/repro/resilience/checkpoint.py",
            "repro/resilience/checkpoint.py",
            "os.replace(",
            "print(",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL004",)))
        assert result.findings, "dropping os.replace must surface RL004"
        assert {f.rule for f in result.findings} == {"RL004"}

    def test_rl005_obscoverage_regression(self, tmp_path):
        _seed(
            tmp_path,
            "src/repro/core/calibrate.py",
            "repro/core/calibrate.py",
            "obs.span(",
            "_disabled_span(",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL005",)))
        assert [f.rule for f in result.findings] == ["RL005"]
        assert "calibrate" in result.findings[0].message

    def test_rl006_asyncblocking_regression(self, tmp_path):
        # Drop the executor boundary: the coroutine calls the engine
        # pipeline (ResultCache probes, model builds) inline.
        _seed(
            tmp_path,
            "src/repro/serve/app.py",
            "app.py",
            "        doc = await loop.run_in_executor(\n"
            "            self._engine_pool,\n"
            "            contextvars.copy_context().run,\n"
            "            self._compute_sync,\n"
            "            query,\n"
            "        )",
            "        doc = self._compute_sync(query)",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL006",)))
        assert result.findings, "inlining _compute_sync must surface RL006"
        assert {f.rule for f in result.findings} == {"RL006"}
        assert any("_compute_sync" in f.message for f in result.findings)

    def test_rl006_pristine_app_is_clean(self, tmp_path):
        shutil.copy(REPO_ROOT / "src/repro/serve/app.py", tmp_path / "app.py")
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL006",)))
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_rl007_lockguard_regression(self, tmp_path):
        # Strip the lock from the LRU's info() snapshot: four unlocked
        # reads of guarded statistics.
        _seed(
            tmp_path,
            "src/repro/core/vectorized.py",
            "vectorized.py",
            "    def info(self) -> CacheInfo:\n        with self._lock:",
            "    def info(self) -> CacheInfo:\n        if True:",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL007",)))
        assert result.findings, "unlocking info() must surface RL007"
        assert {f.rule for f in result.findings} == {"RL007"}
        assert all("_lock" in f.message for f in result.findings)

    def test_rl007_pristine_vectorized_is_clean(self, tmp_path):
        shutil.copy(
            REPO_ROOT / "src/repro/core/vectorized.py", tmp_path / "vectorized.py"
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL007",)))
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_rl008_lockorder_cycle_regression(self, tmp_path):
        # Nest the two ServeApp locks in opposite orders.
        source = (REPO_ROOT / "src/repro/serve/app.py").read_text()
        first = (
            "        with self._model_lock:\n"
            "            spec = self._specs[query.cluster]"
        )
        second = (
            "        with self._stats_lock:\n"
            "            self.engine_calls += 1"
        )
        assert first in source and second in source
        seeded = source.replace(
            first,
            "        with self._model_lock:\n"
            "            with self._stats_lock:\n"
            "                spec = self._specs[query.cluster]",
        ).replace(
            second,
            "        with self._stats_lock:\n"
            "            with self._model_lock:\n"
            "                self.engine_calls += 1",
        )
        (tmp_path / "app.py").write_text(seeded)
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL008",)))
        assert result.findings, "opposite-order nesting must surface RL008"
        assert {f.rule for f in result.findings} == {"RL008"}
        assert any("lock-order cycle" in f.message for f in result.findings)

    def test_rl008_await_under_lock_regression(self, tmp_path):
        _seed(
            tmp_path,
            "src/repro/serve/app.py",
            "app.py",
            "        doc = await loop.run_in_executor(\n"
            "            self._engine_pool,\n"
            "            contextvars.copy_context().run,\n"
            "            self._compute_sync,\n"
            "            query,\n"
            "        )",
            "        with self._model_lock:\n"
            "            doc = await loop.run_in_executor(\n"
            "                self._engine_pool,\n"
            "                contextvars.copy_context().run,\n"
            "                self._compute_sync,\n"
            "                query,\n"
            "            )",
        )
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL008",)))
        assert result.findings, "awaiting under _model_lock must surface RL008"
        assert {f.rule for f in result.findings} == {"RL008"}
        assert any("awaits while holding" in f.message for f in result.findings)

    def test_rl008_pristine_app_is_clean(self, tmp_path):
        shutil.copy(REPO_ROOT / "src/repro/serve/app.py", tmp_path / "app.py")
        result = lint_paths([tmp_path], tmp_path, config=LintConfig(rules=("RL008",)))
        assert result.ok, "\n".join(f.render() for f in result.findings)


class TestCheckIgnores:
    """``--check-ignores``: stale suppressions fail, live ones pass."""

    def test_stale_ignore_fails(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1  # reprolint: ignore[RL001]\n")
        code = lint_main(
            ["--root", str(tmp_path), "--check-ignores", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "stale suppression" in captured.err
        assert "mod.py:1" in captured.err

    def test_live_ignore_passes(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(x):\n    return x * 1e9  # reprolint: ignore[RL001]\n"
        )
        code = lint_main(
            ["--root", str(tmp_path), "--check-ignores", str(tmp_path)]
        )
        assert code == 0
        assert "stale" not in capsys.readouterr().err

    def test_without_flag_stale_ignore_does_not_fail(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1  # reprolint: ignore[RL001]\n")
        code = lint_main(["--root", str(tmp_path), str(tmp_path)])
        assert code == 0

    def test_marker_in_docstring_is_not_a_suppression(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            '"""Docs may quote `# reprolint: ignore[RL001]` safely."""\n'
            "x = 1\n"
        )
        code = lint_main(
            ["--root", str(tmp_path), "--check-ignores", str(tmp_path)]
        )
        assert code == 0
        assert "stale" not in capsys.readouterr().err

    def test_repo_ignores_are_all_live(self):
        result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tools"], REPO_ROOT)
        assert result.stale_suppressions == []

    def test_stale_baseline_entry_warns(self, tmp_path, capsys):
        from repro.lint.baseline import Baseline
        from repro.lint.findings import Finding

        (tmp_path / "mod.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        Baseline.save(
            baseline,
            [Finding(path="gone.py", line=1, rule="RL001", message="m", snippet="s")],
        )
        code = lint_main(
            ["--root", str(tmp_path), "--baseline", str(baseline), str(tmp_path)]
        )
        assert code == 0
        assert "no longer matches" in capsys.readouterr().err
