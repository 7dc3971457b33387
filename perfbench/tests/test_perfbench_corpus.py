"""Seeded lint corpus: deterministic per seed, and its planted set is exact."""

import json
import pathlib
import subprocess
from collections import Counter

import corpus
import harness
import lint_bench


def test_same_seed_same_corpus_and_other_seeds_differ():
    """The corpus depends only on the seed."""
    assert corpus.build(3) == corpus.build(3)
    assert corpus.build(3) != corpus.build(4)


def test_every_rule_is_planted_the_same_number_of_times_for_every_seed():
    """Every seed plants the fixed count of findings for each rule."""
    for seed in range(5):
        expected = corpus.expected_findings(corpus.build(seed))
        assert Counter(rule for (_, _, rule) in expected.elements()) == corpus.PLANTS


def test_corpus_has_the_repository_scale():
    """The corpus has the repository's module count and constructs."""
    files = corpus.build(0)
    assert len(files) >= corpus.MODULES
    source = "\n".join(files.values())
    assert source.count("async def") >= corpus.MODULES
    assert source.count("# guarded-by:") >= corpus.MODULES
    assert source.count("\n    def ") >= corpus.MODULES * 2
    assert sum(text.count("\nfrom synth.") for text in files.values()) >= corpus.MODULES


def test_the_linter_reports_exactly_the_planted_findings(tmp_path: pathlib.Path):
    """``python -m repro.lint`` finds the planted set, nothing more or less."""
    expected = corpus.generate(11, tmp_path)
    env = harness.program_env()
    done = subprocess.run(lint_bench.lint_cmd(tmp_path), capture_output=True, env=env, cwd=harness.ROOT, timeout=300)
    assert done.returncode == 1, done.stderr
    report = json.loads(done.stdout)
    found = Counter((f["path"], f["line"], f["rule"]) for f in report["findings"])
    assert found == expected
