"""CLI subcommands (smoke-level: each command runs and prints sane text)."""

import pytest

from repro.cli.main import _parse_config, main


def test_parse_config():
    cfg = _parse_config("4,8,1.8")
    assert cfg.nodes == 4
    assert cfg.cores == 8
    assert cfg.frequency_hz == pytest.approx(1.8e9)


def test_parse_config_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_config("not-a-config")


def test_systems_command(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    assert "x86_64" in out and "ARMv7-A" in out
    assert "20MB / node" in out


def test_netpipe_command(capsys):
    assert main(["netpipe", "--cluster", "arm"]) == 0
    out = capsys.readouterr().out
    assert "peak throughput" in out
    assert "Mbps" in out


def test_predict_command(capsys):
    assert main(
        ["predict", "--cluster", "xeon", "--program", "SP", "--config", "1,8,1.8"]
    ) == 0
    out = capsys.readouterr().out
    assert "T_CPU" in out and "UCR" in out


def test_whatif_command(capsys):
    assert main(
        [
            "whatif",
            "--cluster",
            "xeon",
            "--program",
            "SP",
            "--config",
            "1,8,1.8",
            "--mem-bandwidth",
            "2",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "before:" in out and "after:" in out and "delta:" in out


def test_pareto_command_with_queries(capsys):
    assert main(
        [
            "pareto",
            "--cluster",
            "xeon",
            "--program",
            "SP",
            "--deadline",
            "100",
            "--budget",
            "50",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Pareto frontier" in out
    assert "deadline 100" in out
    assert "budget 50" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_cluster():
    with pytest.raises(SystemExit):
        main(["netpipe", "--cluster", "power9"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--plan", "auto", "pareto", "--cluster", "xeon", "--program", "SP"],
        ["serve", "--plan", "auto"],
    ],
)
def test_plan_flag_is_a_usage_error(argv, capsys):
    # the planner always decides; there is no mode to force
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_workers_flag_leaves_output_bytes_unchanged(capsys):
    argv = ["pareto", "--cluster", "xeon", "--program", "SP"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(["--workers", "2", *argv]) == 0
    assert capsys.readouterr().out == plain


def _explain(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_plan_explain_paper_space_is_vectorized(capsys):
    out = _explain(["plan", "explain", "--configs", "216"], capsys)
    assert out.startswith("strategy: vectorized\n")
    assert "configs 216, effective workers 1" in out
    assert "streamed: False" in out


def test_plan_explain_reads_the_global_block_budget(capsys):
    out = _explain(
        ["--max-block-bytes", "4096", "plan", "explain", "--configs", "216"],
        capsys,
    )
    assert out.startswith("strategy: vectorized\n")
    assert "streamed: True" in out


def test_plan_explain_reads_the_global_workers(capsys, monkeypatch):
    from repro.core import parallel

    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    out = _explain(
        ["--workers", "4", "plan", "explain", "--configs", "1000000"], capsys
    )
    assert out.startswith("strategy: sharded\n")
    assert "configs 1000000, effective workers 4" in out


def test_plan_explain_rejects_zero_workers(capsys):
    assert main(["--workers", "0", "plan", "explain", "--configs", "216"]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
