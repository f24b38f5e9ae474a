import json

import numpy as np
import pytest

from comex.benchmarks import ising_make, load_instance, save_instance
from comex.cli import main, parse_seeds
from comex.results import CSV_HEADER


def test_parse_seeds_forms():
    assert parse_seeds("0..3") == (0, 1, 2, 3)
    assert parse_seeds("0,4,9") == (0, 4, 9)
    assert parse_seeds("7") == (7,)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "audit-lemma1" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    code = main(["run", "--definitely-not-a-flag"])
    assert code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_command_is_usage_error():
    assert main([]) == 2


def test_run_writes_summary_csv(tmp_path, capsys):
    out = tmp_path / "result.csv"
    code = main(["run", "--problem", "nqueens", "--n", "4", "--algo", "rs",
                 "--budget", "6", "--seeds", "0..2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    assert "final regret" in capsys.readouterr().out


def test_run_writes_json_with_config_echo(tmp_path):
    out = tmp_path / "result.json"
    code = main(["run", "--problem", "nqueens", "--n", "4", "--algo", "comex",
                 "--budget", "3", "--seeds", "1", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["problem"] == "nqueens"
    assert doc["config"]["budget"] == 3
    assert len(doc["traces"]) == 1
    assert len(doc["traces"][0]["regret"]) == 3


def test_run_accepts_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = nqueens\nn = 4\nalgo = rs\nbudget = 4\nseeds = 0,1\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 0
    assert "nqueens / rs: 2 run(s), 4 steps" in capsys.readouterr().out


def test_run_save_instance(tmp_path):
    inst = tmp_path / "inst.json"
    code = main(["run", "--problem", "contamination", "--d", "6", "--algo", "rs",
                 "--budget", "2", "--save-instance", str(inst)])
    assert code == 0
    assert json.loads(inst.read_text())["kind"] == "contamination"


def test_lemma_audit_prints_per_step_verdicts(capsys):
    code = main(["audit-lemma1", "--d", "4", "--m", "1", "--eta", "0.01",
                 "--steps", "5", "--seed", "3"])
    out = capsys.readouterr().out
    assert out.count("step") >= 5
    assert code in (0, 1)  # per-step verdicts decide the exit code
    assert ("PASS" in out) or ("FAIL" in out)


def test_theorem_audit_passes(capsys):
    code = main(["audit-theorem1", "--d", "5", "--m", "2", "--steps", "2",
                 "--eta", "0.01", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "instance 0: 2/2 steps hold" in out
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ["audit-lemma1", "--steps", "-5"], ["audit-lemma1", "--steps", "0"],
    ["audit-lemma1", "--instances", "0"], ["audit-theorem1", "--steps", "0"],
    ["audit-theorem1", "--instances", "-1"], ["audit-theorem1", "--T", "inf"],
    ["audit-theorem1", "--T", "nan"], ["audit-theorem1", "--T", "0"],
])
def test_audit_that_would_check_nothing_exits_one(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "must be" in captured.err
    assert "PASS" not in captured.out


def test_run_reports_late_early_ratio(capsys):
    # problem flags come from the registry
    for problem_flags in (["--problem", "contamination", "--d", "8"],
                          ["--problem", "ising", "--rows", "2", "--cols", "2"]):
        code = main(["run", *problem_flags, "--budget", "30", "--m", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "30 steps" in out and "late/early ratio" in out


def test_bench_step_time_command_is_gone(capsys):
    assert main(["bench-step-time"]) == 2
    assert "invalid choice: 'bench-step-time'" in capsys.readouterr().err


def test_runtime_error_returns_one(tmp_path, capsys):
    code = main(["run", "--problem", "contamination", "--instance-file",
                 str(tmp_path / "missing.json"), "--budget", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [[0, 9], [0, -1], [1, 1], [0, 1, 2], [0, 1.5], 5])
def test_instance_file_with_a_bad_edge_exits_one_naming_it(tmp_path, capsys, edge):
    path = tmp_path / "ising.json"
    save_instance(ising_make(np.random.default_rng(8), rows=2, cols=2), path)
    doc = json.loads(path.read_text())
    doc["edges"][0] = edge
    path.write_text(json.dumps(doc))
    code = main(["run", "--problem", "ising", "--instance-file", str(path), "--algo", "rs",
                 "--budget", "2"])
    assert code == 1
    assert (f"error: {path}: edges must be pairs of distinct node ids in 0..3, got {edge!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, named", [("--d", "d"), ("--n-paths", "n_paths")])
def test_contamination_size_below_one_exits_one_naming_it(capsys, flag, named):
    code = main(["run", "--problem", "contamination", flag, "-1", "--algo", "rs",
                 "--budget", "2"])
    assert code == 1
    assert f"error: {named} must be at least 1, got -1" in capsys.readouterr().err


def test_warm_start_flag_is_gone(capsys):
    assert main(["run", "--warm-start"]) == 2
    assert "--warm-start" in capsys.readouterr().err


@pytest.mark.parametrize("line, named", [
    ("warm_start = true", "unknown key 'warm_start'"),     # removed option
    ("algorithm = rs", "unknown key 'algorithm'"),         # field name, not a flag
    ("sparsity = 3", "unknown key 'sparsity'"),            # dest name, not a flag
    ("warm_strat = true", "unknown key 'warm_strat'"),     # typo
    ("config = other.cfg", "unknown key 'config'"),
    ("format = xml", "--format: invalid choice: 'xml'"),
    ("budget = many", "--budget: invalid int value: 'many'"),
    ("dedup = yes", "key 'dedup' takes true or false, got 'yes'"),
])
def test_bad_config_key_is_usage_error(tmp_path, capsys, line, named):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"problem = nqueens\nn = 4\n{line}\n")
    assert main(["run", "--config", str(cfg), "--budget", "2"]) == 2
    err = capsys.readouterr().err
    assert named in err
    key = line.split("=")[0].strip()
    assert f"{cfg}: " in err and f"key {key!r}" in err


def run_json(tmp_path, cfg_text, *flags) -> dict:
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "result.json"
    code = main(["run", "--config", str(cfg), "--problem", "nqueens", "--budget", "2",
                 *flags, "--format", "json", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())["config"]


def test_explicit_flag_beats_config_file(tmp_path):
    config = run_json(tmp_path, "lambda = 3\nn = 4\ntime_budget = 60\n", "--lambda", "2")
    assert config["sparsity"] == 2.0
    assert config["wall_clock_budget"] == 60.0
    assert config["problem_params"] == {"n": 4}
    assert "warm_start" not in config


def test_config_file_switches_and_dashed_keys(tmp_path):
    config = run_json(tmp_path, "dedup = TRUE\ninner-iters = 7\nn = 4\n")
    assert config["dedup"] is True and config["inner_iters"] == 7
    assert run_json(tmp_path, "dedup = false\nn = 4\n")["dedup"] is False
    assert run_json(tmp_path, "dedup = false\nn = 4\n", "--dedup")["dedup"] is True


def test_every_problem_parameter_is_a_flag(tmp_path):
    inst = tmp_path / "inst.json"
    code = main(["run", "--problem", "contamination", "--d", "5", "--n-paths", "7",
                 "--u", "0.2", "--cost", "2", "--rho", "0.9", "--lambda-reg", "0.05",
                 "--algo", "rs", "--budget", "2", "--save-instance", str(inst)])
    assert code == 0
    problem = load_instance(inst)
    assert (problem.d, problem.init_z.size, problem.u, problem.rho, problem.lambda_reg) \
        == (5, 7, 0.2, 0.9, 0.05)
    assert np.all(problem.costs == 2.0)


@pytest.mark.parametrize("flag, value", [
    ("--lambda", "nan"), ("--omega", "nan"), ("--eta", "nan"), ("--inner-iters", "-3"),
    ("--chains", "-3"), ("--time-budget", "nan"), ("--time-budget", "-1"),
    ("--eta", "-1"), ("--seeds", "-3"), ("--seeds", "0,-3"), ("--instance-seed", "-1"),
    ("--budget", "0"), ("--m", "0"), ("--inner-iters", "0"), ("--chains", "0"),
    ("--noise-sigma", "nan"), ("--noise-sigma", "inf"), ("--noise-sigma", "-1"),
])
def test_out_of_range_option_exits_one(capsys, flag, value):
    code = main(["run", "--problem", "nqueens", "--n", "4", "--budget", "3", flag, value])
    assert code == 1
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--eta", "abc", "argument --eta: expected 'adaptive' or a number, got 'abc'"),
    ("--seeds", "abc", "argument --seeds: expected '0..9', '0,1,4' or one integer, got 'abc'"),
    ("--seeds", "0..x", "argument --seeds:"),
    ("--lambda", "abc", "argument --lambda: invalid float value: 'abc'"),
    ("--algo", "xyz", "argument --algo: invalid choice: 'xyz'"),
])
def test_malformed_option_is_usage_error(capsys, flag, value, named):
    code = main(["run", "--problem", "nqueens", "--n", "4", "--budget", "2", flag, value])
    assert code == 2
    assert named in capsys.readouterr().err


def test_eta_accepts_adaptive_or_a_number(tmp_path):
    assert run_json(tmp_path, "n = 4\n", "--eta", "adaptive")["eta"] is None
    assert run_json(tmp_path, "n = 4\neta = 0.05\n")["eta"] == 0.05
