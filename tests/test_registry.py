import pytest

from comex.cli import main
from comex.harness import ExperimentConfig, build_problem


@pytest.mark.parametrize("problem, params, key", [
    ("ising", {"rows": 3, "cols": 3, "d": 8}, "d"),
    ("nqueens", {"n": 4, "rows": 3}, "rows"),
    ("contamination", {"d": 8, "n": 4}, "n"),
])
def test_unknown_problem_param_rejected(problem, params, key):
    config = ExperimentConfig(problem=problem, problem_params=params)
    with pytest.raises(ValueError, match=f"'{key}'"):
        build_problem(config)


def test_cli_unknown_problem_param_exits_one(capsys):
    code = main(["run", "--problem", "ising", "--rows", "3", "--cols", "3",
                 "--d", "8", "--algo", "rs", "--budget", "2"])
    assert code == 1
    assert "'d'" in capsys.readouterr().err
