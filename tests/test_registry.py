import numpy as np
import pytest

from comex.cli import main
from comex.harness import ExperimentConfig, build_problem


@pytest.mark.parametrize("problem, params, key", [
    ("ising", {"rows": 3, "cols": 3, "d": 8}, "d"),
    ("nqueens", {"n": 4, "rows": 3}, "rows"),
    ("contamination", {"d": 8, "n": 4}, "n"),
    ("nqueens", {"n": 4.7}, "n"),
    ("ising", {"rows": 2.9, "cols": 3}, "rows"),
    ("contamination", {"d": "5"}, "d"),
    ("contamination", {"d": True}, "d"),
    ("contamination", {"d": 5, "u": "0.1"}, "u"),
    ("nqueens", {"n": 4, "noise_sigma": False}, "noise_sigma"),
])
def test_unknown_problem_param_rejected(problem, params, key):
    """A parameter the problem does not take, or one of the wrong type."""
    config = ExperimentConfig(problem=problem, problem_params=params)
    with pytest.raises(ValueError, match=f"problem '{problem}'.*parameter '{key}'"):
        build_problem(config)


def test_problem_params_take_numpy_integers_and_integer_floats():
    problem, _ = build_problem(ExperimentConfig(
        problem="contamination", problem_params={"d": np.int64(5), "u": 0, "n_paths": np.int32(7)}))
    assert (problem.d, problem.u, problem.n_paths) == (5, 0.0, 7)
    assert type(problem.d) is int and type(problem.u) is float


def test_cli_unknown_problem_param_exits_one(capsys):
    code = main(["run", "--problem", "ising", "--rows", "3", "--cols", "3",
                 "--d", "8", "--algo", "rs", "--budget", "2"])
    assert code == 1
    assert "'d'" in capsys.readouterr().err
