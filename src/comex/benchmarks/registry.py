"""The problem registry: one table entry per benchmark kind.

`make(rng, **params)` draws an instance, `oracle(problem)` wraps it as its
scaled oracle, `cls` is its dataclass (whose init fields an instance file
holds), and `params` maps each parameter the maker takes to the type a
value is coerced to.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .contamination import ContaminationProblem, contamination_make, contamination_oracle
from .ising import IsingProblem, ising_make, ising_oracle
from .nqueens import NQueensProblem, nqueens_make, nqueens_oracle

__all__ = ["ProblemKind", "PROBLEMS", "PROBLEM_PARAMS", "make_problem", "kind_of",
           "problem_oracle"]


class ProblemKind(NamedTuple):
    make: Callable
    oracle: Callable
    cls: type
    params: dict[str, type]


PROBLEMS = {
    "ising": ProblemKind(ising_make, ising_oracle, IsingProblem,
                         {"rows": int, "cols": int, "lambda_reg": float}),
    "contamination": ProblemKind(contamination_make, contamination_oracle,
                                 ContaminationProblem,
                                 {"d": int, "n_paths": int, "u": float, "cost": float,
                                  "rho": float, "lambda_reg": float}),
    "nqueens": ProblemKind(lambda rng, **params: nqueens_make(**params), nqueens_oracle,
                           NQueensProblem, {"n": int, "noise_sigma": float}),
}

# Every parameter any kind takes, with its type (the CLI declares one flag each).
PROBLEM_PARAMS = {p: t for kind in PROBLEMS.values() for p, t in kind.params.items()}


def make_problem(kind: str, params: dict, rng):
    """Draw an instance of `kind`; a parameter it does not take is an error."""
    if kind not in PROBLEMS:
        raise ValueError(f"unknown problem {kind!r}")
    types = PROBLEMS[kind].params
    for key in params:
        if key not in types:
            raise ValueError(f"problem {kind!r} takes no parameter {key!r} "
                             f"(it takes {', '.join(types)})")
    return PROBLEMS[kind].make(rng, **{k: types[k](v) for k, v in params.items()})


def kind_of(problem) -> str:
    """The registry key of an instance's class."""
    for key, kind in PROBLEMS.items():
        if type(problem) is kind.cls:
            return key
    raise TypeError(f"unsupported problem type {type(problem)!r}")


def problem_oracle(problem):
    """The scaled oracle of an instance of any registered kind."""
    return PROBLEMS[kind_of(problem)].oracle(problem)
