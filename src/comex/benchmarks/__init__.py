"""Benchmark oracles behind a uniform black-box interface."""

from .base import CountingOracle, Known, Oracle
from .contamination import ContaminationProblem, contamination_make, contamination_oracle
from .io import load_instance, save_instance
from .ising import IsingProblem, grid_edges, ising_make, ising_oracle
from .nqueens import (
    NQueensProblem,
    nqueens_make,
    nqueens_oracle,
    queens_solutions,
    solution_bits,
)

__all__ = [
    "Known",
    "Oracle",
    "CountingOracle",
    "grid_edges",
    "IsingProblem",
    "ising_make",
    "ising_oracle",
    "ContaminationProblem",
    "contamination_make",
    "contamination_oracle",
    "NQueensProblem",
    "nqueens_make",
    "nqueens_oracle",
    "queens_solutions",
    "solution_bits",
    "save_instance",
    "load_instance",
]
