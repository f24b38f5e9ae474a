"""Workload definitions shared by `run.py` and its worker.

A workload is a problem instance, the algorithms run on it, an evaluation
budget per run and a list of run seeds derived from the benchmark seed. One
unit of work is one optimizer run: one `run_experiment` call for a single
(algorithm, seed) pair, followed by `summarize` and `export_json`. A pass is
every unit of the workload once, in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Environment for every process that imports the program: one BLAS thread and
# no seed fan-out, so a unit is one closed loop on one core.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
UNSET_ENV = ("COMEX_THREADS",)

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    d: int
    algorithms: tuple[str, ...]
    budget: int
    n_seeds: int
    params: dict = field(default_factory=dict)
    # None: the instance seed is the benchmark seed; otherwise a fixed instance.
    fixed_instance_seed: int | None = None

    def instance_seed(self, seed: int) -> int:
        return seed if self.fixed_instance_seed is None else self.fixed_instance_seed

    def run_seeds(self, seed: int) -> list[int]:
        return [seed * SEED_STRIDE + i for i in range(self.n_seeds)]

    def units(self, seed: int) -> list[tuple[str, int]]:
        """One pass: every (algorithm, run seed) pair, seeds outermost."""
        return [(algo, s) for s in self.run_seeds(seed) for algo in self.algorithms]

    def config_kwargs(self, seed: int, algorithm: str, run_seed: int,
                      budget: int | None = None) -> dict:
        """Keyword arguments for `comex.ExperimentConfig` for one unit."""
        return {
            "problem": self.problem,
            "algorithm": algorithm,
            "budget": self.budget if budget is None else budget,
            "seeds": (run_seed,),
            "m": 2,
            "instance_seed": self.instance_seed(seed),
            "problem_params": dict(self.params),
        }

    @property
    def inner_iters(self) -> int:
        """Walk proposals per acquisition at the program's default (20 * d)."""
        return 20 * self.d


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="contam-comex", problem="contamination", d=21,
            algorithms=("comex",), budget=80, n_seeds=8, params={"d": 21},
        ),
        Workload(
            name="queens-comex", problem="nqueens", d=64,
            algorithms=("comex",), budget=20, n_seeds=16,
            params={"n": 8, "noise_sigma": 0.02},
        ),
        Workload(
            name="ising-baselines", problem="ising", d=24,
            algorithms=("rs", "sa"), budget=50, n_seeds=48,
            params={"rows": 4, "cols": 4}, fixed_instance_seed=0,
        ),
    )
}
