"""Experiment orchestration: configs, the run loop, seed fanout.

Each algorithm is an ask/tell strategy, built by its factory in
ALGORITHMS; one driver owns the evaluation budget, the deadlines, per-step
timing, abort handling and the trace. One run = one seed. The per-run
master seed spawns independent streams for acquisition randomness and
oracle noise, while an experiment builds its benchmark instance once, from
a separate instance seed, so paired comparisons across algorithms and seeds
share the same instance. The COMEX_THREADS environment variable fans seeds
out across worker processes; results are identical to the sequential order
either way.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .acquisition import AnnealSchedule, propose_query
from .baselines import DirectAnnealing, RandomSearch
from .basis import enumerate_basis
from .benchmarks.io import load_instance
from .benchmarks.registry import PROBLEMS, kind_of, make_problem, problem_oracle
from .domain import to_bits
from .results import RunTrace, build_trace
from .surrogate import MonomialSurrogate

__all__ = ["ALGORITHMS", "ExperimentConfig", "ComexStrategy", "build_problem", "drive",
           "run_single", "run_experiment", "read_config_file"]

INNER_ITERS_PER_DIMENSION = 20


def _positive(value) -> bool:
    """True for a positive finite number; false for NaN."""
    return 0 < value < math.inf


def _count(value, least: int = 1) -> bool:
    """True for an integer of at least `least`; false for a float or a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


@dataclass
class ExperimentConfig:
    problem: str = "contamination"     # a key of benchmarks.registry.PROBLEMS
    algorithm: str = "comex"            # a key of ALGORITHMS
    budget: int = 250
    seeds: tuple[int, ...] = (0,)
    m: int = 2
    sparsity: float = 1.0
    omega: float = 0.5
    inner_iters: int | None = None      # None -> 20 * d proposals per acquisition
    eta: float | None = None            # None -> adaptive schedule
    wall_clock_budget: float | None = None
    wall_clock_mode: str = "total"      # total | algorithm
    instance_seed: int = 0
    instance_file: str | None = None
    dedup: bool = False                 # re-anneal once on a duplicate proposal
    acq_chains: int = 1
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.seeds = tuple(self.seeds)
        for name, holds, rule in (
            ("problem", self.problem in PROBLEMS, "one of " + ", ".join(PROBLEMS)),
            ("algorithm", self.algorithm in ALGORITHMS, "one of " + ", ".join(ALGORITHMS)),
            ("budget", _count(self.budget), "an integer of at least 1"),
            ("seeds", bool(self.seeds) and all(_count(s, 0) for s in self.seeds),
             "nonempty nonnegative integers"),
            ("m", _count(self.m), "an integer of at least 1"),
            ("sparsity", _positive(self.sparsity), "positive and finite"),
            ("omega", _positive(self.omega), "positive and finite"),
            ("eta", self.eta is None or _positive(self.eta), "positive and finite"),
            ("inner_iters", self.inner_iters is None or _count(self.inner_iters),
             "None or an integer of at least 1"),
            ("acq_chains", _count(self.acq_chains), "an integer of at least 1"),
            ("instance_seed", _count(self.instance_seed, 0), "a nonnegative integer"),
            ("wall_clock_budget", self.wall_clock_budget is None
             or self.wall_clock_budget >= 0, "nonnegative"),
            ("wall_clock_mode", self.wall_clock_mode in ("total", "algorithm"),
             "'total' or 'algorithm'"),
        ):
            if not holds:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        self.seeds = tuple(map(int, self.seeds))  # numpy integers become ints for JSON

    def resolved_inner_iters(self, d: int) -> int:
        return self.inner_iters if self.inner_iters is not None else INNER_ITERS_PER_DIMENSION * d

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["seeds"] = list(self.seeds)
        return doc


def build_problem(config: ExperimentConfig):
    """Materialize the benchmark instance and its scaled oracle. An instance
    file must hold an instance of `config.problem`, and takes no problem
    parameters and no instance seed (the default 0 counts as none)."""
    path = config.instance_file
    if path:
        if config.problem_params:
            raise ValueError(f"{path}: an instance file takes no problem parameters, "
                             f"got {', '.join(config.problem_params)}")
        if config.instance_seed:
            raise ValueError(f"{path}: an instance file takes no instance seed, "
                             f"got {config.instance_seed}")
        problem = load_instance(path)
        if kind_of(problem) != config.problem:
            raise ValueError(f"{path}: is an instance of {kind_of(problem)!r}, "
                             f"not of the problem {config.problem!r}")
    else:
        problem = make_problem(config.problem, config.problem_params,
                               np.random.default_rng(config.instance_seed))
    return problem, problem_oracle(problem)


def drive(strategy, oracle, budget: int, noise_rng: np.random.Generator, *,
          name: str, seed: int, deadline: float | None = None,
          time_budget: float | None = None) -> RunTrace:
    """Alternate `strategy.ask(step)`, one oracle call and `strategy.tell(x, obs)`.

    Before every call but the first, the run stops (truncated) once the
    perf_counter `deadline` or the algorithm-time (ask + tell) `time_budget`
    is reached. An exception from the oracle or from `tell` aborts the run
    and keeps the earlier steps; if the first step fails there is no trace,
    and a RuntimeError.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rows, algorithm_time = [], 0.0
    for step in range(budget):
        if step and ((deadline is not None and time.perf_counter() >= deadline)
                     or (time_budget is not None and algorithm_time >= time_budget)):
            return build_trace(name, seed, rows, oracle, truncated=True)
        t0 = time.perf_counter()
        x = strategy.ask(step)
        acq_time = time.perf_counter() - t0
        stage = "oracle call"
        try:
            raw, obs = oracle.observe(x, noise_rng)
            stage, t1 = "update", time.perf_counter()
            strategy.tell(x, obs)
        except Exception as exc:  # noqa: BLE001 - partial trace must survive
            error = f"{type(exc).__name__}: {exc}"
            if not rows:
                raise RuntimeError(f"{name}: the first {stage} failed, "
                                   f"so the run has no trace ({error})") from exc
            return build_trace(name, seed, rows, oracle, aborted=True, error=error)
        update_time = time.perf_counter() - t1
        algorithm_time += acq_time + update_time
        rows.append({"queries": to_bits(x), "raw_values": raw, "scaled_values": obs,
                     "acquisition_times": acq_time, "update_times": update_time})
    return build_trace(name, seed, rows, oracle)


class ComexStrategy:
    """The optimizer: `ask` advances the persistent acquisition walk over the
    surrogate by `inner_iters` proposals (once more, from a fresh point, under
    dedup when it repeats a query), and `tell` updates the monomial experts."""

    def __init__(self, constraint, config: ExperimentConfig, rng: np.random.Generator):
        d = constraint.d
        self.config = config
        self.model = MonomialSurrogate(enumerate_basis(d, config.m), config.sparsity,
                                       learning_rate=config.eta)
        self.propose = partial(propose_query, self.model, constraint,
                               AnnealSchedule(config.omega, d),
                               config.resolved_inner_iters(d), rng)
        self.seen: set[bytes] = set()
        self.chain = None

    def ask(self, step: int) -> np.ndarray:
        x = self.propose(step=step, x_init=self.chain, n_chains=self.config.acq_chains)
        if self.config.dedup and x.tobytes() in self.seen:
            x = self.propose(step=step)
        return x

    def tell(self, x: np.ndarray, obs: float) -> None:
        self.model.update(x, obs)
        self.chain = x
        if self.config.dedup:
            self.seen.add(x.tobytes())


# Each algorithm's ask/tell strategy, built from (constraint, config, rng).
ALGORITHMS = {
    "comex": ComexStrategy,
    "rs": lambda constraint, config, rng: RandomSearch(constraint, rng),
    "sa": lambda constraint, config, rng: DirectAnnealing(constraint, config.omega, rng),
}


def _run(algorithm: str, oracle, config: ExperimentConfig, seed: int) -> RunTrace:
    acq_rng, noise_rng = [np.random.default_rng(s)
                          for s in np.random.SeedSequence(seed).spawn(2)]
    strategy = ALGORITHMS[algorithm](oracle.constraint, config, acq_rng)
    limit = config.wall_clock_budget
    total_clock = limit is not None and config.wall_clock_mode == "total"
    return drive(strategy, oracle, config.budget, noise_rng, name=algorithm, seed=seed,
                 deadline=time.perf_counter() + limit if total_clock else None,
                 time_budget=None if total_clock else limit)


def run_single(config: ExperimentConfig, seed: int) -> RunTrace:
    """Build the instance and run one algorithm for one seed."""
    _, oracle = build_problem(config)
    return _run(config.algorithm, oracle, config, seed)


def _worker_count() -> int:
    """The COMEX_THREADS process count (default 1), validated."""
    value = os.environ.get("COMEX_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"COMEX_THREADS must be a positive integer, got {value!r}")
    return workers


def run_experiment(config: ExperimentConfig, oracle=None) -> list[RunTrace]:
    """Run every seed on one instance: `oracle` when given, else the one
    built from `config`. Seeds fan out across processes when COMEX_THREADS > 1,
    one chunk of seeds (so one pickle of the oracle) per worker."""
    workers = _worker_count()
    if oracle is None:
        _, oracle = build_problem(config)
    run = partial(_run, config.algorithm, oracle, config)
    if workers > 1 and len(config.seeds) > 1:
        # Imported here: the pool pulls in multiprocessing, which a
        # sequential run never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = math.ceil(len(config.seeds) / workers)
            return list(pool.map(run, config.seeds, chunksize=chunk))
    return [run(seed) for seed in config.seeds]


def read_config_file(path) -> dict[str, str]:
    """Parse a 'key = value' text config; '#' starts a comment, and a key
    may appear once ('-' in a key reads as '_')."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError(f"{path}:{lineno}: {key!r} is set twice")
        values[key] = value.strip()
    return values
