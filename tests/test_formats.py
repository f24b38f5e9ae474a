"""Recorded digests of every fixed file format.

Instance files, the run JSON, the summary CSV and surrogate checkpoints are
formats other tools read, so their bytes must not drift. Each digest is the
first 16 hex digits of a SHA-256 over the written file. Trace times are
wall-clock measurements, so they are set to constants before export.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from comex.basis import enumerate_basis
from comex.benchmarks import load_instance, save_instance
from comex.benchmarks.registry import make_problem
from comex.domain import Unconstrained, sample_uniform
from comex.harness import ExperimentConfig, run_experiment
from comex.results import export_json, export_summary_csv, summarize
from comex.surrogate import MonomialSurrogate

INSTANCES = {
    "ising": ({"rows": 2, "cols": 3}, "40cd35eb8d735c94"),
    "contamination": ({"d": 5, "n_paths": 4}, "56100f383195da8c"),
    "nqueens": ({"n": 4, "noise_sigma": 0.05}, "87c71e0c9c1f14a8"),
}

# (json, csv) per run: comex on contamination (raw regret axis) and sa on
# nqueens (scaled axis), two seeds each. The second trace is marked aborted
# with an error text, so the flags and the error string are pinned too.
RUNS = {
    ("contamination", "comex"): ({"d": 6}, "278cf1974369fa43", "0d33201432106264"),
    ("nqueens", "sa"): ({"n": 4}, "12c6ff83d842d125", "8173047eff607699"),
}

# Checkpoints after a few updates, under the adaptive and a fixed step size.
CHECKPOINTS = {None: "b6f2b3224ca45647", 0.05: "0a595e5c615925c8"}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_instance_file_bytes(tmp_path, kind):
    params, expected = INSTANCES[kind]
    problem = make_problem(kind, params, np.random.default_rng(4))
    path = tmp_path / "instance.json"
    save_instance(problem, path)
    assert _digest(path) == expected
    again = tmp_path / "again.json"
    save_instance(load_instance(path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("problem, algorithm", sorted(RUNS))
def test_run_json_and_summary_csv_bytes(walk_path, tmp_path, problem, algorithm):
    params, expected_json, expected_csv = RUNS[(problem, algorithm)]
    config = ExperimentConfig(problem=problem, algorithm=algorithm, budget=5, seeds=(0, 1),
                              problem_params=params, instance_seed=2)
    traces = [dataclasses.replace(t, acquisition_times=np.full(len(t), 0.25),
                                  update_times=np.full(len(t), 0.125))
              for t in run_experiment(config)]
    traces[1] = dataclasses.replace(traces[1], aborted=True, error="ValueError: not finite")
    summary = summarize(traces)
    export_json(tmp_path / "run.json", config.to_dict(), traces, summary)
    export_summary_csv(summary, tmp_path / "summary.csv")
    assert _digest(tmp_path / "run.json") == expected_json
    assert _digest(tmp_path / "summary.csv") == expected_csv


@pytest.mark.parametrize("eta", sorted(CHECKPOINTS, key=str))
def test_checkpoint_bytes(walk_path, tmp_path, eta):
    rng = np.random.default_rng(7)
    model = MonomialSurrogate(enumerate_basis(4, 2), 1.0, learning_rate=eta)
    for _ in range(3):
        model.update(sample_uniform(Unconstrained(4), rng), float(rng.uniform(-1, 1)))
    model.save(tmp_path / "model.txt")
    assert _digest(tmp_path / "model.txt") == CHECKPOINTS[eta]
