"""Recorded digests of small runs: every algorithm on every problem.

A run is a pure function of its seeds, so queries, values and regret must
reproduce bit-exactly. Each digest is the first 16 hex digits of a SHA-256
over the query bit strings or the little-endian float64 bytes of a value
array. A changed digest means the draw order of the acquisition or noise
streams (or the arithmetic of an oracle or of the walk) has changed. Every
run is checked on both walk paths, the native kernel and the Python walk,
and on the native path again under each BLAS core type.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import comex
from comex.harness import ExperimentConfig, run_single

PARAMS = {
    "contamination": {"d": 8},
    "nqueens": {"n": 4},
    "ising": {"rows": 3, "cols": 3},
}
BUDGETS = {"comex": 6, "rs": 15, "sa": 15}

# (queries, raw_values, scaled_values, regret) for seed 3 on instance seed 1.
# The comex entries follow the acquisition walk's batched draws (all move
# indices, then all uniforms, per chain; see acquisition.walk).
GOLDEN = {
    ("contamination", "comex"): ("7bfa65dc10cb3afa", "5e86c2bada8f8145",
                                 "22f50e536eb63e2c", "1a10575096f09f6e"),
    ("contamination", "rs"): ("4b803a6807201847", "a08187813f94089e",
                              "2f2183b37e059e28", "0107d8f771bb569d"),
    ("contamination", "sa"): ("76c1c26c18cf94cd", "d40d974c09469566",
                              "1eac00e7935c21fe", "31d48bd960f93e22"),
    ("nqueens", "comex"): ("9c290fd89d287b5d", "efae4acdfe7cb1c2",
                           "8d47d59febff69a0", "c8401a43d8a37215"),
    ("nqueens", "rs"): ("47845cb5eddf7a4b", "5f650f45e9568f80",
                        "bdd42ce19a5ccff7", "b643739bf9a8fb95"),
    ("nqueens", "sa"): ("bc654e5e80a0d53f", "7ad4b5078f14a545",
                        "21ded69f5db7aa70", "b643739bf9a8fb95"),
    ("ising", "comex"): ("45843601428b747a", "be33d34710ae28ee",
                         "4fcd6115ea4546a0", "99d418c4dd5285ff"),
    ("ising", "rs"): ("baeded70af70905e", "3b54f2b2157a08a1",
                      "a89ef5af47955761", "acdca97feb6a91ce"),
    ("ising", "sa"): ("1ca385c0d6837d29", "ec4f821a40410d77",
                      "47d3320630c9964b", "12fbee2b5cf2d80c"),
}

# The comex contamination run at m = 3, through the walk's degree >= 3 terms
# (every entry above is m = 2).
GOLDEN_M3 = ("75a153a4cd33e174", "1cb68a35b4e9f6fa", "cc1f1ce3e83d1a53", "770420089467051b")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def trace_digests(trace) -> tuple[str, ...]:
    queries = "".join("".join(str(int(b)) for b in q) + "|" for q in trace.queries)
    values = [np.asarray(v, dtype="<f8").tobytes()
              for v in (trace.raw_values, trace.scaled_values, trace.regret)]
    return (_digest(queries.encode()), *(_digest(v) for v in values))


def recorded_run_digests(problem, algorithm, m=2):
    config = ExperimentConfig(problem=problem, algorithm=algorithm, m=m,
                              budget=BUDGETS[algorithm], seeds=(3,),
                              problem_params=PARAMS[problem], instance_seed=1)
    trace = run_single(config, seed=3)
    assert len(trace) == BUDGETS[algorithm]
    return trace_digests(trace)


def check_recorded_run(problem, algorithm, m=2, expected=None):
    assert recorded_run_digests(problem, algorithm, m) == (expected or GOLDEN[(problem, algorithm)])


@pytest.mark.parametrize("problem, algorithm", sorted(GOLDEN))
def test_recorded_runs_reproduce(native_walk, problem, algorithm):
    check_recorded_run(problem, algorithm)


@pytest.mark.parametrize("problem, algorithm", sorted(GOLDEN))
def test_recorded_runs_reproduce_on_the_python_walk(python_walk, problem, algorithm):
    check_recorded_run(problem, algorithm)


def test_recorded_m3_run_reproduces(native_walk):
    check_recorded_run("contamination", "comex", m=3, expected=GOLDEN_M3)


def test_recorded_m3_run_reproduces_on_the_python_walk(python_walk):
    check_recorded_run("contamination", "comex", m=3, expected=GOLDEN_M3)


@pytest.mark.parametrize("core_type", ["Prescott", "Haswell", "SkylakeX"])
def test_recorded_runs_reproduce_under_each_blas_core_type(native_walk, core_type):
    """OpenBLAS picks its kernels, and with them its summation order, by CPU
    type, so a value that went through BLAS would differ between hosts."""
    runs = [(*key, 2) for key in sorted(GOLDEN)] + [("contamination", "comex", 3)]
    script = ("import json, sys; from comex import walk_kernel; import test_golden as g; "
              "assert walk_kernel.load() is not None; "
              "print(json.dumps([g.recorded_run_digests(*run) for run in json.loads(sys.argv[1])]))")
    paths = (str(Path(comex.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH"))
    env = {**os.environ, "OPENBLAS_CORETYPE": core_type,
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-3000:]
    digests = {"-".join(map(str, run)): tuple(d) for run, d in zip(runs, json.loads(result.stdout))}
    assert digests == {"-".join(map(str, run)): GOLDEN_M3 if run[2] == 3 else GOLDEN[run[:2]]
                       for run in runs}
