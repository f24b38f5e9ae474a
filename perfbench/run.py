"""COMEX benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload contam-comex --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory, in fresh worker processes with one BLAS thread and
COMEX_THREADS unset. One worker runs the workload's units in a closed loop
for --seconds; before and after it, SETUP_SPAWNS processes each import the
program and build the instance (`setup_s`). Every exported run
is checked with the benchmark's own code (checks.py). With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer ones. Workloads and their make-up: workloads.py and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import CHECKS, check_noise, check_reruns, check_unit, load_instance
from workloads import PINNED_ENV, UNSET_ENV, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SPAWNS = 4   # before the measurement, and as many after it
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "final_regret_mean": "regret",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans whose self time falls inside the optimization loop's steps.
LOOP_SPANS = ("harness.run", "acquisition.propose", "surrogate.update", "surrogate.predict",
              "surrogate.move_delta", "basis.features", "domain.neighbor_move",
              "domain.sample_uniform", "benchmarks.observe", "baselines.run")


class BenchmarkError(Exception):
    pass


def worker_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def time_setup(args, src: Path, env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Wall time from spawn to `ready` for SETUP_SPAWNS fresh processes."""
    setup_s, import_s = [], []
    for _ in range(SETUP_SPAWNS):
        cmd = [sys.executable, str(WORKER), "setup", "--src", str(src),
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        # Reads below block; killing the process at the deadline ends them.
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchmarkError(f"setup process failed with code {proc.returncode}")
        setup_s.append(ready)
        import_s.append(json.loads(rest.strip().splitlines()[-1])["import_s"])
    return setup_s, import_s


def run_worker(args, src: Path, env: dict, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "measure", "--src", str(src),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed with code {proc.returncode}")
    return json.loads((out / "worker.json").read_text())


def check_outputs(workload, out: Path, result: dict):
    """Check every exported run; return (failed units, problems, first-pass docs)."""
    oracle = CHECKS[workload.problem](load_instance(out / "instance.json"))
    failed, problems, keyed = 0, [], []
    for unit in result["units"]:
        doc = json.loads((out / unit["file"]).read_text())
        found = check_unit(doc, oracle, workload.budget)
        if any(name == "budget" for name, _ in found):
            failed += 1
        problems += [(name, f"{unit['file']}: {msg}") for name, msg in found
                     if name != "budget"]
        keyed.append(((unit["algorithm"], unit["seed"]), doc))
    problems += check_reruns(keyed)
    first_pass = list({key: doc for key, doc in reversed(keyed)}.values())
    problems += check_noise(first_pass, oracle)
    return failed, problems, first_pass


def evals_per_s(units: list[dict]) -> float:
    return statistics.median(u["evals"] / u["elapsed_s"] for u in units)


def end_to_end(units, first_pass, setup_s, peak_rss_mb) -> dict:
    steps_ms = np.array([s for u in units for s in u["steps_s"]]) * 1e3
    return {
        "evals_per_s": evals_per_s(units),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "final_regret_mean": statistics.fmean(d["traces"][0]["regret"][-1] for d in first_pass),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, result, first_pass, import_s) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the step accounting."""
    trace = result["trace"]
    total, first = trace["total"], trace["first_pass"]
    traced = [u for u in result["units"] if u["traced"]]
    untraced = [u for u in result["units"] if not u["traced"]]
    evals = sum(u["evals"] for u in traced)
    step_s = statistics.fmean(s for u in traced for s in u["steps_s"])

    def per_call(name, scale):
        span = total[name]
        return span["total_s"] / span["calls"] * scale if span["calls"] else 0.0

    def share(name):
        return total[name]["total_s"] / evals / step_s

    proposals = total["acquisition.propose"]["calls"] * workload.inner_iters
    distinct = statistics.fmean(len(set(d["traces"][0]["queries"])) / workload.budget
                                for d in first_pass)
    accounted = sum(total[name]["self_s"] for name in LOOP_SPANS) / evals
    metrics = {
        "acquisition.propose_ms": (per_call("acquisition.propose", 1e3), "ms"),
        "acquisition.proposal_us": (
            total["acquisition.propose"]["total_s"] / proposals * 1e6 if proposals else 0.0, "us"),
        "acquisition.proposals": (first["acquisition.propose"]["calls"] * workload.inner_iters,
                                  "count"),
        "acquisition.distinct_query_ratio": (distinct, "ratio"),
        "acquisition.step_share": (share("acquisition.propose"), "ratio"),
        "surrogate.update_us": (per_call("surrogate.update", 1e6), "us"),
        "surrogate.update_calls": (first["surrogate.update"]["calls"], "count"),
        "surrogate.predict_us": (per_call("surrogate.predict", 1e6), "us"),
        "surrogate.move_delta_us": (per_call("surrogate.move_delta", 1e6), "us"),
        "basis.features_us": (per_call("basis.features", 1e6), "us"),
        "basis.features_calls": (first["basis.features"]["calls"], "count"),
        "domain.neighbor_move_us": (per_call("domain.neighbor_move", 1e6), "us"),
        "domain.neighbor_move_calls": (first["domain.neighbor_move"]["calls"], "count"),
        "domain.sample_uniform_us": (per_call("domain.sample_uniform", 1e6), "us"),
        "benchmarks.observe_ms": (per_call("benchmarks.observe", 1e3), "ms"),
        "benchmarks.observe_calls": (first["benchmarks.observe"]["calls"], "count"),
        "benchmarks.observe_step_share": (share("benchmarks.observe"), "ratio"),
        "baselines.step_us": (total["baselines.run"]["self_s"] / evals * 1e6, "us"),
        "harness.build_problem_ms": (per_call("harness.build_problem", 1e3), "ms"),
        "harness.build_problem_calls": (first["harness.build_problem"]["calls"], "count"),
        "harness.loop_overhead_us": (total["harness.run"]["self_s"] / evals * 1e6, "us"),
        "results.build_trace_ms": (per_call("results.build_trace", 1e3), "ms"),
        "results.summarize_ms": (per_call("results.summarize", 1e3), "ms"),
        "results.export_json_ms": (per_call("results.export_json", 1e3), "ms"),
        "comex.import_s": (statistics.median(import_s), "s"),
        "trace.overhead_ratio": (evals_per_s(traced) / evals_per_s(untraced), "ratio"),
        "trace.accounted_ratio": (accounted / step_s, "ratio"),
    }
    accounting = {
        "step_ms_mean": step_s * 1e3,
        "self_ms_per_eval": {name: total[name]["self_s"] / evals * 1e3 for name in LOOP_SPANS},
        "absent": trace["absent"],
    }
    return metrics, accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "comex" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'comex'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = worker_env(src)
    out = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)   # left behind by a killed run
    out.mkdir(parents=True)
    try:
        setup_s, import_s = time_setup(args, src, env, deadline)
        result = run_worker(args, src, env, out, deadline)
        after_s, after_import_s = time_setup(args, src, env, deadline)
        setup_s += after_s
        import_s += after_import_s
        failed, problems, first_pass = check_outputs(workload, out, result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "problems": problems}
    if args.trace:
        layers, report["accounting"] = per_layer(workload, result, first_pass, import_s)
    else:
        layers = {name: (value, END_TO_END_UNITS[name]) for name, value in
                  end_to_end(result["units"], first_pass, setup_s,
                             result["peak_rss_mb"]).items()}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    report["metrics"] = metrics
    (HERE / "out" / f"last-{args.workload}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for name, problem in problems:
        print(f"CHECK FAILED [{name}] {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        for name, ms in report["accounting"]["self_ms_per_eval"].items():
            print(f"  self time per evaluation: {name:22s} {ms:9.4f} ms")
        if report["accounting"]["absent"]:
            print(f"  absent span targets: {', '.join(report['accounting']['absent'])}")
    print(json.dumps({"correct": not problems, "attempted": len(result["units"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
