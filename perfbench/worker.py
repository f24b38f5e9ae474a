"""Benchmark worker: the only process that imports the program.

    python3 perfbench/worker.py setup   --src SRC --workload W --seed N
    python3 perfbench/worker.py measure --src SRC --workload W --seed N
                                        --seconds T --trace 0|1 --out DIR

`setup` imports `comex` from SRC, builds the workload's instance, prints
`ready` and then one JSON line with the import time. The parent times it
from process start to `ready`.

`measure` runs the workload's units in a closed loop for T seconds, and at
least one whole pass plus one rerun of the first unit. Each unit exports its
run JSON into DIR; DIR/worker.json lists the units with their wall times and
step times, the peak RSS and, with --trace 1, the span totals. With tracing
the first half of the time runs untraced, to size the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def _import_comex(src: str):
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    comex = importlib.import_module("comex")
    if src_dir not in Path(comex.__file__).resolve().parents:
        raise SystemExit(f"comex imported from {comex.__file__}, not from {src_dir}")
    return comex


def _build_instance(comex, workload, seed: int):
    algo, run_seed = workload.units(seed)[0]
    config = comex.ExperimentConfig(**workload.config_kwargs(seed, algo, run_seed))
    problem, _ = comex.build_problem(config)
    return problem


def setup(args) -> int:
    start = time.perf_counter()
    comex = _import_comex(args.src)
    import_s = time.perf_counter() - start
    _build_instance(comex, WORKLOADS[args.workload], args.seed)
    print("ready", flush=True)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


class StepClock:
    """Stamps the return of every oracle evaluation.

    The step time is the gap between consecutive returns within one run: the
    acquisition (or proposal), the model update and the evaluation itself.
    """

    def __init__(self, oracle_cls):
        self.stamps: list[float] = []
        observe = oracle_cls.observe
        stamps = self.stamps
        clock = time.perf_counter

        def timed_observe(*args, **kwargs):
            result = observe(*args, **kwargs)
            stamps.append(clock())
            return result

        oracle_cls.observe = timed_observe

    def take_steps(self) -> tuple[int, list[float]]:
        stamps = self.stamps
        steps = [b - a for a, b in zip(stamps, stamps[1:])]
        count = len(stamps)
        stamps.clear()
        return count, steps


def _run_unit(comex, workload, seed, algo, run_seed, path, clock, budget=None) -> dict:
    config = comex.ExperimentConfig(**workload.config_kwargs(seed, algo, run_seed, budget))
    clock.take_steps()
    start = time.perf_counter()
    traces = comex.run_experiment(config)
    summary = comex.summarize(traces)
    comex.export_json(path, config.to_dict(), traces, summary)
    elapsed = time.perf_counter() - start
    evals, steps = clock.take_steps()
    return {"algorithm": algo, "seed": run_seed, "file": path.name,
            "elapsed_s": elapsed, "evals": evals, "steps_s": steps}


def measure(args) -> int:
    comex = _import_comex(args.src)
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    comex.benchmarks.save_instance(_build_instance(comex, workload, args.seed),
                                   out / "instance.json")
    clock = StepClock(comex.benchmarks.Oracle)
    plan = workload.units(args.seed)

    # Warm-up: first calls pay lazy imports and allocator growth.
    algo, run_seed = plan[0]
    _run_unit(comex, workload, args.seed, algo, run_seed, out / "warmup.json", clock, budget=3)
    (out / "warmup.json").unlink()

    units: list[dict] = []

    def run_segment(seconds: float, min_units: int, traced: bool, on_pass=None):
        start = time.perf_counter()
        done = 0
        while done < min_units or time.perf_counter() - start < seconds:
            algo, run_seed = plan[done % len(plan)]
            record = _run_unit(comex, workload, args.seed, algo, run_seed,
                               out / f"unit{len(units):04d}.json", clock)
            record["traced"] = traced
            units.append(record)
            done += 1
            if done == len(plan) and on_pass is not None:
                on_pass()

    result: dict = {}
    if args.trace:
        from tracer import Tracer

        run_segment(args.seconds / 2, 1, traced=False)
        tracer = Tracer()
        tracer.install()
        first_pass: dict = {}
        try:
            run_segment(args.seconds / 2, len(plan), traced=True,
                        on_pass=lambda: first_pass.update(tracer.snapshot()))
        finally:
            tracer.uninstall()
        result["trace"] = {"first_pass": first_pass, "total": tracer.snapshot(),
                           "absent": tracer.absent}
    else:
        run_segment(args.seconds, len(plan) + 1, traced=False)

    result["units"] = units
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "worker.json").write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup(args)
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
