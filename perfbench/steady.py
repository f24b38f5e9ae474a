"""Steadiness of the benchmark: every workload, two sets of several seeds.

    python3 perfbench/steady.py --runs 10

Run from the checkout root. Reads BENCHMARK.json for the command, the run
length, the workloads and the end-to-end bounds, and runs the command once
per (set, workload, seed), workloads interleaved, each run with its own seed
counted up from FIRST_SEED. For each set it prints, per workload and
end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the
interquartile distance as a share of the median, against the bound. Then it
prints how much worse the second set's medians are than the first's, and the
share of failed units in each set. It ends with STEADY, and exits 0, only if
every spread and every change of median is within its bound and no unit
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2
FIRST_SEED = 1000


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, later: float, better: str) -> float:
    """Relative change from first to later, positive when later is worse."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--out", default="perfbench/out/steady.json")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]

    runs: dict = {}   # "set/workload" -> list of results
    seed = FIRST_SEED
    for set_index in range(SETS):
        for _ in range(args.runs):
            for name in names:
                result = run_once(bench["command"], name, seed, bench["run_seconds"])
                runs.setdefault(f"{set_index}/{name}", []).append({"seed": seed, **result})
                print(f"set {set_index} {name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
                seed += 1
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")

    ok = True
    medians: dict = {}
    print(f"{'set':>3} {'workload':16} {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for set_index in range(SETS):
        for name in names:
            results = runs[f"{set_index}/{name}"]
            ok &= all(r["correct"] for r in results)
            for metric in metrics:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians[set_index, name, metric["name"]] = median
                if spread <= metric["bound"] / 3:
                    verdict = "steady"
                elif spread <= metric["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"{set_index:>3} {name:16} {metric['name']:18} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.4f} {metric['bound']:6.3f}  {verdict}")
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            ok &= failed == 0
            print(f"{set_index:>3} {name:16} failed share {failed}/{attempted}"
                  f"{'' if failed == 0 else '  FAILED UNITS'}")
    for set_index in range(1, SETS):
        for name in names:
            for metric in metrics:
                drift = worse_by(medians[0, name, metric["name"]],
                                 medians[set_index, name, metric["name"]], metric["better"])
                verdict = "ok" if drift <= metric["bound"] else "WORSE THAN BOUND"
                ok &= drift <= metric["bound"]
                print(f"set {set_index} vs 0 {name:16} {metric['name']:18} "
                      f"worse by {drift:+.4f} (bound {metric['bound']})  {verdict}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
