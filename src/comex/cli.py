"""Command-line entry point.

Subcommands:
  run             one experiment (problem x algorithm x seeds), CSV/JSON out
  audit-lemma1    per-step check of the KL-drop inequality for the updates
  audit-theorem1  per-step check of the Boltzmann-acquisition guarantee

Exit codes: 0 success (all checks passed where applicable), 1 failed checks
or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

import numpy as np

from .audits import exponential_acquisition_audit, kl_drop_audit
from .benchmarks import save_instance
from .benchmarks.registry import PROBLEM_PARAMS, PROBLEMS
from .harness import ALGORITHMS, ExperimentConfig, build_problem, read_config_file, run_experiment
from .results import export_json, export_summary_csv, summarize

__all__ = ["main"]


def parse_seeds(spec: str) -> tuple[int, ...]:
    """'0..9' (inclusive range), '0,3,7', or a single integer."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        if "," in spec:
            return tuple(int(s) for s in spec.split(",") if s.strip())
        return (int(spec),)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected '0..9', '0,1,4' or one integer, got {spec!r}") from None


def parse_eta(text: str) -> float | None:
    """'adaptive' (None: the adaptive schedule) or a fixed step size."""
    if text == "adaptive":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'adaptive' or a number, got {text!r}") from None


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per registered problem parameter, None when not given."""
    for name, kind_type in PROBLEM_PARAMS.items():
        kinds = ", ".join(k for k, kind in PROBLEMS.items() if name in kind.params)
        parser.add_argument("--" + name.replace("_", "-"), type=kind_type, default=None,
                            help=f"problem parameter ({kinds})")


def _add_audit_flags(parser: argparse.ArgumentParser, steps: int) -> None:
    """The instance, step-size and seeding flags both audits share."""
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--eta", type=float, default=0.01)
    parser.add_argument("--steps", type=int, default=steps)
    parser.add_argument("--instances", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The top-level parser and its `run` subparser."""
    parser = argparse.ArgumentParser(
        prog="comex",
        description="Black-box minimization on the Boolean hypercube "
                    "(monomial-expert surrogate + annealed acquisition).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    run = sub.add_parser("run", help="run one experiment and export results",
                         formatter_class=fmt)
    run.add_argument("--config",
                     help="file of 'flag = value' lines, keyed by long flag names "
                          "(lambda, time_budget, dedup = true); explicit flags win")
    # Each flag that sets an ExperimentConfig field has that field as its
    # dest, and takes its default from the field (set_defaults below).
    run.add_argument("--problem", choices=list(PROBLEMS))
    run.add_argument("--algo", dest="algorithm", choices=list(ALGORITHMS))
    run.add_argument("--budget", type=int, help="oracle evaluations per run")
    run.add_argument("--seeds", type=parse_seeds, help="e.g. '0..9' or '0,1,4'")
    run.add_argument("--m", type=int, help="maximum monomial order")
    run.add_argument("--lambda", dest="sparsity", type=float,
                     help="total weight mass of the surrogate")
    run.add_argument("--omega", type=float, help="annealing decay")
    run.add_argument("--inner-iters", type=int,
                     help="annealing proposals per acquisition (default 20*d)")
    run.add_argument("--eta", type=parse_eta, help="'adaptive' or a fixed step size")
    run.add_argument("--time-budget", dest="wall_clock_budget", type=float,
                     metavar="TIME_BUDGET", help="wall-clock budget in seconds")
    run.add_argument("--clock", dest="wall_clock_mode", choices=["total", "algorithm"],
                     help="which clock counts toward the time budget")
    run.add_argument("--instance-seed", type=int)
    run.add_argument("--instance-file", type=str, help="load a frozen benchmark instance")
    run.add_argument("--save-instance", type=str, default=None,
                     help="write the instance file and continue")
    run.add_argument("--dedup", action="store_true",
                     help="re-anneal once when a proposal repeats an old query")
    run.add_argument("--chains", dest="acq_chains", type=int, metavar="CHAINS",
                     help="annealing chains per acquisition (best result wins)")
    run.set_defaults(**{f.name: f.default for f in fields(ExperimentConfig)
                        if f.default is not MISSING})
    _add_problem_flags(run)
    run.add_argument("--out", type=str, default=None, help="output path")
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    drop_audit = sub.add_parser("audit-lemma1", formatter_class=fmt,
                                help="per-step PASS/FAIL of the update KL-drop inequality")
    _add_audit_flags(drop_audit, steps=200)
    drop_audit.add_argument("--lambda", dest="sparsity", type=float, default=1.0)
    drop_audit.add_argument("--quiet", action="store_true", help="print failures only")
    drop_audit.set_defaults(
        audit=lambda a, rng: kl_drop_audit(a.d, a.m, a.eta, a.steps, rng, sparsity=a.sparsity),
        step_line="{0.step:4d}: drop={0.drop: .3e} bound={0.bound: .3e} loss={0.loss: .4f}",
        claim="KL-drop inequality")

    acq_audit = sub.add_parser("audit-theorem1", formatter_class=fmt,
                               help="per-step PASS/FAIL of the acquisition guarantee")
    _add_audit_flags(acq_audit, steps=5)
    acq_audit.add_argument("--temperature", "--T", dest="temperature", type=float, default=1.0)
    acq_audit.set_defaults(
        audit=lambda a, rng: exponential_acquisition_audit(a.d, a.m, a.temperature, a.eta,
                                                           a.steps, rng),
        step_line="{0.step:3d}: eps={0.epsilon:.5f} E[drop]={0.expected_drop: .3e} "
                  "bound={0.bound: .3e}",
        claim="acquisition bound", quiet=False)
    return parser, run


def _config_tokens(run: argparse.ArgumentParser, path: str) -> list[str]:
    """A `--config` file as `--flag=value` tokens for the run parser.

    Keys are long flag names (`-` or `_`); `true`/`false` turns a switch on
    or off. A key that names no flag of `run`, or a value that flag rejects,
    is a usage error naming the file and the key.
    """
    flags = {opt[2:].replace("-", "_"): action for action in run._actions
             for opt in action.option_strings if opt.startswith("--")}
    tokens = []
    for key, value in read_config_file(path).items():
        action = flags.get(key)
        if action is None or key in ("help", "config"):
            run.error(f"{path}: unknown key {key!r}")
        flag = "--" + key.replace("_", "-")
        if action.nargs != 0:
            try:
                run._get_values(action, [value])
            except argparse.ArgumentError as exc:
                run.error(f"{path}: key {key!r}: {exc}")
            tokens.append(f"{flag}={value}")
        elif value.lower() not in ("true", "false"):
            run.error(f"{path}: key {key!r} takes true or false, got {value!r}")
        elif value.lower() == "true":
            tokens.append(flag)
    return tokens


def _run_command(args) -> int:
    config = ExperimentConfig(problem_params=_problem_params(args),
                              **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                                 if f.name != "problem_params"})

    oracle = None
    if args.save_instance:
        problem, oracle = build_problem(config)
        save_instance(problem, args.save_instance)
        print(f"instance written to {args.save_instance}")

    traces = run_experiment(config, oracle)
    summary = summarize(traces)
    print(f"{config.problem} / {config.algorithm}: {summary.n_runs} run(s), "
          f"{summary.length} steps")
    print(f"final regret: mean {summary.final_mean:.6f} "
          f"+/- {summary.final_stderr:.6f}, median {summary.final_median:.6f}")
    print(f"mean algorithm time per step: "
          f"{summary.mean_algorithm_time_per_step * 1e3:.3f} ms, "
          f"late/early ratio {_late_early_ratio(traces):.3f}")
    for trace in traces:
        if trace.aborted:
            print(f"seed {trace.seed}: ABORTED after {len(trace)} steps ({trace.error})")
        elif trace.truncated:
            print(f"seed {trace.seed}: wall-clock truncated at {len(trace)} steps")

    if args.out:
        if args.format == "csv":
            export_summary_csv(summary, args.out)
        else:
            export_json(args.out, config.to_dict(), traces, summary)
        print(f"results written to {args.out}")
    return 1 if any(t.aborted for t in traces) else 0


def _late_early_ratio(traces) -> float:
    """Mean algorithm time of a run's last min(100, n) steps over that of
    its first min(100, n), averaged over the runs."""
    ratios = []
    for times in (trace.algorithm_times() for trace in traces):
        window = min(100, len(times))
        ratios.append(times[-window:].mean() / times[:window].mean())
    return float(np.mean(ratios))


def _problem_params(args) -> dict:
    """Every problem parameter given as a flag (or in a config file)."""
    return {key: getattr(args, key) for key in PROBLEM_PARAMS
            if getattr(args, key, None) is not None}


def _audit_command(args) -> int:
    """Run the command's `audit(args, rng)` on instances seeded seed,
    seed + 1, ...; print each step (only the failures under --quiet) as
    "instance k step " + step_line.format(step) and a verdict, then each
    instance's tally."""
    if args.instances < 1:
        raise ValueError(f"instances must be at least 1, got {args.instances!r}")
    failures = 0
    for k in range(args.instances):
        report = args.audit(args, np.random.default_rng(args.seed + k))
        for step in report.steps:
            if not args.quiet or not step.holds:
                verdict = "PASS" if step.holds else "FAIL"
                print(f"instance {k} step {args.step_line.format(step)} {verdict}")
        n_failed, n_steps = len(report.violations), len(report.steps)
        failures += n_failed
        print(f"instance {k}: {n_steps - n_failed}/{n_steps} steps hold")
    if failures:
        print(f"FAIL: {failures} step(s) violate the {args.claim}")
        return 1
    print(f"PASS: every audited step satisfies the {args.claim}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, run = _build_parser()
    commands = {"run": _run_command, "audit-lemma1": _audit_command,
                "audit-theorem1": _audit_command}
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.config:
            # The file's tokens go first: argparse keeps the last value, so
            # flags given on the command line win.
            tokens = _config_tokens(run, args.config)
            args = parser.parse_args(["run", *tokens, *argv[argv.index("run") + 1:]])
        return commands[args.command](args)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
