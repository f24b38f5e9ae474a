"""Run traces, simple-regret accounting, multi-seed summaries, and export.

A trace holds one row per oracle call. Simple regret at step t is the
smallest |observation - f*| over the first t observations, where f* is -1
for envelope-scaled oracles and the configured reference level otherwise.
Regret and best-so-far are therefore nonincreasing by construction. Wall
times are measurement metadata and are excluded from the determinism
contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "RunTrace",
    "Summary",
    "simple_regret",
    "summarize",
    "export_summary_csv",
    "export_json",
]

CSV_HEADER = "step,mean_regret,stderr,mean_step_time_s"


def simple_regret(values, f_star: float) -> np.ndarray:
    """Running minimum of |value - f*|."""
    values = np.asarray(values, dtype=np.float64)
    return np.minimum.accumulate(np.abs(values - f_star))


@dataclass
class RunTrace:
    """Per-step record of one optimization run."""

    algorithm: str
    seed: int
    queries: list[np.ndarray]          # bit vectors
    raw_values: np.ndarray
    scaled_values: np.ndarray
    best_scaled: np.ndarray
    regret: np.ndarray
    acquisition_times: np.ndarray      # seconds spent producing each point
    update_times: np.ndarray           # seconds spent updating the model
    regret_anchor: float
    regret_axis: str = "scaled"        # 'raw' for reference-level oracles
    truncated: bool = False            # wall-clock budget cut the run short
    aborted: bool = False              # oracle failure; partial trace kept
    error: str | None = None

    def __len__(self):
        return len(self.scaled_values)

    @property
    def final_regret(self) -> float:
        return float(self.regret[-1])

    def algorithm_times(self) -> np.ndarray:
        return self.acquisition_times + self.update_times


def build_trace(algorithm: str, seed: int, rows: list[dict], oracle,
                truncated: bool = False, aborted: bool = False,
                error: str | None = None) -> RunTrace:
    """Assemble a RunTrace from per-step row dicts keyed by RunTrace's
    per-step field names: each key becomes that field's column (`queries` a
    list of bit vectors, every other key a float array). Regret follows the
    oracle's anchor. To record one more value per step, declare a RunTrace
    field and add the same key to `harness.drive`'s row; the JSON export
    writes every field."""
    if not rows:
        raise ValueError("a run must contain at least one oracle call")
    columns = {key: [row[key] for row in rows] if key == "queries"
               else np.array([row[key] for row in rows]) for key in rows[0]}
    raw, scaled = columns["raw_values"], columns["scaled_values"]
    anchor = oracle.regret_anchor
    axis = oracle.regret_axis
    if axis == "raw":
        if raw.min() < anchor:
            raise ValueError(
                f"reference level {anchor} is not below all observed values "
                f"(min observation {raw.min()})"
            )
        regret = simple_regret(raw, anchor)
    else:
        regret = simple_regret(scaled, anchor)
    return RunTrace(algorithm=algorithm, seed=seed, best_scaled=np.minimum.accumulate(scaled),
                    regret=regret, regret_anchor=anchor, regret_axis=axis,
                    truncated=truncated, aborted=aborted, error=error, **columns)


@dataclass
class Summary:
    """Across-seed aggregate: per-step mean regret with standard error."""

    n_runs: int
    mean_regret: np.ndarray
    stderr: np.ndarray
    mean_step_time_s: np.ndarray
    final_regrets: np.ndarray
    n_padded: int = 0

    @property
    def length(self) -> int:
        return len(self.mean_regret)

    @property
    def final_mean(self) -> float:
        return float(self.final_regrets.mean())

    @property
    def final_stderr(self) -> float:
        if self.n_runs < 2:
            return 0.0
        return float(self.final_regrets.std(ddof=1) / np.sqrt(self.n_runs))

    @property
    def final_median(self) -> float:
        return float(np.median(self.final_regrets))

    @property
    def mean_algorithm_time_per_step(self) -> float:
        return float(self.mean_step_time_s.mean())


def summarize(traces: list[RunTrace]) -> Summary:
    """Per-step mean regret and standard error of the mean across runs.

    Shorter (wall-clock-truncated) traces are padded by carrying the last
    regret forward; padding is counted in n_padded. Step times cover the
    algorithm only (acquisition + model update), never the oracle, and each
    step's is averaged over the runs that reached it.
    """
    if not traces:
        raise ValueError("cannot summarize an empty list of traces")
    length = max(len(t) for t in traces)
    n_padded = sum(1 for t in traces if len(t) < length)
    regrets = np.stack([
        np.concatenate([t.regret, np.full(length - len(t), t.regret[-1])])
        for t in traces
    ])
    times = np.stack([
        np.concatenate([t.algorithm_times(), np.full(length - len(t), np.nan)])
        for t in traces
    ])
    n = len(traces)
    stderr = (regrets.std(axis=0, ddof=1) / np.sqrt(n)) if n > 1 else np.zeros(length)
    return Summary(
        n_runs=n,
        mean_regret=regrets.mean(axis=0),
        stderr=stderr,
        mean_step_time_s=np.nanmean(times, axis=0),
        final_regrets=np.array([t.final_regret for t in traces]),
        n_padded=n_padded,
    )


def export_summary_csv(summary: Summary, path) -> None:
    """Fixed-schema CSV; floats at full round-trip precision."""
    lines = [CSV_HEADER]
    for k in range(summary.length):
        lines.append(
            f"{k + 1},{float(summary.mean_regret[k])!r},"
            f"{float(summary.stderr[k])!r},{float(summary.mean_step_time_s[k])!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _record(record) -> dict:
    """One key per field of a RunTrace or Summary, in declaration order:
    queries as bit strings, arrays and floats as Python floats, the rest as
    they are."""
    doc = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "queries":
            value = ["".join(str(int(b)) for b in q) for q in value]
        elif f.type in ("np.ndarray", "float"):
            value = np.asarray(value, dtype=np.float64).tolist()
        doc[f.name] = value
    return doc


def export_json(path, config: dict, traces: list[RunTrace],
                summary: Summary | None = None) -> None:
    """Traces plus a config echo (and optionally the summary) as JSON."""
    doc: dict = {"config": config, "traces": [_record(t) for t in traces]}
    if summary is not None:
        doc["summary"] = _record(summary)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
