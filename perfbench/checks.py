"""Output checks that share no code with the program.

Every check reads the run JSON that `comex.export_json` wrote and the
instance file that `comex.benchmarks.save_instance` wrote, and recomputes
what it needs with its own code: the contamination path loop, the n-queens
row, column and diagonal conflicts, and KL(p || q_x) for the Ising pruning
problem by enumerating every spin state. `check_unit`, `check_noise` and
`check_reruns` return a list of (check, message) pairs; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RAW_TOL = 1e-9        # relative, for raw values recomputed in another order
SCALED_TOL = 1e-12
NOISE_SIGMAS = 6.0    # observation noise allowed on noisy oracles
ISING_SAMPLE = 5      # queries per run whose KL is recomputed by enumeration
EXHAUSTIVE_EDGE_LIMIT = 16   # up to this many edges the oracle uses the exact range


def _decode(value):
    if isinstance(value, dict):
        if set(value) == {"hex"}:
            return float.fromhex(value["hex"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def load_instance(path) -> dict:
    """Instance file as plain Python values, every real decoded from hex."""
    return _decode(json.loads(Path(path).read_text()))


def bits_of(query: str) -> np.ndarray:
    return np.array([int(c) for c in query], dtype=np.int64)


class ContaminationCheck:
    regret_axis, regret_anchor = "raw", 0.0

    def __init__(self, inst: dict):
        self.d = int(inst["d"])
        self.u = float(inst["u"])
        self.costs = np.array(inst["costs"], dtype=np.float64)
        self.rho = float(inst["rho"])
        self.lam = float(inst["lambda_reg"])
        self.init_z = np.array(inst["init_z"], dtype=np.float64)
        self.rates_a = np.array(inst["rates_a"], dtype=np.float64)
        self.rates_b = np.array(inst["rates_b"], dtype=np.float64)
        self.hi = float(self.costs.sum()) + self.rho * self.d + self.lam * self.d
        self.sigma = 0.0

    def raw(self, bits: np.ndarray) -> float:
        z = self.init_z.copy()
        violations = 0.0
        for stage in range(self.d):
            if bits[stage]:                       # intervene: restoration damps z
                z = (1.0 - self.rates_b[stage]) * z
            else:                                 # skip: contamination grows z
                z = self.rates_a[stage] * (1.0 - z) + z
            violations += np.count_nonzero(z > self.u) / z.size
        kept = float(bits.sum())
        return float(self.costs[bits == 1].sum()) + self.rho * violations + self.lam * kept

    def scaled(self, raw: float) -> float:
        return 2.0 * raw / self.hi - 1.0

    def sample(self, n_queries: int, best: int) -> list[int]:
        return list(range(n_queries))


class QueensCheck:
    regret_axis, regret_anchor = "scaled", -1.0

    def __init__(self, inst: dict):
        self.n = int(inst["n"])
        self.sigma = float(inst["noise_sigma"])
        row0 = np.zeros(self.n * self.n, dtype=np.int64)
        row0[: self.n] = 1
        self.hi = self.raw(row0)

    def raw(self, bits: np.ndarray) -> float:
        board = bits.reshape(self.n, self.n)
        rows = sum((int(r) - 1) ** 2 for r in board.sum(axis=1))
        cols = sum((int(c) - 1) ** 2 for c in board.sum(axis=0))
        queens = [divmod(int(k), self.n) for k in np.flatnonzero(bits)]
        diagonal_pairs = sum(
            1
            for a, (ra, ca) in enumerate(queens)
            for rb, cb in queens[a + 1:]
            if ra - ca == rb - cb or ra + ca == rb + cb
        )
        return float(rows + cols + diagonal_pairs)

    def scaled(self, raw: float) -> float:
        return 2.0 * raw / self.hi - 1.0

    def sample(self, n_queries: int, best: int) -> list[int]:
        return list(range(n_queries))


class IsingCheck:
    regret_axis, regret_anchor = "scaled", -1.0

    def __init__(self, inst: dict):
        n = int(inst["rows"]) * int(inst["cols"])
        self.edges = [tuple(e) for e in inst["edges"]]
        if len(self.edges) <= EXHAUSTIVE_EDGE_LIMIT:
            raise ValueError("small Ising instances are scaled by their exact range; "
                             "only the provable envelope is checked here")
        self.coupling = np.array(inst["coupling"], dtype=np.float64)
        self.lam = float(inst["lambda_reg"])
        codes = np.arange(2**n)
        spins = 2 * ((codes[:, None] >> np.arange(n)) & 1) - 1
        # One column per edge: z_u * z_v in every state.
        self.pairs = np.stack([spins[:, u] * spins[:, v] for u, v in self.edges],
                              axis=1).astype(np.float64)
        self.energy_p = self.pairs @ (2.0 * self.coupling)
        self.log_z_p = self._log_sum_exp(self.energy_p)
        self.hi = (2.0 * float(self.coupling.sum()) + n * math.log(2.0)
                   + self.lam * len(self.edges))
        self.sigma = 0.0

    @staticmethod
    def _log_sum_exp(values: np.ndarray) -> float:
        top = float(values.max())
        return top + math.log(float(np.exp(values - top).sum()))

    def raw(self, bits: np.ndarray) -> float:
        energy_q = self.pairs @ (2.0 * self.coupling * bits)
        log_p = self.energy_p - self.log_z_p
        log_q = energy_q - self._log_sum_exp(energy_q)
        kl = float(np.exp(log_p) @ (log_p - log_q))
        return kl + self.lam * float(bits.sum())

    def scaled(self, raw: float) -> float:
        return 2.0 * raw / self.hi - 1.0

    def sample(self, n_queries: int, best: int) -> list[int]:
        spaced = np.linspace(0, n_queries - 1, ISING_SAMPLE - 1).round().astype(int)
        return sorted({best, *spaced.tolist()})


CHECKS = {"contamination": ContaminationCheck, "nqueens": QueensCheck,
          "ising": IsingCheck}


def check_unit(doc: dict, oracle, budget: int) -> list[tuple[str, str]]:
    """Check one exported single-seed run against the recomputed oracle."""
    problems: list[tuple[str, str]] = []
    [trace] = doc["traces"]
    queries = trace["queries"]
    raw = trace["raw_values"]
    scaled = trace["scaled_values"]
    regret = trace["regret"]

    if trace["truncated"] or trace["aborted"] or trace["error"] is not None:
        problems.append(("budget", f"run stopped early: truncated={trace['truncated']} "
                                   f"aborted={trace['aborted']} error={trace['error']}"))
    lengths = {len(queries), len(raw), len(scaled), len(regret), len(trace["best_scaled"]),
               len(doc["summary"]["mean_regret"])}
    if lengths != {budget}:
        problems.append(("budget", f"expected {budget} evaluations, lengths {sorted(lengths)}"))
        return problems
    bits = [bits_of(q) for q in queries]
    if any(b.size != len(bits[0]) or not set(b.tolist()) <= {0, 1} for b in bits):
        problems.append(("raw", "queries are not bit strings of one length"))
        return problems

    if isinstance(oracle, QueensCheck):
        for k, b in enumerate(bits):
            if int(b.sum()) != oracle.n:
                problems.append(("queen_count", f"query {k} has {int(b.sum())} queens"))

    if trace["algorithm"] == "sa":
        for k in range(1, len(bits)):
            if not any(int(np.count_nonzero(bits[k] != bits[j])) == 1 for j in range(k)):
                problems.append(("sa_walk", f"query {k} is not one flip from an earlier query"))

    best = int(np.argmin(scaled))
    for k in oracle.sample(len(bits), best):
        expected = oracle.raw(bits[k])
        if abs(raw[k] - expected) > RAW_TOL * max(1.0, abs(expected)):
            problems.append(("raw", f"query {k}: raw {raw[k]!r}, recomputed {expected!r}"))
    for k, (r, s) in enumerate(zip(raw, scaled)):
        if abs(s - oracle.scaled(r)) > SCALED_TOL + NOISE_SIGMAS * oracle.sigma:
            problems.append(("scaled", f"query {k}: scaled {s!r} from raw {r!r}"))

    if trace["regret_axis"] != oracle.regret_axis or trace["regret_anchor"] != oracle.regret_anchor:
        problems.append(("regret", f"regret on {trace['regret_axis']} axis at "
                                   f"{trace['regret_anchor']}"))
    values = raw if oracle.regret_axis == "raw" else scaled
    running, best_scaled = math.inf, math.inf
    for k, (v, s) in enumerate(zip(values, scaled)):
        running = min(running, abs(v - oracle.regret_anchor))
        best_scaled = min(best_scaled, s)
        if regret[k] != running or trace["best_scaled"][k] != best_scaled:
            problems.append(("regret", f"step {k}: regret {regret[k]!r}, recomputed {running!r}"))
            break
    if any(b > a for a, b in zip(regret, regret[1:])) or min(regret) < 0.0:
        problems.append(("regret", "regret increases or is negative"))
    if oracle.regret_axis == "raw" and min(raw) < oracle.regret_anchor:
        problems.append(("regret", f"raw value {min(raw)!r} below the regret anchor"))
    return problems


def check_noise(docs: list[dict], oracle) -> list[tuple[str, str]]:
    """Pooled residuals `scaled - scale(raw)` of distinct runs must look like the noise.

    Each value on its own may sit up to NOISE_SIGMAS sigma from its raw value,
    so a systematic error of a few percent of the envelope passes
    `check_unit`. Pooled over a pass, the residuals' mean must be within
    NOISE_SIGMAS sigma / sqrt(n) of 0, and their mean square over sigma^2,
    which is chi-square(n) / n for genuine Gaussian noise, within NOISE_SIGMAS
    of its centre on the Wilson-Hilferty normal approximation. (No scipy here:
    run.py imports this module, and a large parent process inflates the peak
    RSS its children report.)
    """
    if oracle.sigma == 0.0:
        return []
    residuals = np.array([s - oracle.scaled(r) for doc in docs
                          for r, s in zip(doc["traces"][0]["raw_values"],
                                          doc["traces"][0]["scaled_values"])])
    n = residuals.size
    problems = []
    mean = float(residuals.mean())
    if abs(mean) > NOISE_SIGMAS * oracle.sigma / math.sqrt(n):
        problems.append(("noise", f"mean residual {mean!r} over {n} values, "
                                  f"noise sigma {oracle.sigma}"))
    rms = math.sqrt(float(residuals @ residuals) / n)
    centre, width = 1.0 - 2.0 / (9.0 * n), NOISE_SIGMAS * math.sqrt(2.0 / (9.0 * n))
    low, high = (max(centre - width, 0.0) ** 1.5, (centre + width) ** 1.5)
    if not low * oracle.sigma <= rms <= high * oracle.sigma:
        problems.append(("noise", f"residual rms {rms!r} over {n} values, outside "
                                  f"[{low * oracle.sigma:.4g}, {high * oracle.sigma:.4g}]"))
    return problems


def check_reruns(docs: list[tuple[tuple[str, int], dict]]) -> list[tuple[str, str]]:
    """Runs of one (algorithm, seed) pair must repeat bit for bit."""
    first: dict[tuple[str, int], dict] = {}
    problems = []
    for key, doc in docs:
        [trace] = doc["traces"]
        seen = first.setdefault(key, trace)
        if seen is trace:
            continue
        for field in ("queries", "raw_values", "scaled_values", "regret"):
            if trace[field] != seen[field]:
                problems.append(("determinism", f"{key}: rerun differs in {field}"))
    return problems
