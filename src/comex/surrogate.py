"""Monomial-expert surrogate model learned by multiplicative weight updates.

The model keeps one nonnegative 2p weight vector w: the plus weight of
each monomial, then its minus weight (the doubled-expert, EG+-, form); the
signed coefficient of monomial i is w[i] - w[p + i].
After observing the value fx at a point x, with prediction error
loss = fhat(x) - fx, every pair member is multiplied by
exp(-/+ eta * 2 * sparsity * loss * psi_i(x)) and the whole 2p-weight
vector is rescaled to total mass `sparsity`. Predictions are therefore
always bounded by the sparsity mass, and the per-step cost is linear in
the number of monomials, independent of how many updates happened before.

The step size is either fixed or follows an anytime schedule driven by two
running statistics of the signed loss quantities z_{i,gamma} =
-gamma * 2 * sparsity * loss * psi_i(x): a dyadic bound e on their observed
range, and a cumulative weighted variance v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import walk_kernel
from .basis import MonomialBasis, basis_size

__all__ = [
    "ADAPTIVE_C",
    "LearningRateSchedule",
    "UpdateDiagnostics",
    "MonomialSurrogate",
]

# Constant in the anytime step-size schedule: sqrt(2(sqrt(2)-1)/(e-2)).
ADAPTIVE_C = math.sqrt(2.0 * (math.sqrt(2.0) - 1.0) / (math.e - 2.0))


def _dyadic_ceil(r: float) -> float:
    """Smallest power of two >= r, for r > 0."""
    mant, exp = math.frexp(r)  # r = mant * 2**exp with mant in [0.5, 1)
    return math.ldexp(1.0, exp - 1) if mant == 0.5 else math.ldexp(1.0, exp)


class LearningRateSchedule:
    """Step-size state: counter t, dyadic range bound e, cumulative variance v.

    With a fixed eta the statistics are still tracked but the returned step
    size never changes. In adaptive mode eta_t = min(1/e, C*sqrt(log(2p)/v));
    before the first nonzero loss both arms are undefined and the fallback
    min(1/(8*sparsity), 0.5) is returned.
    """

    def __init__(self, eta: float | None = None):
        if eta is not None and not 0 < eta < math.inf:
            raise ValueError(f"fixed step size must be positive and finite, got {eta!r}")
        self.eta = eta
        self.t = 0
        self.e = 0.0
        self.v = 0.0

    @property
    def adaptive(self) -> bool:
        return self.eta is None

    def current(self, p: int, sparsity: float) -> float:
        if not self.adaptive:
            return self.eta
        if self.e == 0.0 or self.v == 0.0:
            return min(1.0 / (8.0 * sparsity), 0.5)
        return min(1.0 / self.e, ADAPTIVE_C * math.sqrt(math.log(2 * p) / self.v))

    def advance(self, z_range: float, var_increment: float) -> None:
        """Fold one step's range and weighted variance into the state."""
        self.t += 1
        if z_range > 0.0:
            self.e = max(self.e, _dyadic_ceil(z_range))
        self.v += var_increment

    def copy(self) -> "LearningRateSchedule":
        out = LearningRateSchedule(self.eta)
        out.t, out.e, out.v = self.t, self.e, self.v
        return out

    def __repr__(self):
        mode = "fixed" if not self.adaptive else "adaptive"
        return f"LearningRateSchedule({mode}, t={self.t}, e={self.e}, v={self.v})"


@dataclass
class UpdateDiagnostics:
    """Per-update report: mixture loss and the step size used."""

    loss: float
    eta: float


class MonomialSurrogate:
    """Degree-bounded multilinear surrogate with dual exponential weights."""

    def __init__(self, basis: MonomialBasis, sparsity: float = 1.0,
                 learning_rate: float | None = None):
        if not 0 < sparsity < math.inf:
            raise ValueError(f"sparsity mass must be positive and finite, got {sparsity!r}")
        self.basis = basis
        self.sparsity = float(sparsity)
        self.workspace = walk_kernel.Workspace(basis)
        # Uniform prior of total mass 1; the first update renormalizes to the
        # sparsity mass. All signed coefficients start at exactly 0.
        self.w.fill(1.0 / (2 * basis.p))
        self.lr = LearningRateSchedule(learning_rate)

    @property
    def w(self) -> np.ndarray:
        """The 2p weights, the workspace's buffer: written in place, never replaced."""
        return self.workspace.w

    @property
    def w_plus(self) -> np.ndarray:
        """The plus weights, a view of the first half of w."""
        return self.w[:self.basis.p]

    @property
    def w_minus(self) -> np.ndarray:
        """The minus weights, a view of the second half of w."""
        return self.w[self.basis.p:]

    @property
    def coefficients(self) -> np.ndarray:
        """Signed coefficients w_plus - w_minus."""
        return self.w_plus - self.w_minus

    def predict(self, x) -> float:
        """Surrogate value at x, summed as update sums it; always within
        +/- total weight mass."""
        return float(walk_kernel.ordered_sum(self.coefficients * self.basis.features(x)))

    def update(self, x, fx: float) -> UpdateDiagnostics:
        """One observation step: reweight all experts and renormalize.

        With loss = predict(x) - fx and k = -2 * sparsity * loss, the loss
        quantities are z_i = k psi_i(x) for the plus weights and -z_i for
        the minus weights, all +/-k, so each weight's max-shifted factor
        exp(eta * z_i - eta |k|) is 1 or r = exp(-2 |eta k|). The
        learning-rate statistics are advanced with the z_i, weighted by the
        pre-update weights normalized to sum 1. They are computed first: an
        observation whose statistics overflow, or one that leaves no mass to
        renormalize, is a ValueError, raised before the weights or the step
        size change. The arithmetic is comex.walk_kernel.surrogate_update.
        """
        fx = float(fx)
        if not math.isfinite(fx):
            raise ValueError("oracle value must be finite")
        ws = self.workspace
        ws.x[:] = self.basis.point(x)
        eta = self.lr.current(self.basis.p, self.sparsity)
        status = walk_kernel.surrogate_update(ws, fx, eta, self.sparsity, self.lr.v)
        if status:
            reason = ("overflows the step-size statistics" if status == 1 else
                      f"leaves no weight to renormalize at step size {eta!r}")
            raise ValueError(f"observation {fx!r} {reason}, so the surrogate cannot learn from it")
        loss, var_increment, z_range = ws.stats.tolist()
        self.lr.advance(z_range, var_increment)
        return UpdateDiagnostics(loss, eta)

    def copy(self) -> "MonomialSurrogate":
        out = MonomialSurrogate(self.basis, self.sparsity)
        out.w[:] = self.w
        out.lr = self.lr.copy()
        return out

    # -- checkpointing ------------------------------------------------------
    # Key-value text format, one "key = value" line per scalar; weight arrays
    # are space-separated hex floats so the round trip is bit exact.

    def save(self, path) -> None:
        lines = [
            "comex-surrogate-v1",
            f"d = {self.basis.d}",
            f"m = {self.basis.m}",
            f"sparsity = {self.sparsity.hex()}",
            f"lr_mode = {'adaptive' if self.lr.adaptive else 'fixed'}",
        ]
        if not self.lr.adaptive:
            lines.append(f"lr_eta = {self.lr.eta.hex()}")
        lines += [
            f"lr_t = {self.lr.t}",
            f"lr_e = {self.lr.e.hex()}",
            f"lr_v = {self.lr.v.hex()}",
            "w_plus = " + " ".join(float(v).hex() for v in self.w_plus),
            "w_minus = " + " ".join(float(v).hex() for v in self.w_minus),
        ]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "MonomialSurrogate":
        """Read a checkpoint written by save; a missing or malformed key, a
        scalar out of range, a weight that is negative or not finite, or a
        weight count that does not match d and m, raises ValueError naming
        it. The counts are checked before the basis is built."""
        text = Path(path).read_text().strip().splitlines()
        if not text or text[0].strip() != "comex-surrogate-v1":
            raise ValueError(f"{path}: not a surrogate checkpoint")
        fields = {}
        for line in text[1:]:
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()

        def read(key, parse=float.fromhex):
            if key not in fields:
                raise ValueError(f"{path}: checkpoint has no {key!r}")
            try:
                return parse(fields[key])
            except ValueError as exc:
                raise ValueError(f"{path}: bad {key!r}: {exc}") from None

        def ranged(parse, holds, rule):
            def parse_in_range(value):
                parsed = parse(value)
                if not holds(parsed):
                    raise ValueError(f"must be {rule}, got {parsed!r}")
                return parsed
            return parse_in_range

        positive = ranged(float.fromhex, lambda v: 0 < v < math.inf, "positive and finite")
        nonnegative = ranged(float.fromhex, lambda v: 0 <= v < math.inf,
                             "nonnegative and finite")

        def lr_mode(value):
            if value not in ("adaptive", "fixed"):
                raise ValueError(f"expected 'adaptive' or 'fixed', got {value!r}")
            return value

        def weights(value):
            w = np.array([float.fromhex(v) for v in value.split()])
            if w.size != p:
                raise ValueError(f"{w.size} weights for a basis of {p} terms")
            if not np.all(np.isfinite(w) & (w >= 0.0)):
                raise ValueError("weights must be finite and nonnegative")
            return w

        d = read("d", ranged(int, lambda v: v >= 1, "at least 1"))
        m = read("m", ranged(int, lambda v: 1 <= v <= d, f"between 1 and d = {d}"))
        p = basis_size(d, m)
        lr = LearningRateSchedule(
            None if read("lr_mode", lr_mode) == "adaptive" else read("lr_eta", positive))
        sparsity = read("sparsity", positive)
        lr.t = read("lr_t", ranged(int, lambda v: v >= 0, "nonnegative"))
        lr.e = read("lr_e", nonnegative)
        lr.v = read("lr_v", nonnegative)
        w = np.concatenate([read("w_plus", weights), read("w_minus", weights)])
        model = cls(MonomialBasis(d, m), sparsity)
        model.lr, model.w[:] = lr, w
        return model
