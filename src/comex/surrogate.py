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

from .basis import MonomialBasis

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
        # Uniform prior of total mass 1; the first update renormalizes to the
        # sparsity mass. All signed coefficients start at exactly 0.
        self.w = np.full(2 * basis.p, 1.0 / (2 * basis.p))
        self.lr = LearningRateSchedule(learning_rate)

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

    @property
    def mass(self) -> float:
        return float(self.w.sum())

    def predict(self, x) -> float:
        """Surrogate value at x; always within +/- total weight mass."""
        return float(self.coefficients @ self.basis.features(x))

    def update(self, x, fx: float) -> UpdateDiagnostics:
        """One observation step: reweight all experts and renormalize.

        Exponents are max-shifted before exponentiation; the shift cancels
        exactly in the renormalization, so this only guards against overflow.
        The learning-rate statistics are advanced with this step's loss
        quantities, weighted by the pre-update weights normalized to sum 1.
        They are computed first: an observation so large that they overflow
        is a ValueError, raised before the weights or the step size change.
        """
        fx = float(fx)
        if not math.isfinite(fx):
            raise ValueError("oracle value must be finite")
        psi = self.basis.features(x)
        fhat = float(self.coefficients @ psi)
        loss = fhat - fx
        eta = self.lr.current(self.basis.p, self.sparsity)

        pre = self.w
        z_plus = (-2.0 * self.sparsity * loss) * psi
        z = np.concatenate([z_plus, -z_plus])
        w_pre = pre / pre.sum()
        with np.errstate(over="ignore", invalid="ignore"):
            z_bar = float(w_pre @ z)
            var_increment = float(w_pre @ (z - z_bar) ** 2)
        z_range = 4.0 * self.sparsity * abs(loss)
        if not (math.isfinite(z_range) and math.isfinite(self.lr.v + var_increment)):
            raise ValueError(f"observation {fx!r} overflows the step-size statistics, "
                             f"so the surrogate cannot learn from it")

        exponents = eta * z
        w = pre * np.exp(exponents - exponents.max())
        w *= self.sparsity / w.sum()
        self.w = w
        self.lr.advance(z_range, var_increment)
        return UpdateDiagnostics(loss, eta)

    def copy(self) -> "MonomialSurrogate":
        out = MonomialSurrogate.__new__(MonomialSurrogate)
        out.basis = self.basis
        out.sparsity = self.sparsity
        out.w = self.w.copy()
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
        scalar out of range, or a weight that is negative or not finite,
        raises ValueError naming it."""
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
            if w.size != basis.p:
                raise ValueError(f"{w.size} weights for a basis of {basis.p} terms")
            if not np.all(np.isfinite(w) & (w >= 0.0)):
                raise ValueError("weights must be finite and nonnegative")
            return w

        basis = MonomialBasis(read("d", int), read("m", int))
        eta = None if read("lr_mode", lr_mode) == "adaptive" else read("lr_eta", positive)
        model = cls(basis, read("sparsity", positive), learning_rate=eta)
        model.lr.t = read("lr_t", ranged(int, lambda v: v >= 0, "nonnegative"))
        model.lr.e = read("lr_e", nonnegative)
        model.lr.v = read("lr_v", nonnegative)
        model.w = np.concatenate([read("w_plus", weights), read("w_minus", weights)])
        return model
