"""Black-box oracle wrapper with the shared value-scaling protocol.

Raw objective values are affinely mapped from a known [lo, hi] envelope to
[-1, 1], so -1 corresponds to the desired minimum. When the true minimum is
unknown, regret is instead measured on the raw axis against a fixed
reference level lying below every observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Known", "Oracle", "CountingOracle"]


@dataclass(frozen=True)
class Known:
    """A valid raw-value envelope [lo, hi]; maps to [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")


class Oracle:
    """A black-box objective over a constraint set.

    `raw_fn` is the deterministic raw objective on spin points. `observe`
    returns (raw, observation); the observation is the scaled value plus
    optional Gaussian noise (noise lives on the scaled axis). A non-finite
    raw value or observation is an error, and so is a raw value outside the
    envelope [lo, hi], since the affine map — and every regret comparison
    built on it — would be invalid.
    """

    def __init__(self, name: str, constraint, raw_fn: Callable[[np.ndarray], float],
                 bounds: Known, noise_sigma: float = 0.0,
                 raw_regret_level: float | None = None):
        if not 0 <= noise_sigma < math.inf:
            raise ValueError(f"oracle '{name}': noise level must be nonnegative and finite, "
                             f"got {noise_sigma!r}")
        self.name = name
        self.constraint = constraint
        self._raw_fn = raw_fn
        self.bounds = bounds
        self.noise_sigma = float(noise_sigma)
        # When the true minimum is unknown, regret is anchored to a fixed
        # level below all observable raw values rather than to the scaled
        # envelope minimum.
        self._raw_regret_level = raw_regret_level

    def raw(self, x) -> float:
        return float(self._raw_fn(x))

    def scale(self, y: float) -> float:
        b = self.bounds
        return 2.0 * (y - b.lo) / (b.hi - b.lo) - 1.0

    @property
    def regret_axis(self) -> str:
        """'scaled' when regret is measured against the envelope minimum,
        'raw' when measured against a universal reference level."""
        return "scaled" if self._raw_regret_level is None else "raw"

    @property
    def regret_anchor(self) -> float:
        if self._raw_regret_level is not None:
            return self._raw_regret_level
        return -1.0

    def observe(self, x, rng: np.random.Generator | None = None) -> tuple[float, float]:
        raw = self.raw(x)
        if not math.isfinite(raw):
            raise ValueError(f"oracle '{self.name}' returned {raw}, which is not finite")
        b = self.bounds
        if raw < b.lo - 1e-9 or raw > b.hi + 1e-9:
            raise RuntimeError(
                f"oracle '{self.name}' returned {raw}, outside its declared "
                f"envelope [{b.lo}, {b.hi}]; the scaling protocol is invalid"
            )
        value = self.scale(raw)
        if self.noise_sigma > 0.0:
            if rng is None:
                raise ValueError("a noisy oracle needs an rng")
            value += self.noise_sigma * rng.standard_normal()
            if not math.isfinite(value):
                raise ValueError(f"oracle '{self.name}' observed {value}, which is not finite")
        return raw, value


class CountingOracle:
    """Delegating wrapper that counts observe() calls (budget accounting)."""

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self.calls = 0

    def observe(self, x, rng=None):
        self.calls += 1
        return self._oracle.observe(x, rng)

    def __getattr__(self, name):
        return getattr(self._oracle, name)
