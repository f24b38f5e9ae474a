"""Theory audits: step-by-step checks of the update's KL-drop inequality and
of the Boltzmann-acquisition guarantee, on instances whose black box is
exactly representable in the monomial basis. Analysis only; the optimizer
never calls this module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import MonomialBasis
from .domain import Unconstrained, enumerate_points, sample_uniform
from .surrogate import MonomialSurrogate

__all__ = ["TrueCoefficients", "kl_divergence", "AuditReport", "kl_drop_audit", "DropAuditStep",
           "PMF_DIMENSION_LIMIT", "BoltzmannPmf", "exponential_pmf", "pmf_kl",
           "exponential_acquisition_audit", "AcquisitionAuditStep"]

PMF_DIMENSION_LIMIT = 12


@dataclass(frozen=True)
class TrueCoefficients:
    """Signed target coefficients with l1 norm at most 1.

    Any such vector can be written as a difference of two nonnegative vectors
    whose joint mass is exactly 1; :meth:`dual_simplex` uses the positive and
    negative parts and spreads the leftover mass uniformly across all 2p
    coordinates, which leaves the represented function unchanged.
    """

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        if float(np.abs(alpha).sum()) > 1.0 + 1e-9:
            raise ValueError("target coefficients must have l1 norm at most 1")

    def dual_simplex(self) -> np.ndarray:
        pos = np.clip(self.alpha, 0.0, None)
        neg = np.clip(-self.alpha, 0.0, None)
        w = np.concatenate([pos, neg])
        slack = 1.0 - float(w.sum())
        if slack > 0.0:
            w = w + slack / w.size
        return w

    def evaluate(self, basis: MonomialBasis, x) -> float:
        return float(self.alpha @ basis.features(x))


def kl_divergence(target, model: MonomialSurrogate) -> float:
    """KL(target || model weights) over the doubled 2p coordinate system.

    `target` is a nonnegative 2p vector on the simplex, such as
    TrueCoefficients.dual_simplex(). Model weights are rescaled to total
    mass 1 for comparability. Coordinates where the target is 0 contribute
    nothing; a model weight of exactly 0 under target mass yields +inf
    (reported, never clamped).
    """
    tw = np.asarray(target, dtype=np.float64)
    w = model.w
    if tw.shape != w.shape:
        raise ValueError(f"target has shape {tw.shape}, model expects {w.shape}")
    w = w / w.sum()
    support = tw > 0.0
    if np.any(w[support] == 0.0):
        return math.inf
    return float(np.sum(tw[support] * np.log(tw[support] / w[support])))


@dataclass
class AuditReport:
    """Per-step record of one audited instance."""

    d: int
    m: int
    eta: float
    sparsity: float
    steps: list = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(s.holds for s in self.steps)

    @property
    def violations(self) -> list:
        return [s for s in self.steps if not s.holds]


def _audit_instance(d: int, m: int, eta: float, sparsity: float, n_steps: int, alpha_star,
                    rng: np.random.Generator):
    """The basis, the black box (alpha_star, or a Dirichlet-uniform draw on the
    simplex when it is not supplied), a fresh model and an empty report."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps!r}")
    basis = MonomialBasis(d, m)
    if alpha_star is None:
        alpha_star = rng.dirichlet(np.ones(basis.p))
    model = MonomialSurrogate(basis, sparsity, learning_rate=eta)
    return basis, TrueCoefficients(alpha_star), model, AuditReport(d, m, eta, sparsity)


# -- the update's KL drop -----------------------------------------------------


@dataclass
class DropAuditStep:
    step: int
    loss: float
    drop: float
    bound: float
    holds: bool


def kl_drop_audit(d: int, m: int, eta: float, n_steps: int,
                  rng: np.random.Generator, sparsity: float = 1.0,
                  alpha_star: np.ndarray | None = None,
                  slack: float = 1e-10) -> AuditReport:
    """Check, step by step, that each update shrinks the KL distance to the
    target weights by at least 2*eta*sparsity*(prediction error)^2 - eta^2.

    The black box is exactly representable in the basis: f = <alpha_star,
    psi> with alpha_star nonnegative on the simplex (drawn Dirichlet-uniform
    when not supplied). Query points are drawn uniformly from the cube; the
    claimed inequality does not depend on how the points are chosen.
    """
    basis, target, model, report = _audit_instance(d, m, eta, sparsity, n_steps, alpha_star, rng)
    dual = target.dual_simplex()
    phi = kl_divergence(dual, model)
    for t in range(n_steps):
        x = sample_uniform(Unconstrained(d), rng)
        diag = model.update(x, target.evaluate(basis, x))
        phi_next = kl_divergence(dual, model)
        drop = phi - phi_next
        bound = 2.0 * eta * sparsity * diag.loss**2 - eta**2
        report.steps.append(DropAuditStep(t, diag.loss, drop, bound, drop >= bound - slack))
        phi = phi_next
    return report


# -- exact Boltzmann acquisition ----------------------------------------------


@dataclass
class BoltzmannPmf:
    """Exact pmf proportional to exp(-f(x)/T) over the full cube.

    Probabilities are indexed by the row order of
    enumerate_points(Unconstrained(d)).
    """

    temperature: float
    probs: np.ndarray
    log_partition: float

    @property
    def partition(self) -> float:
        return math.exp(self.log_partition)


def exponential_pmf(values, d: int, temperature: float) -> BoltzmannPmf:
    """Boltzmann distribution over all 2^d points, computed with a max shift.

    `values` is a vector of length 2^d in enumeration order. Enumeration
    only: refuses d beyond PMF_DIMENSION_LIMIT.
    """
    if d > PMF_DIMENSION_LIMIT:
        raise ValueError(f"exact acquisition pmf needs d <= {PMF_DIMENSION_LIMIT}")
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (2**d,):
        raise ValueError(f"expected 2^{d} values, got shape {values.shape}")
    logits = -values / temperature
    top = logits.max()
    log_z = float(top + np.log(np.exp(logits - top).sum()))
    return BoltzmannPmf(temperature, np.exp(logits - log_z), log_z)


def pmf_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence (natural log) between two strictly positive pmfs."""
    return float(np.sum(p * np.log(p / q)))


@dataclass
class AcquisitionAuditStep:
    step: int
    epsilon: float
    expected_drop: float
    bound: float
    holds: bool
    mc_error: float | None = None


def exponential_acquisition_audit(d: int, m: int, temperature: float, eta: float,
                                  n_steps: int, rng: np.random.Generator,
                                  alpha_star: np.ndarray | None = None,
                                  sparsity: float = 1.0, trials: int | None = None,
                                  slack: float = 1e-10) -> AuditReport:
    """Audit the Boltzmann-acquisition guarantee on an enumerable instance.

    At each step the exact sampling pmfs of the surrogate and of the true
    function are formed, the gap
        eps = | KL(surrogate pmf || true pmf) - log(Z_true / Z_surrogate) |
    is measured, and the expectation (under the surrogate pmf) of the
    one-step KL drop is computed by enumeration (or estimated from `trials`
    samples). The audit asserts
        E[drop] >= 2 * eta * sparsity * eps^2 * T^2 - eta^2.
    The next query is then drawn from the surrogate pmf and the model updated.
    Requires target coefficients that are nonnegative on the simplex so the
    KL potential is defined; values then automatically lie in [-1, 1].
    """
    basis, target, model, report = _audit_instance(d, m, eta, sparsity, n_steps, alpha_star, rng)
    dual = target.dual_simplex()
    points = enumerate_points(Unconstrained(d))
    features = np.stack([basis.features(x) for x in points])
    f_true = features @ target.alpha
    for step in range(n_steps):
        f_hat = features @ model.coefficients
        surrogate_pmf = exponential_pmf(f_hat, d, temperature)
        true_pmf = exponential_pmf(f_true, d, temperature)
        epsilon = abs(pmf_kl(surrogate_pmf.probs, true_pmf.probs)
                      - (true_pmf.log_partition - surrogate_pmf.log_partition))

        phi = kl_divergence(dual, model)

        def one_step_drop(idx: int) -> float:
            trial = model.copy()
            trial.update(points[idx], f_true[idx])
            return phi - kl_divergence(dual, trial)

        mc_error = None
        if trials is None:
            drops = np.array([one_step_drop(i) for i in range(points.shape[0])])
            expected = float(surrogate_pmf.probs @ drops)
        else:
            idxs = rng.choice(points.shape[0], size=trials, p=surrogate_pmf.probs)
            drops = np.array([one_step_drop(i) for i in idxs])
            expected = float(drops.mean())
            mc_error = float(drops.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf

        bound = 2.0 * eta * sparsity * epsilon**2 * temperature**2 - eta**2
        tolerance = slack + (3.0 * mc_error if mc_error is not None else 0.0)
        report.steps.append(AcquisitionAuditStep(step, epsilon, expected, bound,
                                                 expected >= bound - tolerance, mc_error))

        nxt = int(rng.choice(points.shape[0], p=surrogate_pmf.probs))
        model.update(points[nxt], f_true[nxt])
    return report
