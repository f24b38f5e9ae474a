"""Direct annealing, the exact Boltzmann acquisition, and the theory audits.

Shows simulated annealing (the `sa` baseline) minimizing a black box over
the hypercube, then runs the two analysis checks the package ships: the
per-step KL-drop audit for the weight update, and the expected-improvement
guarantee for the exponential (Boltzmann) acquisition on an enumerable
instance.
"""

import numpy as np

from comex import (
    ExperimentConfig,
    Unconstrained,
    exponential_acquisition_audit,
    exponential_pmf,
    hamming_distance,
    kl_drop_audit,
    run_experiment,
    sample_uniform,
)
from comex.benchmarks import Known, Oracle

rng = np.random.default_rng(2)

print("== annealed walk on a simple landscape ==")
d = 12
cube = Unconstrained(d)
target = sample_uniform(cube, rng)
oracle = Oracle("hamming", cube, lambda x: float(hamming_distance(x, target)),
                Known(0.0, float(d)))
[trace] = run_experiment(ExperimentConfig(algorithm="sa", budget=50 * d, omega=1.0,
                                          seeds=(2,)), oracle)
print(f"distance of the best query to the optimum: {trace.raw_values.min():.0f} "
      f"after {len(trace)} evaluations")

print("\n== exact Boltzmann acquisition (enumeration) ==")
values = np.array([0.0] * 3 + [1.0] * 13)  # three good points out of 16
for T in (2.0, 0.5, 0.1):
    pmf = exponential_pmf(values, 4, temperature=T)
    print(f"T={T:4.1f}: mass on the three best points = {pmf.probs[:3].sum():.3f}")

print("\n== KL-drop audit for the weight update ==")
report = kl_drop_audit(d=6, m=2, eta=0.01, n_steps=100, rng=np.random.default_rng(3))
holds = sum(s.holds for s in report.steps)
print(f"claimed per-step bound held on {holds}/100 steps")
print("(the stated -eta^2 slack is provable only while the squared")
print(" prediction error stays below 1/2; larger errors can dip under it)")

print("\n== expected-improvement audit for the Boltzmann acquisition ==")
for T in (0.5, 1.0, 2.0):
    report = exponential_acquisition_audit(6, 2, temperature=T, eta=0.01,
                                           n_steps=3, rng=np.random.default_rng(4))
    verdict = "holds" if report.all_hold else "FAILS"
    eps = report.steps[0].epsilon
    print(f"T={T:4.1f}: bound {verdict} on every enumerated step "
          f"(initial divergence gap eps={eps:.4f})")
