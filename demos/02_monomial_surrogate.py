"""Learning a multilinear surrogate with multiplicative weight updates.

Builds the degree-bounded monomial basis, fits a hidden polynomial from
point evaluations, watches the KL distance between the model's weights
and the target coefficients shrink with every update, and ends with a cold
acquisition walk on the learned surrogate.
"""

import numpy as np

from comex import (
    MonomialBasis,
    MonomialSurrogate,
    TrueCoefficients,
    Unconstrained,
    kl_divergence,
    sample_uniform,
    walk,
)

rng = np.random.default_rng(1)

d, m = 8, 2
basis = MonomialBasis(d, m)
print(f"basis: d={d}, degree <= {m}, p={basis.p} monomials")
print(f"first terms: {basis.terms[:6]} ...")

# hidden target: a sparse positive combination of monomials
alpha = np.zeros(basis.p)
support = rng.choice(basis.p, size=5, replace=False)
alpha[support] = rng.dirichlet(np.ones(5))
target = TrueCoefficients(alpha)
print(f"hidden support: {[basis.terms[i] for i in support]}")

model = MonomialSurrogate(basis, sparsity=1.0, learning_rate=0.05)
dual = target.dual_simplex()
cube = Unconstrained(d)

print("\nstep   prediction error    KL(target || weights)")
for t in range(400):
    x = sample_uniform(cube, rng)
    diagnostics = model.update(x, target.evaluate(basis, x))
    if t % 50 == 0 or t == 399:
        print(f"{t:4d}   {abs(diagnostics.loss):16.6f}    {kl_divergence(dual, model):.6f}")

print("\nlargest learned coefficients:")
top = np.argsort(-np.abs(model.coefficients))[:5]
for i in top:
    print(f"  {basis.terms[i]!s:12s} learned {model.coefficients[i]:+.4f} "
          f"(target {alpha[i]:+.4f})")

print("\nthe acquisition walk scores each move from a local field it keeps up")
print("to date; at a low temperature it walks downhill on the surrogate:")
x = sample_uniform(cube, rng)
n_iters = 20 * d
y, accepted = walk(model, x, cube, temperature=1e-3, n_iters=n_iters, rng=rng)
print(f"predict(start) = {model.predict(x):+.6f}")
print(f"predict(end)   = {model.predict(y):+.6f}  ({accepted}/{n_iters} moves accepted)")
