"""Learning a multilinear surrogate with multiplicative weight updates.

Builds the degree-bounded monomial basis, fits a hidden polynomial from
point evaluations, and watches the KL distance between the model's weights
and the target coefficients shrink with every update.
"""

import numpy as np

from comex import (
    LocalField,
    MonomialBasis,
    MonomialSurrogate,
    TrueCoefficients,
    Unconstrained,
    apply_flips,
    kl_divergence,
    sample_uniform,
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

print("\nthe acquisition walk scores a move from a local field it keeps up to")
print("date, without recomputing the feature vector; here against predict:")
x = sample_uniform(cube, rng)
fx = model.predict(x)
field = LocalField(model, x)
print(f"predict(x) = {fx:+.6f}")
print("move                   field delta   predict difference")
print(f"flip coordinate 3      {field.flip_delta(3):+.6f}     "
      f"{model.predict(apply_flips(x, (3,))) - fx:+.6f}")
print(f"swap coordinates 1,4   {field.swap_delta(1, 4):+.6f}     "
      f"{model.predict(apply_flips(x, (1, 4))) - fx:+.6f}")
