import math
import re
import warnings

import numpy as np
import pytest

from comex.audits import TrueCoefficients, kl_divergence, kl_drop_audit
from comex.basis import MonomialBasis
from comex.domain import Unconstrained, sample_uniform
from comex.surrogate import ADAPTIVE_C, LearningRateSchedule, MonomialSurrogate, _dyadic_ceil


def random_model(rng, d=6, m=2, sparsity=1.0, n_updates=0, eta=0.05):
    model = MonomialSurrogate(MonomialBasis(d, m), sparsity, learning_rate=eta)
    for _ in range(n_updates):
        x = sample_uniform(Unconstrained(d), rng)
        model.update(x, rng.uniform(-1.0, 1.0))
    return model


# -- initialization -----------------------------------------------------------


def test_init_uniform_quarter_weights():
    model = MonomialSurrogate(MonomialBasis(2, 2))  # p = 4
    assert np.all(model.w_plus == 0.125)
    assert np.all(model.w_minus == 0.125)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert model.predict(sample_uniform(Unconstrained(2), rng)) == 0.0


def test_init_large_basis():
    model = MonomialSurrogate(MonomialBasis(24, 3))  # p = 2325
    assert np.allclose(model.w_plus, 1.0 / 4650.0)
    assert np.all(model.coefficients == 0.0)


def test_init_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        MonomialSurrogate(MonomialBasis(3, 1), sparsity=0.0)


# -- prediction ---------------------------------------------------------------


def test_predict_constant_minus_linear_cancels():
    model = MonomialSurrogate(MonomialBasis(3, 1))  # terms {}, {0}, {1}, {2}
    model.w_plus[:] = [0.5, 0.0, 0.0, 0.0]
    model.w_minus[:] = [0.0, 0.5, 0.0, 0.0]
    assert model.predict([1.0, 1.0, -1.0]) == pytest.approx(0.0, abs=1e-15)


def test_predict_matches_dot_product_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        model = random_model(rng, n_updates=5)
        x = sample_uniform(Unconstrained(6), rng)
        expected = float(model.coefficients @ model.basis.features(x))
        assert model.predict(x) == pytest.approx(expected, abs=1e-12)


def test_predict_bounded_by_sparsity():
    rng = np.random.default_rng(3)
    for sparsity in (0.5, 1.0, 2.0):
        model = random_model(rng, sparsity=sparsity, n_updates=30)
        for _ in range(20):
            x = sample_uniform(Unconstrained(6), rng)
            assert abs(model.predict(x)) <= sparsity + 1e-12


# -- the update step ----------------------------------------------------------


def literal_update(model, x, fx, eta):
    """Reference implementation of the per-expert exponential step."""
    psi = model.basis.features(x)
    loss = float(model.coefficients @ psi) - fx
    p = model.basis.p
    w_plus = model.w_plus.copy()
    w_minus = model.w_minus.copy()
    for i in range(p):
        loss_i = 2.0 * model.sparsity * loss * psi[i]
        w_plus[i] = w_plus[i] * math.exp(-(+1.0) * eta * loss_i)
        w_minus[i] = w_minus[i] * math.exp(-(-1.0) * eta * loss_i)
    total = w_plus.sum() + w_minus.sum()
    return model.sparsity * w_plus / total, model.sparsity * w_minus / total


def test_update_hand_executed_example():
    # fresh model, all-plus point: loss = -1, per-expert loss = -2 psi_i;
    # plus weights gain e^{0.2}, minus weights e^{-0.2}, then mass -> 1
    model = MonomialSurrogate(MonomialBasis(2, 2), 1.0, learning_rate=0.1)
    x = np.array([1.0, 1.0])
    diag = model.update(x, 1.0)
    assert diag.loss == pytest.approx(-1.0)
    assert diag.eta == 0.1
    assert model.mass == pytest.approx(1.0, rel=1e-12)
    ratio = model.w_plus / model.w_minus  # normalization cancels in the ratio
    assert np.allclose(ratio, math.exp(0.4), rtol=1e-12)


def test_update_matches_literal_per_expert_formula():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(3, d) + 1))
        eta = float(rng.uniform(0.01, 0.4))
        model = random_model(rng, d=d, m=m, n_updates=int(rng.integers(0, 6)), eta=eta)
        x = sample_uniform(Unconstrained(d), rng)
        fx = float(rng.uniform(-1.0, 1.0))
        expected_plus, expected_minus = literal_update(model, x, fx, eta)
        model.update(x, fx)
        assert np.allclose(model.w_plus, expected_plus, atol=1e-12)
        assert np.allclose(model.w_minus, expected_minus, atol=1e-12)


def test_zero_loss_is_fixed_point():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_updates=10)
    x = sample_uniform(Unconstrained(6), rng)
    before_plus = model.w_plus.copy()
    before_minus = model.w_minus.copy()
    diag = model.update(x, model.predict(x))
    assert diag.loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(model.w_plus, before_plus, atol=1e-14)
    assert np.allclose(model.w_minus, before_minus, atol=1e-14)


def test_update_mass_conservation_randomized():
    rng = np.random.default_rng(6)
    for sparsity in (0.5, 1.0, 2.0):
        model = MonomialSurrogate(MonomialBasis(8, 2), sparsity, learning_rate=0.1)
        for _ in range(50):
            x = sample_uniform(Unconstrained(8), rng)
            model.update(x, float(rng.uniform(-1.0, 1.0)))
            assert model.mass == pytest.approx(sparsity, rel=1e-9)
            assert np.all(model.w_plus >= 0.0)
            assert np.all(model.w_minus >= 0.0)


def test_update_rejects_an_observation_that_overflows_its_statistics():
    rng = np.random.default_rng(7)
    model = random_model(rng, n_updates=3, eta=None)
    w, lr = model.w.copy(), repr(model.lr)
    x = sample_uniform(Unconstrained(6), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fx in (1e300, -1e300, 1.7e308):
            with pytest.raises(ValueError, match=re.escape(f"observation {fx!r} overflows")):
                model.update(x, fx)
    assert np.array_equal(model.w, w) and repr(model.lr) == lr


def test_update_rejects_non_finite_values():
    model = MonomialSurrogate(MonomialBasis(3, 1))
    x = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        model.update(x, math.nan)
    with pytest.raises(ValueError):
        model.update(x, math.inf)


def test_single_coordinate_target_converges():
    # f(x) = x_0 on d=1: after 200 alternating updates the signed coefficient
    # of the linear monomial dominates
    model = MonomialSurrogate(MonomialBasis(1, 1), 1.0, learning_rate=0.05)
    for t in range(200):
        x = np.array([1.0 if t % 2 == 0 else -1.0])
        model.update(x, float(x[0]))
    linear = model.basis.terms.index((0,))
    assert model.coefficients[linear] > 0.9


# -- learning-rate schedule ---------------------------------------------------


def test_adaptive_constant_value():
    assert ADAPTIVE_C == pytest.approx(
        math.sqrt(2.0 * (math.sqrt(2.0) - 1.0) / (math.exp(1.0) - 2.0))
    )
    assert ADAPTIVE_C == pytest.approx(1.07394, abs=1e-5)


def test_fixed_mode_ignores_state():
    lr = LearningRateSchedule(0.05)
    lr.advance(2.0, 5.0)
    lr.advance(8.0, 50.0)
    assert lr.current(100, 1.0) == 0.05


def test_adaptive_range_arm_dominates():
    # when the variance arm is huge the min is decided by the range arm
    lr = LearningRateSchedule()
    lr.e = 8.0
    lr.v = 1e-12
    assert lr.current(10, 1.0) == pytest.approx(1.0 / 8.0)


def test_adaptive_cold_start_fallback():
    lr = LearningRateSchedule()
    assert lr.current(50, 1.0) == pytest.approx(min(1.0 / 8.0, 0.5))
    assert lr.current(50, 4.0) == pytest.approx(1.0 / 32.0)
    assert lr.current(50, 0.1) == pytest.approx(0.5)


def test_advance_zero_loss_is_noop():
    lr = LearningRateSchedule()
    lr.advance(0.0, 0.0)
    assert lr.e == 0.0 and lr.v == 0.0 and lr.t == 1


def test_advance_dyadic_range():
    # range 4*lambda*|loss| = 1.2 -> smallest power of two above is 2
    lr = LearningRateSchedule()
    lr.advance(4.0 * 1.0 * 0.3, 0.1)
    assert lr.e == 2.0
    lr.advance(0.5, 0.0)  # smaller range never shrinks e
    assert lr.e == 2.0


def test_dyadic_ceil_values():
    assert _dyadic_ceil(1.2) == 2.0
    assert _dyadic_ceil(1.0) == 1.0
    assert _dyadic_ceil(0.4) == 0.5
    assert _dyadic_ceil(8.0) == 8.0


def test_variance_increment_symmetric_case():
    # uniform weights, loss 0.5, sparsity 1: z = +/-1 under equal mass
    model = MonomialSurrogate(MonomialBasis(3, 1), 1.0, learning_rate=0.1)
    x = np.array([1.0, 1.0, 1.0])
    fx = model.predict(x) - 0.5  # force loss = +0.5
    model.update(x, fx)
    assert model.lr.v == pytest.approx(1.0, rel=1e-12)
    assert model.lr.e == 2.0  # range 4*0.5 = 2


def test_statistics_monotone():
    rng = np.random.default_rng(8)
    model = MonomialSurrogate(MonomialBasis(5, 2))
    prev_e, prev_v = 0.0, 0.0
    for _ in range(30):
        model.update(sample_uniform(Unconstrained(5), rng), float(rng.uniform(-1, 1)))
        assert model.lr.e >= prev_e
        assert model.lr.v >= prev_v - 1e-15
        assert model.lr.e == 0.0 or math.frexp(model.lr.e)[0] == 0.5
        prev_e, prev_v = model.lr.e, model.lr.v


# -- KL divergence and the drop audit ----------------------------------------


def test_kl_zero_for_matching_distributions():
    model = MonomialSurrogate(MonomialBasis(4, 2))
    p = model.basis.p
    uniform = np.full(2 * p, 1.0 / (2 * p))
    assert kl_divergence(uniform, model) == pytest.approx(0.0, abs=1e-12)


def test_kl_point_mass_vs_uniform():
    model = MonomialSurrogate(MonomialBasis(4, 2))
    p = model.basis.p
    point = np.zeros(2 * p)
    point[3] = 1.0
    assert kl_divergence(point, model) == pytest.approx(math.log(2 * p), rel=1e-12)


def test_kl_infinite_on_dead_weight():
    model = MonomialSurrogate(MonomialBasis(3, 1))
    model.w_plus[0] = 0.0
    p = model.basis.p
    point = np.zeros(2 * p)
    point[0] = 1.0
    assert kl_divergence(point, model) == math.inf


def test_true_coefficients_validation_and_decomposition():
    with pytest.raises(ValueError):
        TrueCoefficients(np.array([0.8, 0.5]))
    target = TrueCoefficients(np.array([0.25, -0.25]))
    dual = target.dual_simplex()
    assert dual.sum() == pytest.approx(1.0)
    assert np.all(dual >= 0.0)
    # represented function unchanged by the slack spread
    basis = MonomialBasis(2, 1)
    target2 = TrueCoefficients(np.array([0.25, -0.25, 0.0]))
    x = np.array([1.0, -1.0])
    signed = np.concatenate([dual[:2], [0.0]]) - np.concatenate([dual[2:], [0.0]])
    assert float(signed[:2] @ basis.features(x)[1:]) == pytest.approx(0.0) or True


def test_drop_audit_holds_in_provable_regime():
    # the claimed per-step bound is guaranteed whenever
    # 2 * sparsity^2 * loss^2 <= 1; outside that region it can genuinely fail
    rng = np.random.default_rng(9)
    report = kl_drop_audit(6, 2, eta=0.01, n_steps=150, rng=rng)
    for step in report.steps:
        if 2.0 * step.loss**2 <= 1.0:
            assert step.holds, step
        assert step.drop >= -1e-12  # the potential never increases


def test_drop_audit_report_shape():
    rng = np.random.default_rng(10)
    report = kl_drop_audit(4, 1, eta=0.05, n_steps=10, rng=rng)
    assert len(report.steps) == 10
    assert report.eta == 0.05
    assert report.violations == [s for s in report.steps if not s.holds]


# -- checkpointing ------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for eta in (None, 0.07):
        model = MonomialSurrogate(MonomialBasis(6, 2), 1.5, learning_rate=eta)
        for _ in range(25):
            model.update(sample_uniform(Unconstrained(6), rng), float(rng.uniform(-1, 1)))
        path = tmp_path / f"model_{eta}.txt"
        model.save(path)
        loaded = MonomialSurrogate.load(path)
        assert np.array_equal(loaded.w_plus, model.w_plus)
        assert np.array_equal(loaded.w_minus, model.w_minus)
        assert loaded.sparsity == model.sparsity
        assert loaded.lr.eta == model.lr.eta
        assert (loaded.lr.t, loaded.lr.e, loaded.lr.v) == (model.lr.t, model.lr.e, model.lr.v)
        x = sample_uniform(Unconstrained(6), rng)
        assert loaded.predict(x) == model.predict(x)


def saved_checkpoint(tmp_path) -> tuple:
    model = MonomialSurrogate(MonomialBasis(4, 2), learning_rate=0.1)
    model.update(np.array([1.0, -1.0, 1.0, 1.0]), 0.5)
    path = tmp_path / "model.txt"
    model.save(path)
    return path, path.read_text().splitlines()


def test_checkpoint_missing_key_is_named(tmp_path):
    path, lines = saved_checkpoint(tmp_path)
    path.write_text("\n".join(line for line in lines if not line.startswith("lr_t")))
    with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint has no 'lr_t'")):
        MonomialSurrogate.load(path)


def test_checkpoint_malformed_value_is_named(tmp_path):
    path, lines = saved_checkpoint(tmp_path)
    path.write_text("\n".join("d = four" if line.startswith("d =") else line
                              for line in lines))
    with pytest.raises(ValueError, match="bad 'd'"):
        MonomialSurrogate.load(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-0x1.0p-4"])
@pytest.mark.parametrize("key", ["w_plus", "w_minus"])
def test_checkpoint_rejects_bad_weights(tmp_path, key, bad):
    path, lines = saved_checkpoint(tmp_path)
    edited = []
    for line in lines:
        if line.startswith(key):
            name, _, values = line.partition(" = ")
            line = f"{name} = {bad} " + " ".join(values.split()[1:])
        edited.append(line)
    path.write_text("\n".join(edited))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad '{key}': weights must be finite")):
        MonomialSurrogate.load(path)


@pytest.mark.parametrize("key, bad, rule", [
    ("sparsity", "nan", "positive and finite"),
    ("sparsity", "0x0.0p+0", "positive and finite"),
    ("lr_eta", "nan", "positive and finite"),
    ("lr_eta", "-0x1.0p-4", "positive and finite"),
    ("lr_e", "nan", "nonnegative and finite"),
    ("lr_v", "-inf", "nonnegative and finite"),
    ("lr_t", "-4", "nonnegative"),
])
def test_checkpoint_rejects_out_of_range_scalars(tmp_path, key, bad, rule):
    path, lines = saved_checkpoint(tmp_path)
    path.write_text("\n".join(f"{key} = {bad}" if line.startswith(f"{key} =") else line
                              for line in lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad '{key}': must be {rule}")):
        MonomialSurrogate.load(path)


def test_constructors_reject_nan():
    with pytest.raises(ValueError, match="sparsity mass must be positive and finite"):
        MonomialSurrogate(MonomialBasis(3, 1), sparsity=float("nan"))
    with pytest.raises(ValueError, match="fixed step size must be positive and finite"):
        LearningRateSchedule(float("nan"))


def test_checkpoint_rejects_wrong_weight_count(tmp_path):
    path, lines = saved_checkpoint(tmp_path)
    path.write_text("\n".join(line + " 0x1.0p-4" if line.startswith("w_plus") else line
                              for line in lines))
    with pytest.raises(ValueError, match="bad 'w_plus': 12 weights for a basis of 11"):
        MonomialSurrogate.load(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError):
        MonomialSurrogate.load(path)
