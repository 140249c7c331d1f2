import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from antfis.dataset import FeatureStage, Normalizer
from antfis.fcm import fcm_cluster
from antfis.fis import (CENTER_BOUNDS, SIGMA_BOUNDS, SIGMA_CAP, SIGMA_FLOOR,
                        FisModel, encode_premise, fit_consequents, fitness,
                        init_from_fcm, log_firing_strengths, predict_batch,
                        premise_arrays, premise_bounds, row_basis,
                        solve_consequents)


def unit_normalizer(d):
    names = ("x", "y", "z", "pressure", "air_superficial_velocity")[:d]
    return Normalizer(names, np.zeros(d), np.ones(d))


def make_model(centers, sigmas, coeffs):
    centers = np.asarray(centers, dtype=float)
    d = centers.shape[1]
    return FisModel(centers=centers, sigmas=np.asarray(sigmas, dtype=float),
                    coeffs=np.asarray(coeffs, dtype=float),
                    stage=FeatureStage.from_arity(d),
                    normalizer=unit_normalizer(d))


def firing_strengths(m, x):
    """Raw rule activations at one point, from a 1-row batch log-firing."""
    return np.exp(log_firing_strengths(m.centers, m.sigmas,
                                       row_basis([x])))[:, 0]


def predict(m, x):
    """Model output at one point, from a 1-row predict_batch."""
    return float(predict_batch(m, [x])[0])


class TestFiringStrengths:
    def test_peak_at_center(self):
        m = make_model([[0.2, 0.7], [0.9, 0.1]], [[0.1, 0.2], [0.3, 0.1]],
                       np.zeros((2, 3)))
        w = firing_strengths(m, [0.2, 0.7])
        assert w[0] == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < w[1] < 1.0

    def test_one_sigma_offset(self):
        m = make_model([[0.5]], [[0.2]], np.zeros((1, 2)))
        w = firing_strengths(m, [0.7])
        assert w[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_product_of_factors(self, seed):
        rng = np.random.default_rng(seed)
        c, d = 3, 4
        m = make_model(rng.random((c, d)), 0.05 + rng.random((c, d)),
                       np.zeros((c, d + 1)))
        x = rng.random(d)
        w = firing_strengths(m, x)
        for i in range(c):
            per_factor = np.prod([
                math.exp(-((x[j] - m.centers[i, j]) ** 2)
                         / (2.0 * m.sigmas[i, j] ** 2))
                for j in range(d)
            ])
            assert w[i] == pytest.approx(per_factor, rel=1e-12)

    def test_arity_mismatch(self):
        m = make_model([[0.5, 0.5]], [[0.2, 0.2]], np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"expected \(n, 2\) features"):
            predict(m, [0.5])


class TestPredict:
    def test_constant_consequents(self):
        coeffs = np.array([[0.0, 0.0, 0.42], [0.0, 0.0, 0.42]])
        m = make_model([[0.1, 0.1], [0.8, 0.9]], [[0.2, 0.2], [0.2, 0.2]],
                       coeffs)
        for x in ([0.0, 0.0], [0.5, 0.5], [1.3, -0.2]):
            assert predict(m, x) == pytest.approx(0.42, abs=1e-12)

    def test_single_rule_is_affine(self):
        m = make_model([[0.5]], [[0.3]], [[2.0, -0.5]])
        for x in (-0.5, 0.0, 0.3, 1.7):
            assert predict(m, [x]) == pytest.approx(2.0 * x - 0.5, abs=1e-12)

    def test_two_rule_hand_computation(self):
        m = make_model([[0.0], [1.0]], [[0.4], [0.25]],
                       [[1.0, 0.0], [-2.0, 3.0]])
        x = 0.3
        w1 = math.exp(-(x - 0.0) ** 2 / (2 * 0.4**2))
        w2 = math.exp(-(x - 1.0) ** 2 / (2 * 0.25**2))
        f1 = 1.0 * x + 0.0
        f2 = -2.0 * x + 3.0
        expected = (w1 * f1 + w2 * f2) / (w1 + w2)
        assert predict(m, [x]) == pytest.approx(expected, rel=1e-12)

    def test_survives_underflow_of_raw_strengths(self):
        # both premises fire below the float range; the shifted mixture
        # must still return the dominant rule's consequent value
        m = make_model([[0.0], [1.0]], [[SIGMA_FLOOR], [SIGMA_FLOOR]],
                       [[0.0, 1.0], [0.0, 2.0]])
        x = 0.4
        logw = log_firing_strengths(m.centers, m.sigmas,
                                    row_basis([[x]]))[:, 0]
        assert np.exp(logw - logw.max()).max() == 1.0
        assert firing_strengths(m, [x]).max() == 0.0  # raw strengths underflow
        assert predict(m, [x]) == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_convex_combination_bound(self, seed):
        rng = np.random.default_rng(seed)
        c, d = 4, 3
        m = make_model(rng.random((c, d)), 0.05 + rng.random((c, d)),
                       rng.standard_normal((c, d + 1)))
        x = rng.random(d)
        rule_vals = m.coeffs[:, :d] @ x + m.coeffs[:, d]
        y = predict(m, x)
        assert rule_vals.min() - 1e-9 <= y <= rule_vals.max() + 1e-9

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_equals_raw_weighted_average(self, seed):
        # the normalized mixture is invariant to the common scale of the
        # strengths; cross-check against the direct ratio form
        rng = np.random.default_rng(seed)
        c, d = 3, 2
        m = make_model(rng.random((c, d)), 0.1 + rng.random((c, d)),
                       rng.standard_normal((c, d + 1)))
        x = rng.random(d)
        w = firing_strengths(m, x)
        vals = m.coeffs[:, :d] @ x + m.coeffs[:, d]
        assert predict(m, x) == pytest.approx(float(w @ vals / w.sum()),
                                              rel=1e-12)

    def test_non_finite_rejected(self):
        m = make_model([[0.5]], [[0.3]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            predict(m, [float("nan")])


class TestInitFromFcm:
    def test_centers_follow_clusters(self):
        rng = np.random.default_rng(2)
        a = rng.normal([0.2, 0.2], 0.03, size=(80, 2))
        b = rng.normal([0.8, 0.8], 0.03, size=(80, 2))
        X = np.vstack([a, b])
        res = fcm_cluster(X, 2, seed=4)
        centers, sigmas = init_from_fcm(res, X)
        np.testing.assert_allclose(np.sort(centers[:, 0]),
                                   np.sort(res.centers[:, 0]), atol=1e-12)
        assert (sigmas >= SIGMA_FLOOR).all()

    def test_constant_feature_floors_sigma(self):
        X = np.column_stack([np.linspace(0, 1, 40), np.full(40, 0.5)])
        res = fcm_cluster(X, 2, seed=1)
        _, sigmas = init_from_fcm(res, X)
        np.testing.assert_allclose(sigmas[:, 1], SIGMA_FLOOR)

    def test_consequents_are_fit(self):
        rng = np.random.default_rng(3)
        X = rng.random((100, 2))
        y = X @ np.array([0.3, -0.2]) + 0.4
        res = fcm_cluster(X, 3, seed=2)
        centers, sigmas = init_from_fcm(res, X)
        assert fitness(centers, sigmas, row_basis(X), y)[1] < 1e-4


class TestFitConsequents:
    def test_planted_recovery(self):
        rng = np.random.default_rng(7)
        c, d, n = 3, 2, 200
        true = make_model(rng.random((c, d)), 0.2 + 0.3 * rng.random((c, d)),
                          rng.standard_normal((c, d + 1)))
        X = rng.random((n, d))
        y = predict_batch(true, X)
        start = fit_consequents(true, X, np.zeros(n))  # wrong consequents
        refit = fit_consequents(start, X, y, lam=0.0)
        np.testing.assert_allclose(refit.coeffs, true.coeffs, atol=1e-6)

    def test_planted_recovery_default_damping_bias(self):
        # Tikhonov damping biases exact recovery by about lam * cond(A);
        # with the default lam the planted coefficients come back to ~1e-5.
        rng = np.random.default_rng(7)
        c, d, n = 3, 2, 200
        true = make_model(rng.random((c, d)), 0.2 + 0.3 * rng.random((c, d)),
                          rng.standard_normal((c, d + 1)))
        X = rng.random((n, d))
        y = predict_batch(true, X)
        refit = fit_consequents(true, X, y)
        np.testing.assert_allclose(refit.coeffs, true.coeffs, atol=1e-4)

    def test_single_rule_matches_ols(self):
        rng = np.random.default_rng(9)
        x = rng.random(100)
        y = 1.7 * x + 0.3 + 0.01 * rng.standard_normal(100)
        m = make_model([[0.5]], [[0.3]], [[0.0, 0.0]])
        refit = fit_consequents(m, x[:, None], y, lam=0.0)
        slope, intercept = np.polyfit(x, y, 1)
        assert refit.coeffs[0, 0] == pytest.approx(slope, abs=1e-9)
        assert refit.coeffs[0, 1] == pytest.approx(intercept, abs=1e-9)

    def test_exact_line_with_default_damping(self):
        x = np.linspace(0.0, 1.0, 50)
        y = 2.0 * x + 1.0
        m = make_model([[0.5]], [[0.3]], [[0.0, 0.0]])
        refit = fit_consequents(m, x[:, None], y)
        np.testing.assert_allclose(refit.coeffs[0], [2.0, 1.0], atol=1e-6)

    def test_huge_damping_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 2))
        y = rng.random(50)
        m = make_model([[0.5, 0.5]], [[0.3, 0.3]], [[1.0, 1.0, 1.0]])
        refit = fit_consequents(m, X, y, lam=1e12)
        np.testing.assert_allclose(refit.coeffs, 0.0, atol=1e-6)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_never_increases_sse(self, seed):
        rng = np.random.default_rng(seed)
        c, d, n = 2, 2, 60
        m = make_model(rng.random((c, d)), 0.1 + rng.random((c, d)),
                       0.1 * rng.standard_normal((c, d + 1)))
        X = rng.random((n, d))
        y = rng.random(n)
        sse_before = np.sum((predict_batch(m, X) - y) ** 2)
        refit = fit_consequents(m, X, y)
        sse_after = np.sum((predict_batch(refit, X) - y) ** 2)
        assert sse_after <= sse_before + 1e-9

    def test_underdetermined_minimum_norm(self):
        # more coefficients than rows: lam=0 must still solve
        rng = np.random.default_rng(4)
        m = make_model(rng.random((4, 3)), 0.2 + rng.random((4, 3)),
                       np.zeros((4, 4)))
        X = rng.random((5, 3))
        y = rng.random(5)
        refit = fit_consequents(m, X, y, lam=0.0)
        pred = predict_batch(refit, X)
        np.testing.assert_allclose(pred, y, atol=1e-8)

    def test_design_matrix_reproduces_prediction(self):
        # targets the model fits exactly: the undamped refit recovers its
        # consequents with zero residual
        rng = np.random.default_rng(6)
        m = make_model(rng.random((3, 2)), 0.2 + rng.random((3, 2)),
                       rng.standard_normal((3, 3)))
        X = rng.random((20, 2))
        coeffs, rmse = fitness(m.centers, m.sigmas, row_basis(X),
                               predict_batch(m, X), 0.0)
        assert rmse <= 1e-12
        np.testing.assert_allclose(coeffs, m.coeffs, rtol=0, atol=1e-10)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            solve_consequents(np.ones((3, 2)), np.ones(3), lam=-1.0)


class TestEncodeDecode:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        m = make_model(rng.random((3, 2)),
                       SIGMA_FLOOR + rng.random((3, 2)) * 0.5,
                       rng.standard_normal((3, 3)))
        v = encode_premise(m.centers, m.sigmas)
        centers, sigmas = premise_arrays(v, 3, 2)
        np.testing.assert_array_equal(centers, m.centers)
        np.testing.assert_array_equal(sigmas, m.sigmas)

    def test_vector_layout_rule_major(self):
        m = make_model([[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]],
                       np.zeros((2, 3)))
        np.testing.assert_array_equal(
            encode_premise(m.centers, m.sigmas),
            [0.1, 0.5, 0.2, 0.6, 0.3, 0.7, 0.4, 0.8])

    def test_sigma_clamped_on_decode(self):
        _, low = premise_arrays(np.array([0.5, 0.0]), 1, 1)
        assert low[0, 0] == SIGMA_FLOOR
        _, high = premise_arrays(np.array([0.5, 5.0]), 1, 1)
        assert high[0, 0] == SIGMA_CAP

    def test_length_check(self):
        m = make_model([[0.5, 0.5], [0.2, 0.2]], [[0.3, 0.3], [0.3, 0.3]],
                       np.zeros((2, 3)))
        assert encode_premise(m.centers, m.sigmas).shape == (8,)
        with pytest.raises(ValueError):
            premise_arrays(np.zeros(7), 2, 2)

    def test_c2_d3_length_12(self):
        m = make_model(np.full((2, 3), 0.5), np.full((2, 3), 0.3),
                       np.zeros((2, 4)))
        assert encode_premise(m.centers, m.sigmas).shape == (12,)

    def test_bounds_follow_the_layout(self):
        bounds = premise_bounds(2, 3)
        assert len(bounds) == 12
        assert bounds[0::2] == (CENTER_BOUNDS,) * 6
        assert bounds[1::2] == (SIGMA_BOUNDS,) * 6


class TestModelValidation:
    def test_sigma_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            make_model([[0.5]], [[1e-6]], [[0.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            FisModel(centers=np.zeros((2, 2)), sigmas=np.full((2, 3), 0.1),
                     coeffs=np.zeros((2, 3)), stage=FeatureStage.XY2,
                     normalizer=unit_normalizer(2))


# --- parity of the matrix-product form with the direct formula -----------

def oracle_log_firing(m, X):
    """Direct form -0.5 sum_j ((x_j - c_ij) / s_ij)^2, rows x rules."""
    z = (X[:, None, :] - m.centers[None]) / m.sigmas[None]
    return -0.5 * np.einsum("ncd,ncd->nc", z, z)


def oracle_weights(m, X):
    logw = oracle_log_firing(m, X)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def oracle_predict(m, X):
    rule_out = X @ m.coeffs[:, :-1].T + m.coeffs[:, -1]
    return np.einsum("nc,nc->n", oracle_weights(m, X), rule_out)


def oracle_rmse(m, X, y, lam):
    Xa = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    A = (oracle_weights(m, X)[:, :, None] * Xa[:, None, :]).reshape(len(X), -1)
    resid = A @ solve_consequents(A, y, lam) - y
    return float(np.sqrt(np.mean(resid * resid)))


def log_firing_tolerance(m, X):
    """1e-9, widened where the expanded terms grow past ~5e5 (rows x rules).

    The matrix-product form adds S*x^2, -2*S*c*x and S*c^2, which cancel
    near a center, so its rounding error scales with their size, not
    with log w. On the search box (sigma >= 0.02) the terms stay below
    ~1e5 and the bound is 1e-9; at SIGMA_FLOOR they reach ~1e7.
    """
    S = m.sigmas ** -2.0
    terms = (S[None] * (np.abs(X)[:, None, :]
                        + np.abs(m.centers)[None]) ** 2).sum(axis=2)
    return 1e-9 * np.maximum(1.0, 2e-6 * terms)


@st.composite
def premises_and_rows(draw):
    c = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(c * (d + 1), 60))
    centers = draw(arrays(float, (c, d),
                          elements=st.floats(*CENTER_BOUNDS)))
    sigmas = draw(arrays(float, (c, d), elements=st.one_of(
        st.just(SIGMA_FLOOR), st.floats(*SIGMA_BOUNDS))))
    coeffs = draw(arrays(float, (c, d + 1), elements=st.floats(-2.0, 2.0)))
    X = draw(arrays(float, (n, d), elements=st.floats(0.0, 1.0)))
    return make_model(centers, sigmas, coeffs), X


class TestMatrixProductParity:
    @given(case=premises_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_log_firing(self, case):
        m, X = case
        got = log_firing_strengths(m.centers, m.sigmas, row_basis(X)).T
        want = oracle_log_firing(m, X)
        assert (np.abs(got - want) <= log_firing_tolerance(m, X)).all()

    @given(case=premises_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_predict_batch(self, case):
        m, X = case
        # a weight error e moves the output by at most 2 e |rule output|
        rule_out = np.abs(X @ m.coeffs[:, :-1].T + m.coeffs[:, -1])
        tol = (log_firing_tolerance(m, X).max(axis=1)
               * np.maximum(1.0, 2.0 * rule_out.max(axis=1)))
        assert (np.abs(predict_batch(m, X) - oracle_predict(m, X))
                <= tol).all()

    @given(case=premises_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_objective_rmse(self, case):
        m, X = case
        y = np.sin(3.0 * X[:, 0]) + X[:, -1] ** 2
        _, rmse = fitness(m.centers, m.sigmas, row_basis(X), y, 1e-6)
        assert abs(rmse - oracle_rmse(m, X, y, 1e-6)) <= 1e-9

    @given(case=premises_and_rows())
    @settings(max_examples=50, deadline=None)
    def test_fitness_is_the_refit(self, case):
        # the objective's consequents are the refit's, and its RMSE is the
        # refit model's RMSE through the prediction path
        m, X = case
        y = np.cos(2.0 * X[:, -1])
        coeffs, rmse = fitness(m.centers, m.sigmas, row_basis(X), y)
        refit = fit_consequents(m, X, y)
        np.testing.assert_array_equal(coeffs, refit.coeffs)
        resid = predict_batch(refit, X) - y
        assert rmse == pytest.approx(np.sqrt(np.mean(resid * resid)),
                                     rel=1e-9, abs=1e-12)
