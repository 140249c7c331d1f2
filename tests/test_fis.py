import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from antfis import fis
from antfis.dataset import Normalizer, fit_normalizer
from antfis.fcm import fcm_cluster
from antfis.fis import (CENTER_BOUNDS, SIGMA_BOUNDS, SIGMA_CAP, SIGMA_FLOOR,
                        FisModel, encode_premise, fitness, init_from_fcm,
                        log_firing_strengths, predict_batch, premise_arrays,
                        premise_bounds, row_basis, solve_consequents)
from antfis.synthfield import PlumeParams, ReactorGeometry, generate_dataset


def unit_normalizer(d):
    names = ("x", "y", "z", "pressure", "air_superficial_velocity")[:d]
    return Normalizer(names, np.zeros(d), np.ones(d))


def make_model(centers, sigmas, coeffs):
    centers = np.asarray(centers, dtype=float)
    d = centers.shape[1]
    return FisModel(centers=centers, sigmas=np.asarray(sigmas, dtype=float),
                    coeffs=np.asarray(coeffs, dtype=float),
                    normalizer=unit_normalizer(d))


def damped_solve(A, y, lam):
    """min ||A t - y||^2 + lam ||t||^2 by numpy alone: the minimum-norm
    least-squares solution at lam = 0, else the damped normal equations."""
    if lam == 0.0:
        return np.linalg.lstsq(A, y, rcond=None)[0]
    return np.linalg.solve(A.T @ A + lam * np.eye(A.shape[1]), A.T @ y)


def damped(lam):
    """A context in which fis.fitness solves at damping `lam`: its own
    design matrix, solved by damped_solve(A, y, lam)."""
    return mock.patch.object(fis, "solve_consequents",
                             lambda A, y: damped_solve(A, y, lam))


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

    def test_clustering_of_other_data_rejected(self):
        X = np.random.default_rng(4).random((30, 2))
        res = fcm_cluster(X, 2, seed=1)
        for other in (X[:-1], X[:, :1]):
            with pytest.raises(ValueError, match="does not match the data"):
                init_from_fcm(res, other)


class TestFitConsequents:
    def test_planted_recovery(self):
        rng = np.random.default_rng(7)
        c, d, n = 3, 2, 200
        true = make_model(rng.random((c, d)), 0.2 + 0.3 * rng.random((c, d)),
                          rng.standard_normal((c, d + 1)))
        X = rng.random((n, d))
        y = predict_batch(true, X)
        with damped(0.0):
            coeffs, _ = fitness(true.centers, true.sigmas, row_basis(X), y)
        np.testing.assert_allclose(coeffs, true.coeffs, atol=1e-6)

    def test_planted_recovery_default_damping_bias(self):
        # Tikhonov damping biases exact recovery by about lam * cond(A);
        # with the default lam the planted coefficients come back to ~1e-5.
        rng = np.random.default_rng(7)
        c, d, n = 3, 2, 200
        true = make_model(rng.random((c, d)), 0.2 + 0.3 * rng.random((c, d)),
                          rng.standard_normal((c, d + 1)))
        X = rng.random((n, d))
        y = predict_batch(true, X)
        coeffs, _ = fitness(true.centers, true.sigmas, row_basis(X), y)
        np.testing.assert_allclose(coeffs, true.coeffs, atol=1e-4)

    def test_single_rule_matches_ols(self):
        rng = np.random.default_rng(9)
        x = rng.random(100)
        y = 1.7 * x + 0.3 + 0.01 * rng.standard_normal(100)
        m = make_model([[0.5]], [[0.3]], [[0.0, 0.0]])
        with damped(0.0):
            coeffs, _ = fitness(m.centers, m.sigmas, row_basis(x[:, None]), y)
        slope, intercept = np.polyfit(x, y, 1)
        assert coeffs[0, 0] == pytest.approx(slope, abs=1e-9)
        assert coeffs[0, 1] == pytest.approx(intercept, abs=1e-9)

    def test_exact_line_with_default_damping(self):
        x = np.linspace(0.0, 1.0, 50)
        y = 2.0 * x + 1.0
        m = make_model([[0.5]], [[0.3]], [[0.0, 0.0]])
        coeffs, _ = fitness(m.centers, m.sigmas, row_basis(x[:, None]), y)
        np.testing.assert_allclose(coeffs[0], [2.0, 1.0], atol=1e-6)

    def test_huge_damping_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 2))
        y = rng.random(50)
        m = make_model([[0.5, 0.5]], [[0.3, 0.3]], [[1.0, 1.0, 1.0]])
        with damped(1e12):
            coeffs, _ = fitness(m.centers, m.sigmas, row_basis(X), y)
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-6)

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
        coeffs, _ = fitness(m.centers, m.sigmas, row_basis(X), y)
        sse_after = np.sum((predict_batch(replace(m, coeffs=coeffs), X)
                            - y) ** 2)
        assert sse_after <= sse_before + 1e-9

    def test_underdetermined_minimum_norm(self):
        # more coefficients than rows: lam=0 must still solve
        rng = np.random.default_rng(4)
        m = make_model(rng.random((4, 3)), 0.2 + rng.random((4, 3)),
                       np.zeros((4, 4)))
        X = rng.random((5, 3))
        y = rng.random(5)
        with damped(0.0):
            coeffs, _ = fitness(m.centers, m.sigmas, row_basis(X), y)
        pred = predict_batch(replace(m, coeffs=coeffs), X)
        np.testing.assert_allclose(pred, y, atol=1e-8)

    def test_design_matrix_reproduces_prediction(self):
        # targets the model fits exactly: the undamped refit recovers its
        # consequents with zero residual
        rng = np.random.default_rng(6)
        m = make_model(rng.random((3, 2)), 0.2 + rng.random((3, 2)),
                       rng.standard_normal((3, 3)))
        X = rng.random((20, 2))
        with damped(0.0):
            coeffs, rmse = fitness(m.centers, m.sigmas, row_basis(X),
                                   predict_batch(m, X))
        assert rmse <= 1e-12
        np.testing.assert_allclose(coeffs, m.coeffs, rtol=0, atol=1e-10)

    def test_singular_normal_equations_fall_back_to_lstsq(self):
        rng = np.random.default_rng(8)
        A, y = rng.random((12, 4)), rng.random(12)
        want = np.linalg.lstsq(A, y, rcond=None)[0]
        with mock.patch.object(np.linalg, "solve",
                               side_effect=np.linalg.LinAlgError) as solve:
            got = solve_consequents(A, y)
        solve.assert_called_once()
        np.testing.assert_array_equal(got, want)


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
                     coeffs=np.zeros((2, 3)),
                     normalizer=unit_normalizer(2))

    def test_zero_rules_rejected(self):
        with pytest.raises(ValueError, match="at least one rule"):
            FisModel(centers=np.zeros((0, 2)), sigmas=np.zeros((0, 2)),
                     coeffs=np.zeros((0, 3)), normalizer=unit_normalizer(2))

    def test_normalizer_arity_mismatch(self):
        with pytest.raises(ValueError, match="normalizer features"):
            FisModel(centers=np.zeros((2, 2)), sigmas=np.full((2, 2), 0.1),
                     coeffs=np.zeros((2, 3)), normalizer=unit_normalizer(3))


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
    resid = A @ damped_solve(A, y, lam) - y
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
        with damped(1e-6):
            _, rmse = fitness(m.centers, m.sigmas, row_basis(X), y)
        assert abs(rmse - oracle_rmse(m, X, y, 1e-6)) <= 1e-9

    @given(case=premises_and_rows())
    @settings(max_examples=50, deadline=None)
    def test_fitness_is_the_refit(self, case):
        # the objective's RMSE is the RMSE of the refit model through the
        # prediction path
        m, X = case
        y = np.cos(2.0 * X[:, -1])
        coeffs, rmse = fitness(m.centers, m.sigmas, row_basis(X), y)
        resid = predict_batch(replace(m, coeffs=coeffs), X) - y
        assert rmse == pytest.approx(np.sqrt(np.mean(resid * resid)),
                                     rel=1e-9, abs=1e-12)


@pytest.fixture(scope="module")
def canonical_fis():
    """A 10-rule stage-5 model on the canonical 1500-node table: premises
    seeded by fuzzy c-means, consequents refit by fitness. Returns the
    model, the raw features, the row basis of their scaled form and the
    targets."""
    data = generate_dataset(ReactorGeometry(), PlumeParams(), 1500, seed=7)
    norm = fit_normalizer(data)
    X = norm.transform(data.features())
    y = data.targets()
    centers, sigmas = init_from_fcm(fcm_cluster(X, 10, seed=1), X)
    basis = row_basis(X)
    coeffs, _ = fitness(centers, sigmas, basis, y)
    return (FisModel(centers=centers, sigmas=sigmas, coeffs=coeffs,
                     normalizer=norm),
            data.features(), basis, y)


class TestRulePermutation:
    @given(perm=st.permutations(range(10)))
    @settings(max_examples=40, deadline=None)
    def test_predictions_and_rmse_barely_move(self, canonical_fis, perm):
        m, X, basis, y = canonical_fis
        perm = list(perm)
        permuted = replace(m, centers=m.centers[perm], sigmas=m.sigmas[perm],
                           coeffs=m.coeffs[perm])
        # Reordering the two c-term sums of the weighted average moves it
        # by at most about 2c ulps of the largest rule output.
        rule_out = np.abs(m.coeffs @ basis[m.n_features:]).max(axis=0)
        tol = 2 * m.n_rules * np.finfo(float).eps * rule_out
        assert (np.abs(predict_batch(permuted, X) - predict_batch(m, X))
                <= tol).all()
        # The refit solves the permuted normal equations, whose rounding
        # depends on the column order (cond ~ 2.5e8 here), so the RMSE
        # holds to the relative tolerance of the other fitness tests.
        rmse = fitness(m.centers, m.sigmas, basis, y)[1]
        assert fitness(permuted.centers, permuted.sigmas, basis, y)[1] \
            == pytest.approx(rmse, rel=1e-9)
