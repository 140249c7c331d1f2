import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antfis.errors import UsageError
from antfis.fcm import M, MAX_ITER, TOL, fcm_cluster


def two_clouds(n_per=100, sep=0.5, sd=0.05, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.25, 0.25], sd, size=(n_per, 2))
    b = rng.normal([0.25 + sep, 0.25 + sep], sd, size=(n_per, 2))
    return np.vstack([a, b])


def brute_force_objective(X, V, U, m):
    total = 0.0
    for i in range(V.shape[0]):
        for k in range(X.shape[0]):
            total += U[k, i] ** m * np.sum((X[k] - V[i]) ** 2)
    return total


def reference_fcm(X, U0):
    """The points x clusters loop fcm_cluster replaced: memberships (n, c)
    from the initial draws U0, distances from an (n, c, d) broadcast, U**m
    formed twice per pass. It runs at the module's settings."""
    X = np.asarray(X, dtype=float)
    U = U0 / U0.sum(axis=1, keepdims=True)
    m = M
    centers = np.empty((U0.shape[1], X.shape[1]))
    centers_known = False
    history = []
    prev_j = np.inf
    for _ in range(MAX_ITER):
        W = U ** m
        col = W.sum(axis=0)
        centers = np.where(col[:, None] > 0.0,
                           (W.T @ X) / np.maximum(col[:, None], 1e-300),
                           centers if centers_known else X.mean(axis=0))
        centers_known = True
        diff = X[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ncd,ncd->nc", diff, diff)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = d2 ** (-1.0 / (m - 1.0))
            U = inv / inv.sum(axis=1, keepdims=True)
        bad = ~np.isfinite(U).all(axis=1)
        if bad.any():
            rows = np.flatnonzero(bad)
            U[rows] = 0.0
            U[rows, d2[rows].argmin(axis=1)] = 1.0
        j = float(np.sum((U ** m) * d2))
        history.append(j)
        if prev_j - j < TOL:
            break
        prev_j = j
    return centers, U, history


def general_m_fcm(X, c, seed):
    """fcm_cluster's (c, n) loop as written for a general fuzzifier m:
    distances summed one feature at a time, memberships from
    d2 ** (-1/(m-1)) and weights from U ** m, through np.power. At
    m = M = 2 it is the arithmetic the m = 2 loop must match bit for bit."""
    X = np.asarray(X, dtype=float)
    m = M
    U = np.ascontiguousarray(np.random.default_rng(seed).random((len(X), c)).T)
    U /= U.sum(axis=0)
    Xt = np.ascontiguousarray(X.T)
    W = np.power(U, m)
    d2 = np.empty_like(U)
    buf = np.empty_like(U)
    centers = np.broadcast_to(X.mean(axis=0), (c, X.shape[1]))
    history = []
    prev_j = np.inf
    for _ in range(MAX_ITER):
        col = W.sum(axis=1)[:, None]
        centers = np.where(col > 0.0, (W @ X) / np.maximum(col, 1e-300),
                           centers)
        np.subtract(Xt[0], centers[:, :1], out=d2)
        np.square(d2, out=d2)
        for f in range(1, Xt.shape[0]):
            np.subtract(Xt[f], centers[:, f:f + 1], out=buf)
            np.square(buf, out=buf)
            d2 += buf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.power(d2, -1.0 / (m - 1.0), out=U)
            total = U.sum(axis=0)
            U /= total
        bad = ~np.isfinite(total) | (total == 0.0)
        if bad.any():
            cols = np.flatnonzero(bad)
            U[:, cols] = 0.0
            U[d2[:, cols].argmin(axis=0), cols] = 1.0
        np.power(U, m, out=W)
        j = float(np.multiply(W, d2, out=buf).sum())
        history.append(j)
        if prev_j - j < TOL:
            break
        prev_j = j
    return centers, U.T, np.array(history)


class TestFcmCluster:
    def test_separated_clouds_recover_means(self):
        X = two_clouds()
        res = fcm_cluster(X, 2, seed=1)
        means = np.array([X[:100].mean(axis=0), X[100:].mean(axis=0)])
        # match clusters to clouds by nearest center
        order = np.argsort(res.centers[:, 0])
        centers = res.centers[order]
        np.testing.assert_allclose(centers, means[np.argsort(means[:, 0])],
                                   atol=1e-3)
        # points belong overwhelmingly to their own cloud; tail points
        # between the clouds legitimately dip, so check the median
        own = res.memberships[np.arange(200),
                              res.memberships.argmax(axis=1)]
        assert np.median(own) > 0.99
        assert own.min() > 0.9

    def test_identical_points_no_nan(self):
        X = np.ones((20, 3)) * 0.4
        res = fcm_cluster(X, 2, seed=5)
        assert np.isfinite(res.centers).all()
        assert np.isfinite(res.memberships).all()
        assert np.isfinite(res.objective_history[-1])
        np.testing.assert_allclose(res.memberships.sum(axis=1), 1.0, atol=1e-9)

    def test_bitwise_determinism(self):
        X = two_clouds(seed=3)
        a = fcm_cluster(X, 3, seed=9)
        b = fcm_cluster(X, 3, seed=9)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.memberships, b.memberships)
        assert np.array_equal(a.objective_history, b.objective_history)
        assert a.iterations == b.iterations

    def test_objective_monotone_per_iteration(self):
        X = two_clouds(seed=4)
        res = fcm_cluster(X, 4, seed=2)
        h = res.objective_history
        assert all(h[i] - h[i + 1] >= -1e-12 for i in range(len(h) - 1))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            fcm_cluster(np.zeros((2, 2)), 3)

    def test_one_dimensional_data_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            fcm_cluster(np.linspace(0.0, 1.0, 10), 2)

    def test_nan_rejected(self):
        X = np.ones((10, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fcm_cluster(X, 2)

    def test_centers_inside_bounding_box(self):
        rng = np.random.default_rng(8)
        X = rng.random((80, 3))
        res = fcm_cluster(X, 5, seed=6)
        assert (res.centers >= X.min(axis=0) - 1e-12).all()
        assert (res.centers <= X.max(axis=0) + 1e-12).all()

    @given(seed=st.integers(0, 500), c=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_membership_rows_sum_to_one(self, seed, c):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 2))
        res = fcm_cluster(X, c, seed=seed)
        np.testing.assert_allclose(res.memberships.sum(axis=1), 1.0, atol=1e-9)
        assert (res.memberships >= 0.0).all()
        assert (res.memberships <= 1.0 + 1e-12).all()

    def test_permutation_equivariance_of_converged_solution(self):
        X = two_clouds(seed=12)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(X))
        # at the module's tol the two runs stop 4.0e-7 apart (2.7e-10 at
        # tol 1e-12), well inside atol
        res = fcm_cluster(X, 2, seed=1)
        res_p = fcm_cluster(X[perm], 2, seed=1)
        # centers equal as a set (up to relabeling)
        order = np.argsort(res.centers[:, 0])
        order_p = np.argsort(res_p.centers[:, 0])
        np.testing.assert_allclose(res.centers[order], res_p.centers[order_p],
                                   atol=1e-6)
        # membership rows follow their points (same relabeling)
        np.testing.assert_allclose(res.memberships[perm][:, order],
                                   res_p.memberships[:, order_p], atol=1e-6)


    @given(seed=st.integers(0, 10_000), d=st.integers(1, 5),
           c=st.integers(2, 10), extra=st.integers(0, 40),
           layout=st.sampled_from(["spread", "repeated", "coincident"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, seed, d, c, extra, layout):
        rng = np.random.default_rng(seed)
        X = rng.random((c + extra, d))
        if layout == "repeated":
            X = np.vstack([X, np.repeat(X[:1], c + extra, axis=0)])
        elif layout == "coincident":
            X[:] = 0.0  # every point on every center: d2 == 0 exactly
        n = len(X)
        U0 = np.random.default_rng(seed).random((n, c))  # fcm_cluster's draws
        centers, U, history = reference_fcm(X, U0)
        res = fcm_cluster(X, c, seed=seed)
        assert res.iterations == len(history)
        assert res.memberships.shape == U.shape
        # The layouts sum in different orders, and near a split of two
        # clusters FCM amplifies that rounding: the gap passed 1e-10 in
        # 7 of 16,000 random cases, and reached 2.3e-7 in a repeated-
        # point one. Reordering the points changes nothing but the
        # reference's own summation order, so its largest drift over a
        # few permutations measures how much this data amplifies; the
        # gap stayed within 10x of it wherever it passed 1e-11.
        drift = 0.0
        for _ in range(3):
            perm = rng.permutation(n)
            centers_p, U_p, history_p = reference_fcm(X[perm], U0[perm])
            drift = max(drift, np.abs(U_p[np.argsort(perm)] - U).max(),
                        np.abs(centers_p - centers).max(),
                        0.0 if len(history_p) == len(history) else np.inf)
        tol = max(1e-10, 100.0 * drift)
        assert np.abs(res.memberships - U).max() <= tol
        assert np.abs(res.centers - centers).max() <= tol

    @given(seed=st.integers(0, 10_000), d=st.integers(1, 5),
           c=st.integers(2, 10), extra=st.integers(0, 40),
           layout=st.sampled_from(["spread", "repeated", "coincident"]))
    @settings(max_examples=80, deadline=None)
    def test_same_bits_as_general_m_arithmetic(self, seed, d, c, extra,
                                               layout):
        X = np.random.default_rng(seed).random((c + extra, d))
        if layout == "repeated":
            X = np.vstack([X, np.repeat(X[:1], c + extra, axis=0)])
        elif layout == "coincident":
            X[:] = 0.0  # every point on every center: d2 == 0 exactly
        centers, U, history = general_m_fcm(X, c, seed)
        res = fcm_cluster(X, c, seed=seed)
        if layout == "coincident":  # the one-hot fallback
            assert (res.memberships[:, 0] == 1.0).all()
        assert np.array_equal(res.centers, centers)
        assert np.array_equal(res.memberships, U)
        assert np.array_equal(res.objective_history, history)


class TestFcmObjective:
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 7))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, c):
        # the reported J is the objective of the returned partition
        X = np.random.default_rng(seed).random((30, 3))
        res = fcm_cluster(X, c, seed=seed)
        assert res.objective_history[-1] == pytest.approx(
            brute_force_objective(X, res.centers, res.memberships, 2.0),
            rel=1e-12)


class TestFcmConfig:
    def test_invariants(self):
        with pytest.raises(UsageError, match="--rules"):
            fcm_cluster(np.zeros((4, 2)), 1)
