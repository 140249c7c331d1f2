"""First-order Takagi-Sugeno fuzzy system with Gaussian premises.

Each rule carries one Gaussian membership function per input feature and
an affine consequent. The output is the firing-strength-weighted average
of the rule consequents, computed through a log-domain shift so the
mixture stays defined even when every raw strength underflows.

Premise parameters live on a flat vector (rule-major, feature-minor,
(center, sigma) pairs) so an external optimizer can tune them while the
consequents are refit by damped least squares. Only this module knows
that layout: encode_premise, its inverse premise_arrays, and the search
box premise_bounds. Training builds a FisModel only for the best vector.

Batch arrays use a rules x rows layout: every per-rule quantity is a
(c, n) array whose rows run over the n samples. Log-firing is one matrix
product of a (c, 2d+1) premise matrix with the (2d+1, n) row basis
[X^2, X, 1], which training builds once; the max shift, exp and
normalisation then work on contiguous rows of length n, and the
transposed design matrix (c*(d+1), n) is the normalized strengths times
the (X, 1) rows of that basis. `fitness` is the one path that refits
the consequents and scores them.

Prediction takes raw feature rows and runs in equal-size row blocks of
at most dataset._BLOCK_ROWS rows, each scaled straight into the
feature rows of its basis just before it is predicted, so its working
set stays in cache and its memory flat in the batch size. The sizes
are equal, not fixed with a short tail, because numpy sends a
one-column product to BLAS gemv, which rounds differently from gemm: a
one-row tail would change the last bits of its prediction, while equal
blocks give the bits of one product over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Normalizer, _row_blocks

SIGMA_FLOOR = 1e-3
SIGMA_CAP = 1.0
DEFAULT_DAMPING = 1e-6
# Search box for premise parameters in normalized feature space: centers
# may sit somewhat outside [0, 1]; sigma's lower edge avoids needle rules.
CENTER_BOUNDS = (-0.25, 1.25)
SIGMA_BOUNDS = (0.02, SIGMA_CAP)


@dataclass(frozen=True)
class FisModel:
    """Immutable rule base."""

    centers: np.ndarray   # (c, d) premise centers
    sigmas: np.ndarray    # (c, d) premise widths, >= SIGMA_FLOOR
    coeffs: np.ndarray    # (c, d+1) affine consequents
    normalizer: Normalizer

    def __post_init__(self):
        c, d = self.centers.shape
        if self.sigmas.shape != (c, d) or self.coeffs.shape != (c, d + 1):
            raise ValueError("fis: inconsistent rule array shapes")
        if c < 1:
            raise ValueError("fis: need at least one rule")
        if d != len(self.normalizer.feature_names):
            raise ValueError(f"fis: premise arity {d} != "
                             f"{len(self.normalizer.feature_names)} "
                             "normalizer features")
        if not (np.isfinite(self.centers).all() and np.isfinite(self.sigmas).all()
                and np.isfinite(self.coeffs).all()):
            raise ValueError("fis: parameters must be finite")
        if (self.sigmas < SIGMA_FLOOR * (1.0 - 1e-12)).any():
            raise ValueError(f"fis: sigma below floor {SIGMA_FLOOR}")

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        return self.centers.shape[1]


def row_basis(X, normalizer: Normalizer | None = None) -> np.ndarray:
    """Basis [X^2, X, 1] of a feature batch, one row per term: (2d+1, n).

    Rows :d hold the squared features, rows d:2d the features and row 2d
    ones, so basis[d:] is the (x, 1) regressor block of the consequents.
    Training builds it once and reuses it at every fitness evaluation.
    Given a normalizer, X holds raw features, which it scales straight
    into rows d:2d.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    basis = np.empty((2 * d + 1, n))
    if normalizer is None:
        basis[d:2 * d] = X.T
    else:
        normalizer.transform(X, out=basis[d:2 * d])
    np.square(basis[d:2 * d], out=basis[:d])
    basis[2 * d] = 1.0
    return basis


def log_firing_strengths(centers: np.ndarray, sigmas: np.ndarray,
                         basis: np.ndarray) -> np.ndarray:
    """log w for every rule and row: (c, n), as one matrix product.

    With S = 1/sigma^2, log w_i = -0.5 sum_j ((x_j - c_ij)/s_ij)^2 expands
    to row i of P = [-S/2, C*S, -sum_j C^2*S / 2] times the basis column
    [x^2, x, 1] of each row.
    """
    S = 1.0 / (sigmas * sigmas)
    CS = centers * S
    const = -0.5 * (CS * centers).sum(axis=1, keepdims=True)
    P = np.concatenate([-0.5 * S, CS, const], axis=1)
    return P @ basis


def normalized_firing(centers: np.ndarray, sigmas: np.ndarray,
                      basis: np.ndarray) -> np.ndarray:
    """Normalized strengths w_i / sum_j w_j per sample: (c, n).

    Stable under underflow: the log-domain shift by each sample's maximum
    keeps the dominant rule's weight at exp(0) = 1, so the denominator
    never rounds to zero. A row far outside the training range gives NaN,
    which trainer._predict rejects.
    """
    w = log_firing_strengths(centers, sigmas, basis)
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    return w


def predict_batch(model: FisModel, X) -> np.ndarray:
    """Weighted-average model output for a batch of raw feature rows
    (unclamped).

    X holds unscaled features, checked here; the model's normalizer
    scales each row block straight into that block's basis, so no
    full-size scaled copy exists. A row far outside the training range,
    or an overflowing rule output, gives NaN or inf: see trainer._predict.
    """
    X = np.asarray(X, dtype=float)
    d = model.n_features
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"predict: expected (n, {d}) "
                         f"features, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("predict: non-finite feature value")
    out = np.empty(len(X))
    for start, stop in _row_blocks(len(X)):
        basis = row_basis(X[start:stop], model.normalizer)
        w = normalized_firing(model.centers, model.sigmas, basis)
        w *= model.coeffs @ basis[d:]  # rule outputs, (c, rows)
        w.sum(axis=0, out=out[start:stop])
    return out


def solve_consequents(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve min ||A t - y||^2 + DEFAULT_DAMPING ||t||^2 for the stacked
    coefficients by the damped normal equations or, should they be
    singular in floating point, by minimum-norm least squares."""
    gram = A.T @ A
    gram.flat[::gram.shape[0] + 1] += DEFAULT_DAMPING
    try:
        return np.linalg.solve(gram, A.T @ y)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, y, rcond=None)[0]


def fitness(centers: np.ndarray, sigmas: np.ndarray, basis: np.ndarray,
            y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares consequents under fixed premises, damped by
    DEFAULT_DAMPING, and their RMSE.

    `centers` and `sigmas` are (c, d) premise arrays and `basis` is
    row_basis of the rows y belongs to. Returns the (c, d+1) consequents
    and the root-mean-square residual they leave. This is the one fitness
    path: the optimizer's objective and training's final refit, for the
    one FisModel it builds, both go through it.
    """
    c, d = centers.shape
    wbar = normalized_firing(centers, sigmas, basis)
    # transposed design matrix (c*(d+1), n): row i*(d+1)+j = wbar_i*(x,1)_j
    At = (wbar[:, None, :] * basis[d:][None]).reshape(c * (d + 1),
                                                      wbar.shape[1])
    theta = solve_consequents(At.T, y)
    resid = theta @ At - y
    return (theta.reshape(c, d + 1),
            float(np.sqrt(np.mean(resid * resid))))


def init_from_fcm(fcm_result, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seed premises, one rule per cluster, from a fuzzy c-means partition.

    Returns (centers, sigmas), each (c, d): the cluster centers, and per
    feature the membership-weighted standard deviation about the center,
    clipped to [SIGMA_FLOOR, SIGMA_CAP].
    """
    X = np.asarray(X, dtype=float)
    centers = np.asarray(fcm_result.centers, dtype=float)
    U = np.asarray(fcm_result.memberships, dtype=float)
    c, d = centers.shape
    if X.shape != (U.shape[0], d) or U.shape[1] != c:
        raise ValueError("init_from_fcm: clustering does not match the data")
    diff2 = (X[:, None, :] - centers[None, :, :]) ** 2
    wsum = U.sum(axis=0)
    var = np.einsum("nc,ncd->cd", U, diff2) / np.maximum(wsum[:, None], 1e-300)
    return centers, np.clip(np.sqrt(var), SIGMA_FLOOR, SIGMA_CAP)


def encode_premise(centers: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Flatten (c, d) premise arrays: rule-major, feature-minor,
    (center, sigma) pairs. premise_arrays is the inverse."""
    return np.stack([centers, sigmas], axis=-1).ravel()


def premise_bounds(n_rules: int, n_features: int) -> tuple[tuple[float, float], ...]:
    """Search box of an encoded premise vector, one (low, high) per entry."""
    return (CENTER_BOUNDS, SIGMA_BOUNDS) * (n_rules * n_features)


def premise_arrays(vector: np.ndarray, n_rules: int,
                   n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """(centers, sigmas) of an encoded premise vector, each (c, d).

    Sigmas are clamped to [SIGMA_FLOOR, SIGMA_CAP]. Raises ValueError on
    a wrong length or non-finite parameters, as FisModel does, without
    building a model: the optimizer's objective calls it per evaluation.
    """
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (2 * n_rules * n_features,):
        raise ValueError(f"fis: expected a premise vector of length "
                         f"{2 * n_rules * n_features}, got {vector.shape}")
    packed = vector.reshape(n_rules, n_features, 2)
    centers = packed[:, :, 0].copy()
    sigmas = np.clip(packed[:, :, 1], SIGMA_FLOOR, SIGMA_CAP)
    if not (np.isfinite(centers).all() and np.isfinite(sigmas).all()):
        raise ValueError("fis: parameters must be finite")
    return centers, sigmas
