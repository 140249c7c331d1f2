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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import FeatureStage, Normalizer
from .errors import NumericError

SIGMA_FLOOR = 1e-3
SIGMA_CAP = 1.0
DEFAULT_DAMPING = 1e-6
# Search box for premise parameters in normalized feature space: centers
# may sit somewhat outside [0, 1]; sigma's lower edge avoids needle rules.
CENTER_BOUNDS = (-0.25, 1.25)
SIGMA_BOUNDS = (0.02, SIGMA_CAP)


@dataclass(frozen=True)
class FisModel:
    """Immutable rule base; refits return new models."""

    centers: np.ndarray   # (c, d) premise centers
    sigmas: np.ndarray    # (c, d) premise widths, >= SIGMA_FLOOR
    coeffs: np.ndarray    # (c, d+1) affine consequents
    stage: FeatureStage
    normalizer: Normalizer

    def __post_init__(self):
        c, d = self.centers.shape
        if self.sigmas.shape != (c, d) or self.coeffs.shape != (c, d + 1):
            raise ValueError("fis: inconsistent rule array shapes")
        if c < 1:
            raise ValueError("fis: need at least one rule")
        if d != self.stage.n_features:
            raise ValueError(f"fis: premise arity {d} != stage arity "
                             f"{self.stage.n_features}")
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


def row_basis(X) -> np.ndarray:
    """Basis [X^2, X, 1] of a feature batch, one row per term: (2d+1, n).

    Rows :d hold the squared features, rows d:2d the features and row 2d
    ones, so basis[d:] is the (x, 1) regressor block of the consequents.
    Training builds it once and reuses it at every fitness evaluation.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    basis = np.empty((2 * d + 1, n))
    np.square(X.T, out=basis[:d])
    basis[d:2 * d] = X.T
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
    never rounds to zero.
    """
    w = log_firing_strengths(centers, sigmas, basis)
    w -= w.max(axis=0)
    np.exp(w, out=w)
    total = w.sum(axis=0)
    if not np.isfinite(total).all() or (total == 0.0).any():
        raise NumericError("fis: all rule premises degenerate at some input")
    w /= total
    return w


def _regressors(centers: np.ndarray, sigmas: np.ndarray,
                basis: np.ndarray) -> np.ndarray:
    """Transposed design matrix (c*(d+1), n); row i*(d+1)+j = wbar_i*(x,1)_j."""
    wbar = normalized_firing(centers, sigmas, basis)
    c, n = wbar.shape
    Xa = basis[centers.shape[1]:]
    return (wbar[:, None, :] * Xa[None]).reshape(c * Xa.shape[0], n)


def predict_batch(model: FisModel, X) -> np.ndarray:
    """Weighted-average model output for a batch of feature rows (unclamped)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"predict: expected (n, {model.n_features}) "
                         f"features, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("predict: non-finite feature value")
    basis = row_basis(X)
    w = normalized_firing(model.centers, model.sigmas, basis)
    w *= model.coeffs @ basis[model.n_features:]  # rule outputs, (c, n)
    return w.sum(axis=0)


def solve_consequents(A: np.ndarray, y: np.ndarray,
                      lam: float = DEFAULT_DAMPING) -> np.ndarray:
    """Solve min ||A t - y||^2 + lam ||t||^2 for the stacked coefficients.

    With lam > 0 the normal equations are positive definite and solved
    directly; with lam = 0 the minimum-norm least-squares solution is
    returned, so rank-deficient systems never error.
    """
    if lam < 0.0:
        raise ValueError(f"solve_consequents: damping must be >= 0, got {lam}")
    if lam > 0.0:
        gram = A.T @ A
        gram.flat[::gram.shape[0] + 1] += lam
        try:
            return np.linalg.solve(gram, A.T @ y)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(A, y, rcond=None)[0]


def fitness(centers: np.ndarray, sigmas: np.ndarray, basis: np.ndarray,
            y: np.ndarray,
            lam: float = DEFAULT_DAMPING) -> tuple[np.ndarray, float]:
    """Damped least-squares consequents under fixed premises, and their RMSE.

    `centers` and `sigmas` are (c, d) premise arrays and `basis` is
    row_basis of the rows y belongs to. Returns the (c, d+1) consequents
    and the root-mean-square residual they leave. This is the one fitness
    path: the optimizer's objective, fit_consequents and training's final
    refit, for the one FisModel it builds, all go through it.
    """
    At = _regressors(centers, sigmas, basis)
    theta = solve_consequents(At.T, y, lam)
    resid = theta @ At - y
    c, d = centers.shape
    return (theta.reshape(c, d + 1),
            float(np.sqrt(np.mean(resid * resid))))


def fit_consequents(model: FisModel, X: np.ndarray, y: np.ndarray,
                    lam: float = DEFAULT_DAMPING) -> FisModel:
    """Refit the affine consequents by damped least squares, premises fixed."""
    coeffs, _ = fitness(model.centers, model.sigmas, row_basis(X),
                        np.asarray(y, dtype=float), lam)
    return replace(model, coeffs=coeffs)


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
