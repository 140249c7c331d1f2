"""Fuzzy c-means clustering with seeded random membership initialization.

Alternates the classic updates

    v_i = sum_k u_ik^m x_k / sum_k u_ik^m
    u_ik = 1 / sum_j (||x_k - v_i|| / ||x_k - v_j||)^(2/(m-1))

with m = M, Bezdek's standard fuzzifier 2, until the objective
J = sum_i sum_k u_ik^m ||x_k - v_i||^2 falls by less than TOL in one
iteration, or for at most MAX_ITER iterations. Membership matrices are
initialized from seeded uniform draws and row-normalized, so runs are
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


M = 2.0
TOL = 1e-5
MAX_ITER = 200


@dataclass(frozen=True)
class FcmResult:
    centers: np.ndarray            # (c, d)
    memberships: np.ndarray        # (n, c), rows sum to 1
    iterations: int
    objective_history: np.ndarray  # J after each completed iteration


def _sq_distances(Xt: np.ndarray, centers: np.ndarray, out: np.ndarray,
                  buf: np.ndarray) -> np.ndarray:
    """Squared distance of every row to every center into `out`: (c, n).

    `Xt` is the (d, n) data; the sum runs feature by feature over
    contiguous rows, using `buf` for each feature's squared difference.
    """
    np.subtract(Xt[0], centers[:, :1], out=out)
    np.square(out, out=out)
    for j in range(1, Xt.shape[0]):
        np.subtract(Xt[j], centers[:, j:j + 1], out=buf)
        np.square(buf, out=buf)
        out += buf
    return out


def _memberships_from_distances(d2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Memberships (c, n) from squared distances, written into `out`."""
    # A point on (or so near that 1/d2 overflows) a center makes its
    # column's inverse distances non-summable; such columns become a
    # deterministic one-hot on the first nearest center, removing the
    # division singularity.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.power(d2, -1.0 / (M - 1.0), out=out)
        total = out.sum(axis=0)
        out /= total
    bad = ~np.isfinite(total) | (total == 0.0)
    if bad.any():
        cols = np.flatnonzero(bad)
        out[:, cols] = 0.0
        out[d2[:, cols].argmin(axis=0), cols] = 1.0
    return out


def fcm_cluster(data: np.ndarray, c: int, seed: int = 0) -> FcmResult:
    """Cluster row vectors of `data` into c fuzzy groups, starting from
    memberships drawn from `seed`.

    Expects data roughly scaled to [0, 1]. Raises UsageError when c < 2,
    ValueError when there are fewer points than clusters or the data
    contains non-finite values.

    The loop works in a clusters x rows layout: memberships, their m-th
    powers W and squared distances are (c, n) arrays made once per call,
    the data is read as (d, n) rows, and every reduction over the points
    runs along contiguous rows. W is computed once per iteration and
    serves both J and the next centers.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("fcm: data must be a 2-d (n, d) array")
    n, _ = X.shape
    if not c >= 2:
        raise UsageError(f"fcm: cluster count c (--rules) must be >= 2, "
                         f"got {c}")
    if n < c:
        raise ValueError(f"fcm: need at least c={c} points, got {n}")
    if not np.isfinite(X).all():
        raise ValueError("fcm: data contains non-finite values")

    rng = np.random.default_rng(seed)
    U = np.ascontiguousarray(rng.random((n, c)).T)
    U /= U.sum(axis=0)

    Xt = np.ascontiguousarray(X.T)
    W = np.power(U, M)
    d2 = np.empty_like(U)
    buf = np.empty_like(U)
    # An empty cluster keeps its previous center; on the first pass it
    # takes the data mean.
    centers = np.broadcast_to(X.mean(axis=0), (c, X.shape[1]))
    history = []
    prev_j = np.inf
    for _ in range(MAX_ITER):
        col = W.sum(axis=1)[:, None]
        centers = np.where(col > 0.0, (W @ X) / np.maximum(col, 1e-300),
                           centers)
        _sq_distances(Xt, centers, d2, buf)
        _memberships_from_distances(d2, U)
        np.power(U, M, out=W)
        j = float(np.multiply(W, d2, out=buf).sum())
        history.append(j)
        if prev_j - j < TOL:
            break
        prev_j = j

    return FcmResult(centers=centers, memberships=np.ascontiguousarray(U.T),
                     iterations=len(history),
                     objective_history=np.array(history))

