"""Continuous-domain ant colony optimizer.

A ranked archive of the k best solutions plays the pheromone role: each
ant picks an archive member with rank-weighted probability, then samples
every coordinate from a Gaussian kernel centered on it whose width is
the mean spread of the archive in that coordinate. Out-of-bounds draws
are reflected back into the box. After each iteration the archive keeps
the best k of old plus new solutions, which forgets weak trails the way
evaporation does.

Every ant draws its guide uniform and kernel normals from its own
counter-based stream addressed by (seed, iteration, ant); the draws of
one iteration's ants are gathered into one block, row a for ant a, and
turned into candidates with array operations. Kernel widths are computed
only for the archive members chosen as guides. All candidates of an
iteration are drawn before any is evaluated.

The evaluations of a round (the initial archive, then each iteration's
ants) run in contiguous shares, one per CPU (shares._round): this
process evaluates the first, and workers forked once per optimize call
evaluate the others from their rows sent as float64 bytes. The
objectives come back in ant order, so the result is the serial one for
any CPU count; a failed worker's share is evaluated here.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import shares
from .errors import NumericError, UsageError
from .rng import substream, substreams

logger = logging.getLogger(__name__)

_INIT_STREAM = 0
_ANT_STREAM = 1
_SD_FLOOR_REL = 1e-9  # kernel width floor, relative to the box extent


@dataclass(frozen=True)
class AcoConfig:
    n_ants: int = 20
    archive_size: int = 25
    q: float = 0.1          # locality: small q concentrates on top ranks
    xi: float = 0.85        # kernel width factor; smaller converges faster
    max_iter: int = 100

    def __post_init__(self):
        if not self.n_ants >= 1:
            raise UsageError(f"aco: n_ants (--ants) must be >= 1, got {self.n_ants}")
        if not self.archive_size >= 2:
            raise UsageError(f"aco: archive_size (--archive-size) must be >= 2, "
                             f"got {self.archive_size}")
        if not 0.0 < self.q < np.inf:
            raise UsageError(f"aco: q (--q) must be in (0, inf), got {self.q}")
        if not 0.0 < self.xi <= 1.0:
            raise UsageError(f"aco: xi (--xi) must be in (0, 1], got {self.xi}")
        if not self.max_iter >= 1:
            raise UsageError(f"aco: max_iter (--iters) must be >= 1, "
                             f"got {self.max_iter}")
        rank_weights(self.archive_size, self.q)


@dataclass(frozen=True)
class SolutionArchive:
    solutions: np.ndarray   # (k, d), ascending objective
    objectives: np.ndarray  # (k,)


@dataclass(frozen=True)
class OptResult:
    best_vector: np.ndarray
    best_objective: float
    history: np.ndarray     # best-so-far objective after each iteration
    evaluations: int


def rank_weights(k: int, q: float) -> np.ndarray:
    """Unnormalized Gaussian rank weights w_l for ranks l = 1..k.

    w_l = exp(-(l-1)^2 / (2 q^2 k^2)) / (q k sqrt(2 pi)); consumers
    normalize when forming selection probabilities.
    """
    if k < 2 or not 0.0 < q < np.inf:
        raise ValueError("rank_weights: need k >= 2 and finite q > 0")
    ranks = np.arange(k, dtype=float)
    with np.errstate(all="ignore"):  # a huge q squares to inf, not an error
        w = np.exp(-ranks ** 2 / (2.0 * np.float64(q) ** 2 * k ** 2)) \
            / (q * k * np.sqrt(2.0 * np.pi))
    if not (w[0] > 0.0 and np.isfinite(w).all()):
        raise UsageError(f"aco: q (--q) {q} gives undefined rank weights for {k} ranks")
    return w


def _reflect(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Closed form of repeated reflection at both walls (period 2*span).
    span = hi - lo
    t = np.mod(v - lo, 2.0 * span)
    return lo + np.where(t > span, 2.0 * span - t, t)


def selection_cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative guide-selection probabilities of the ranked archive."""
    return np.cumsum(weights / weights.sum())


def kernel_widths(solutions: np.ndarray, xi: float, bounds: np.ndarray,
                  guides: np.ndarray) -> np.ndarray:
    """Kernel widths with the given archive members as guides: (g, d).

    Row r is xi times the mean distance of the archive from member
    guides[r], coordinate by coordinate, floored relative to the box
    extent.
    """
    k = solutions.shape[0]
    centers = solutions[guides]
    spread = np.abs(solutions[None, :, :] - centers[:, None, :]).sum(axis=1)
    sd = xi * spread / (k - 1)
    return np.maximum(sd, _SD_FLOOR_REL * (bounds[:, 1] - bounds[:, 0]))


def sample_candidates(solutions: np.ndarray, cdf: np.ndarray, xi: float,
                      bounds: np.ndarray,
                      rngs: Iterable[np.random.Generator],
                      n_ants: int) -> np.ndarray:
    """Draw one candidate for each of the n_ants generators in `rngs` from
    the archive's kernel mixture.

    Each generator gives its ant one guide uniform, then d standard
    normals; row a of the result belongs to the a-th generator. The draw
    block is allocated before the first draw, so a count too large for
    memory raises MemoryError at once. `cdf` comes from selection_cdf of
    the same archive. Guides are chosen with one searchsorted, kernel
    widths are computed only for the guides that were chosen, and all
    candidates are reflected in one call.
    """
    d = solutions.shape[1]
    u = np.empty(n_ants)
    z = np.empty((n_ants, d))
    for a, rng in zip(range(n_ants), rngs, strict=True):
        u[a] = rng.random()
        rng.standard_normal(out=z[a])
    guides = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    chosen, slot = np.unique(guides, return_inverse=True)
    widths = kernel_widths(solutions, xi, bounds, chosen)[slot]
    return _reflect(solutions[guides] + widths * z,
                    bounds[:, 0], bounds[:, 1])


def update_archive(archive: SolutionArchive, candidates: np.ndarray,
                   objectives: np.ndarray) -> SolutionArchive:
    """Merge candidates, keep the best k; ties keep earlier insertions.

    NaN objectives are discarded with a warning; +inf marks an invalid
    candidate and simply sorts last.
    """
    objectives = np.asarray(objectives, dtype=float)
    keep = ~np.isnan(objectives)
    if not keep.all():
        logger.warning("aco: discarded %d candidate(s) with NaN objective",
                       int((~keep).sum()))
    merged_sol = np.vstack([archive.solutions, candidates[keep]])
    merged_obj = np.concatenate([archive.objectives, objectives[keep]])
    k = archive.solutions.shape[0]
    order = np.argsort(merged_obj, kind="stable")[:k]
    return SolutionArchive(solutions=merged_sol[order],
                           objectives=merged_obj[order])


def optimize(objective: Callable[[np.ndarray], float],
             bounds: Sequence[tuple[float, float]],
             config: AcoConfig = AcoConfig(), seed: int = 0,
             initial_guesses: Sequence[np.ndarray] = ()) -> OptResult:
    """Minimize `objective` over the box of (lo, hi) pairs in `bounds`.

    The archive starts from k uniform samples drawn from `seed` (with any
    `initial_guesses` replacing the first few, clipped into bounds), then
    runs exactly max_iter iterations of sample / evaluate / merge. The
    objective may return +inf to flag an invalid vector; NaN candidates
    are dropped. Raises NumericError if no initial point evaluates finite.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 \
            or not np.isfinite(bounds).all() \
            or not (bounds[:, 0] < bounds[:, 1]).all():
        raise ValueError(f"optimize: bounds must be finite (lo, hi) pairs "
                         f"with lo < hi, got {bounds.tolist()}")

    dim = len(bounds)

    def evaluate(batch: np.ndarray) -> bytes:
        values = np.empty(len(batch))
        for a, vector in enumerate(batch):
            values[a] = objective(vector)
        return values.tobytes()

    def serve(request: bytes, reply) -> None:
        reply.write(evaluate(np.frombuffer(request).reshape(-1, dim).copy()))

    with shares._workers(shares._share_count(config.n_ants) - 1,
                         serve) as workers:
        def evaluate_all(batch: np.ndarray) -> np.ndarray:
            cuts = shares._cuts(len(batch), len(workers) + 1)
            out = io.BytesIO()
            shares._round(workers, [batch[a:b].tobytes()
                                    for a, b in zip(cuts[1:], cuts[2:])],
                          lambda i, into: into.write(
                              evaluate(batch[cuts[i]:cuts[i + 1]])), out)
            return np.frombuffer(out.getvalue()).copy()

        k = config.archive_size
        lo, hi = bounds[:, 0], bounds[:, 1]
        init_rng = substream(seed, _INIT_STREAM)
        solutions = lo + (hi - lo) * init_rng.random((k, dim))
        for i, guess in enumerate(initial_guesses[:k]):
            solutions[i] = np.clip(np.asarray(guess, dtype=float), lo, hi)
        objectives = evaluate_all(solutions)
        objectives[np.isnan(objectives)] = np.inf
        if not np.isfinite(objectives).any():
            raise NumericError("aco: objective invalid on domain")

        order = np.argsort(objectives, kind="stable")
        archive = SolutionArchive(solutions=solutions[order],
                                  objectives=objectives[order])

        cdf = selection_cdf(rank_weights(k, config.q))
        history = np.empty(config.max_iter)
        for it in range(config.max_iter):
            candidates = sample_candidates(
                archive.solutions, cdf, config.xi, bounds,
                substreams(seed, _ANT_STREAM, it, count=config.n_ants),
                config.n_ants)
            archive = update_archive(archive, candidates,
                                     evaluate_all(candidates))
            history[it] = archive.objectives[0]

    return OptResult(best_vector=archive.solutions[0].copy(),
                     best_objective=float(archive.objectives[0]),
                     history=history,
                     evaluations=k + config.max_iter * config.n_ants)
