"""Continuous-domain ant colony optimizer.

A ranked archive of the k best solutions plays the pheromone role: each
ant picks an archive member with rank-weighted probability, then samples
every coordinate from a Gaussian kernel centered on it whose width is
the mean spread of the archive in that coordinate. Out-of-bounds draws
are reflected back into the box. After each iteration the archive keeps
the best k of old plus new solutions, which forgets weak trails the way
evaporation does.

Every ant draws its guide uniform and kernel normals from its own
counter-based stream addressed by (seed, iteration, ant); rng.draws
gathers one iteration's draws into one block, row a for ant a, and
sample_candidates turns the block into candidates with array
operations. Kernel widths are computed only for the archive members
chosen as guides. All candidates of an iteration are drawn before any
is evaluated.

The evaluations of a round (the initial archive, then each iteration's
ants) are claimed from a board shared with workers forked once per
optimize call (shares._workers): an anonymous shared mapping of the
round's candidate rows, their objective values, and a claim and a done
byte per row. One function serves every share: from its own start it
scans the rows with wrap-around and evaluates a private copy of each row
it claims, so no process waits on a fixed half. A race on a claim only
makes two processes evaluate one ant, to the same bits. After the round
this process evaluates, in ant order, every row left not done (a failed
worker's, or one whose objective raised, which then raises the serial
error), so the result is the serial one for any CPU count.
"""

from __future__ import annotations

import io
import logging
import mmap
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import shares
from .errors import NumericError, UsageError
from .rng import draws, substream

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
                      bounds: np.ndarray, u: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """One candidate per row of the draw block (u, z) from the archive's
    kernel mixture: row a is the ant whose guide uniform is u[a] and whose
    d standard normals are z[a] (rng.draws).

    `cdf` comes from selection_cdf of the same archive. Guides are chosen
    with one searchsorted, kernel widths are computed only for the guides
    that were chosen, and all candidates are reflected in one call.
    """
    guides = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    chosen, slot = np.unique(guides, return_inverse=True)
    widths = kernel_widths(solutions, xi, bounds, chosen)[slot]
    return _reflect(solutions[guides] + widths * z,
                    bounds[:, 0], bounds[:, 1])


def update_archive(archive: SolutionArchive, candidates: np.ndarray,
                   objectives: np.ndarray) -> SolutionArchive:
    """Merge candidates, keep the best k; ties keep earlier insertions.

    +inf marks an invalid candidate and sorts after every number. A NaN
    objective sorts after +inf, so a NaN candidate, behind the archive's
    k entries, is never kept; their count is logged as discarded.
    """
    objectives = np.asarray(objectives, dtype=float)
    if nans := int(np.isnan(objectives).sum()):
        logger.warning("aco: discarded %d candidate(s) with NaN objective",
                       nans)
    merged_sol = np.vstack([archive.solutions, candidates])
    merged_obj = np.concatenate([archive.objectives, objectives])
    k = archive.solutions.shape[0]
    order = np.argsort(merged_obj, kind="stable")[:k]
    return SolutionArchive(solutions=merged_sol[order],
                           objectives=merged_obj[order])


def _board(n: int, dim: int) -> tuple[np.ndarray, ...]:
    """(rows, values, claimed, done) of n ants over one anonymous shared
    mapping, which forked workers share: (n, dim) candidate rows, n
    objective values, and n claim and n done bytes, all zero. A size
    that cannot be mapped raises MemoryError, as numpy's would."""
    size = n * (8 * dim + 10)
    try:
        mapped = mmap.mmap(-1, size)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"Unable to allocate {size:,} bytes for a board "
                          f"of {n:,} ants") from exc
    rows = np.frombuffer(mapped, count=n * dim).reshape(n, dim)
    values = np.frombuffer(mapped, count=n, offset=rows.nbytes)
    flags = np.frombuffer(mapped, np.uint8, count=2 * n,
                          offset=rows.nbytes + values.nbytes)
    return rows, values, flags[:n], flags[n:]


def optimize(objective: Callable[[np.ndarray], float],
             bounds: Sequence[tuple[float, float]],
             config: AcoConfig = AcoConfig(), seed: int = 0,
             initial_guesses: Sequence[np.ndarray] = ()) -> OptResult:
    """Minimize `objective` over the box of (lo, hi) pairs in `bounds`.

    The archive starts from k uniform samples drawn from `seed` (with any
    `initial_guesses` replacing the first few, clipped into bounds), then
    runs exactly max_iter iterations of sample / evaluate / merge. One
    function evaluates every share of a round, so the objective receives
    a private copy of each vector at any CPU count. It may return +inf to
    flag an invalid vector. A NaN initial point ranks last and a NaN
    candidate is dropped, each round's count logged. Raises NumericError
    if no initial point evaluates finite.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 \
            or not np.isfinite(bounds).all() \
            or not (bounds[:, 0] < bounds[:, 1]).all():
        raise ValueError(f"optimize: bounds must be finite (lo, hi) pairs "
                         f"with lo < hi, got {bounds.tolist()}")

    dim = len(bounds)
    count = shares._share_count(config.n_ants)
    rows, values, claimed, done = _board(
        max(config.archive_size, config.n_ants), dim)

    def serve(request: bytes, reply) -> None:
        n, start = map(int, request.split())
        for a in chain(range(start, n), range(start)):
            if claimed[a]:
                continue
            claimed[a] = 1
            try:
                values[a] = objective(rows[a].copy())
            except Exception:  # raised again below, after the round
                return
            done[a] = 1

    with shares._workers(count - 1, serve) as round:
        def evaluate_all(batch: np.ndarray) -> np.ndarray:
            n = len(batch)
            rows[:n] = batch
            claimed[:n] = done[:n] = 0
            round([b"%d %d" % (n, start)
                   for start in shares._cuts(n, count)[:-1]], io.BytesIO())
            for a in np.flatnonzero(done[:n] == 0):
                values[a] = objective(rows[a].copy())
            return values[:n].copy()

        k = config.archive_size
        lo, hi = bounds[:, 0], bounds[:, 1]
        init_rng = substream(seed, _INIT_STREAM)
        solutions = lo + (hi - lo) * init_rng.random((k, dim))
        for i, guess in enumerate(initial_guesses[:k]):
            solutions[i] = np.clip(np.asarray(guess, dtype=float), lo, hi)
        objectives = evaluate_all(solutions)
        if (nan := np.isnan(objectives)).any():
            logger.warning("aco: ranked %d initial point(s) with NaN "
                           "objective last", nan.sum())
        objectives[nan] = np.inf
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
                *draws(seed, _ANT_STREAM, it, count=config.n_ants, d=dim))
            archive = update_archive(archive, candidates,
                                     evaluate_all(candidates))
            history[it] = archive.objectives[0]

    return OptResult(best_vector=archive.solutions[0].copy(),
                     best_objective=float(archive.objectives[0]),
                     history=history,
                     evaluations=k + config.max_iter * config.n_ants)
