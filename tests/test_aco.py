import hashlib
import io
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antfis import aco, shares
from antfis.aco import (_ANT_STREAM, _INIT_STREAM, AcoConfig, OptResult,
                        SolutionArchive, kernel_widths, optimize,
                        rank_weights, sample_candidates, selection_cdf,
                        update_archive)
from antfis.errors import NumericError, UsageError
from antfis.rng import draws, mix_seed, substream


def make_archive(solutions, objectives):
    solutions = np.asarray(solutions, dtype=float)
    objectives = np.asarray(objectives, dtype=float)
    order = np.argsort(objectives, kind="stable")
    return SolutionArchive(solutions=solutions[order],
                           objectives=objectives[order])


def archive_cdf(archive, q=0.1):
    """Guide-selection cdf of the archive's rank weights at locality q."""
    return selection_cdf(rank_weights(len(archive.objectives), q))


def draw(archive, xi, bounds, rng, q=0.1):
    """One candidate: the only row of a one-ant draw block, whose guide
    uniform and then normals come from `rng`."""
    u = np.array([rng.random()])
    z = rng.standard_normal((1, archive.solutions.shape[1]))
    return sample_candidates(archive.solutions, archive_cdf(archive, q), xi,
                             bounds, u, z)[0]


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class TestRankWeights:
    def test_first_weight_closed_form(self):
        for k, q in ((5, 0.3), (25, 0.1), (50, 1.0)):
            w = rank_weights(k, q)
            assert w[0] == pytest.approx(1.0 / (q * k * math.sqrt(2 * math.pi)),
                                         rel=1e-12)

    def test_strictly_decreasing(self):
        w = rank_weights(25, 0.1)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_ratio_formula(self):
        # direct formula evaluation: w1/w2 = exp(1 / (2 (q k)^2)) at k=25, q=0.1
        w = rank_weights(25, 0.1)
        assert w[0] / w[1] == pytest.approx(math.exp(1.0 / (2 * 2.5**2)),
                                            rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_weights(1, 0.1)
        with pytest.raises(ValueError):
            rank_weights(5, 0.0)

    def test_extreme_q(self):
        # q k so large that q k sqrt(2 pi) overflows (all weights 0), or so
        # small that 2 q^2 k^2 underflows (0/0 at rank 1): both would make
        # an all-NaN selection CDF, so both are usage errors naming --q
        for q in (1e308, 1e-300, 5e-324):
            with pytest.raises(UsageError, match="--q"):
                rank_weights(25, q)
        # q^2 overflows a Python float here; the weights are just uniform
        w = rank_weights(25, 1e200)
        assert np.isfinite(w).all() and (w == w[0]).all() and w[0] > 0.0


class TestSampleCandidate:
    def test_collapsed_archive_returns_that_vector(self):
        vec = np.array([0.3, -0.2, 0.7])
        arch = make_archive(np.tile(vec, (5, 1)), np.zeros(5))
        bounds = np.array([[-1.0, 1.0]] * 3)
        rng = substream(0, 1)
        out = draw(arch, 0.85, bounds, rng)
        np.testing.assert_allclose(out, vec, atol=1e-6)

    def test_guide_selection_frequencies(self):
        k = 5
        arch = make_archive(np.arange(k, dtype=float)[:, None] * 100.0,
                            np.arange(k, dtype=float))
        bounds = np.array([[-1000.0, 1000.0]])
        weights = rank_weights(k, 0.3)
        probs = weights / weights.sum()
        n = 100_000
        rng = substream(42, 0)
        # n one-ant draws in turn from one generator, as one block
        u, z = np.empty(n), np.empty((n, 1))
        for a in range(n):
            u[a] = rng.random()
            rng.standard_normal(out=z[a])
        v = sample_candidates(arch.solutions, archive_cdf(arch, 0.3), 0.05,
                              bounds, u, z)
        # identify the guide by nearest archive member (sd is small vs spacing)
        counts = np.bincount(
            np.argmin(np.abs(arch.solutions[:, 0] - v[:, :1]), axis=1),
            minlength=k)
        for i in range(k):
            sd = math.sqrt(n * probs[i] * (1 - probs[i]))
            assert abs(counts[i] - n * probs[i]) <= 3 * sd + 1

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_samples_respect_bounds(self, seed):
        rng = np.random.default_rng(seed)
        k, d = 6, 3
        bounds = np.column_stack([np.full(d, -0.5), np.full(d, 0.8)])
        sols = -0.5 + 1.3 * rng.random((k, d))
        arch = make_archive(sols, rng.random(k))
        out = draw(arch, 0.85, bounds, substream(seed, 2))
        assert (out >= bounds[:, 0]).all() and (out <= bounds[:, 1]).all()

    def test_zero_spread_dimension_floored(self):
        sols = np.column_stack([np.full(4, 0.25), np.linspace(0, 1, 4)])
        arch = make_archive(sols, np.arange(4.0))
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = draw(arch, 0.85, bounds, substream(3, 0))
        assert abs(out[0] - 0.25) < 1e-6  # sd floor ~ 1e-9 * span


    @given(seed=st.integers(0, 10_000), k=st.integers(2, 30),
           d=st.integers(1, 40), xi=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_hoisted_widths_match_per_guide_formula(self, seed, k, d, xi):
        # optimize computes every guide's width once per iteration; each
        # row must carry the bits the per-guide formula gives, so seeded
        # trajectories do not change
        rng = np.random.default_rng(seed)
        sols = rng.uniform(-3.0, 3.0, (k, d))
        sols[rng.random((k, d)) < 0.2] = 0.5  # ties: zero-spread coordinates
        bounds = np.column_stack([np.full(d, -3.0), np.full(d, 3.0)])
        widths = kernel_widths(sols, xi, bounds, np.arange(k))
        for g in range(k):
            sd = xi * np.abs(sols - sols[g]).sum(axis=0) / (k - 1)
            sd = np.maximum(sd, 1e-9 * (bounds[:, 1] - bounds[:, 0]))
            assert np.array_equal(widths[g], sd)


    @given(seed=st.integers(0, 10_000), k=st.integers(2, 30),
           d=st.integers(1, 40), g=st.integers(1, 40),
           xi=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_chosen_guide_widths_match_kernel_widths(self, seed, k, d, g, xi):
        # the sampler computes widths only for the guides its ants chose;
        # each row must carry the bits of that guide's full-archive row
        rng = np.random.default_rng(seed)
        sols = rng.uniform(-3.0, 3.0, (k, d))
        sols[rng.random((k, d)) < 0.2] = 0.5
        bounds = np.column_stack([np.full(d, -3.0), np.full(d, 3.0)])
        guides = np.unique(rng.integers(0, k, g))
        assert np.array_equal(kernel_widths(sols, xi, bounds, guides),
                              kernel_widths(sols, xi, bounds,
                                            np.arange(k))[guides])

    @given(seed=st.integers(0, 10_000), it=st.integers(0, 500),
           n_ants=st.integers(1, 30), d=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_row_a_is_ant_a(self, seed, it, n_ants, d):
        # row a is the one-ant draw from the a-th stream: its guide
        # uniform picks the guide, its normals scale that guide's widths
        rng = np.random.default_rng(seed)
        k = 7
        arch = make_archive(rng.uniform(-1.0, 1.0, (k, d)), rng.random(k))
        bounds = np.array([[-1.0, 1.0]] * d)
        cdf = archive_cdf(arch)
        got = sample_candidates(arch.solutions, cdf, 0.85, bounds,
                                *draws(seed, _ANT_STREAM, it, count=n_ants,
                                       d=d))
        assert got.shape == (n_ants, d)
        for a in range(n_ants):
            ant = substream(seed, _ANT_STREAM, it, a)
            np.testing.assert_array_equal(got[a], draw(arch, 0.85, bounds,
                                                       ant))


class TestUpdateArchive:
    def test_all_worse_leaves_archive_unchanged(self):
        arch = make_archive(np.arange(8.0)[:, None], np.arange(8.0))
        cands = np.array([[99.0], [50.0]])
        out = update_archive(arch, cands, np.array([99.0, 50.0]))
        np.testing.assert_array_equal(out.solutions, arch.solutions)
        np.testing.assert_array_equal(out.objectives, arch.objectives)

    def test_better_candidate_becomes_rank_one(self):
        arch = make_archive(np.arange(1.0, 9.0)[:, None], np.arange(1.0, 9.0))
        out = update_archive(arch, np.array([[0.5]]), np.array([0.5]))
        assert out.objectives[0] == 0.5
        assert out.solutions[0, 0] == 0.5
        assert len(out.objectives) == 8

    def test_ties_keep_earlier_insertion(self):
        arch = make_archive(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        out = update_archive(arch, np.array([[100.0]]), np.array([2.0]))
        # the incumbent 2.0 (solution value 2.0) wins the tie
        np.testing.assert_array_equal(out.solutions.ravel(), [1.0, 2.0])

    def test_nan_discarded(self, caplog):
        arch = make_archive(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        out = update_archive(arch, np.array([[0.1], [0.2]]),
                             np.array([np.nan, 0.0]))
        assert out.objectives[0] == 0.0
        assert not np.isnan(out.objectives).any()
        assert caplog.messages == [
            "aco: discarded 1 candidate(s) with NaN objective"]

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_sort(self, seed):
        rng = np.random.default_rng(seed)
        k, m = 6, 9
        arch = make_archive(rng.random((k, 2)), rng.integers(0, 4, k) * 1.0)
        cands = rng.random((m, 2))
        objs = rng.integers(0, 4, m) * 1.0
        out = update_archive(arch, cands, objs)
        # independent oracle: stable sort of the concatenated pool
        pool_obj = np.concatenate([arch.objectives, objs])
        pool_sol = np.vstack([arch.solutions, cands])
        order = np.argsort(pool_obj, kind="stable")[:k]
        np.testing.assert_array_equal(out.objectives, pool_obj[order])
        np.testing.assert_array_equal(out.solutions, pool_sol[order])

    # few distinct values, so ties, NaN and both infinities mix
    OBJECTIVES = st.sampled_from([np.nan, -np.inf, np.inf, -1.0, 0.0, 2.0])

    @given(archived=st.lists(OBJECTIVES, min_size=2, max_size=8),
           new=st.lists(OBJECTIVES, max_size=10))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_as_merge_without_nan_candidates(self, caplog, archived,
                                                  new):
        caplog.clear()
        arch = make_archive(np.arange(len(archived), dtype=float)[:, None],
                            archived)
        cands = 100.0 + np.arange(len(new), dtype=float)[:, None]
        objs = np.array(new, dtype=float)
        out = update_archive(arch, cands, objs)
        # oracle: drop the NaN candidates, then merge and keep the best k
        keep = ~np.isnan(objs)
        pool_obj = np.concatenate([arch.objectives, objs[keep]])
        pool_sol = np.vstack([arch.solutions, cands[keep]])
        order = np.argsort(pool_obj, kind="stable")[:len(archived)]
        np.testing.assert_array_equal(out.objectives, pool_obj[order])
        np.testing.assert_array_equal(out.solutions, pool_sol[order])
        nans = int((~keep).sum())
        assert caplog.messages == (
            [f"aco: discarded {nans} candidate(s) with NaN objective"]
            if nans else [])


def box(dims, lo=-1.0, hi=1.0):
    return tuple((lo, hi) for _ in range(dims))


@pytest.fixture
def in_process(monkeypatch):
    """One CPU: every evaluation runs in the test's own process, so an
    objective can record its calls there."""
    monkeypatch.setattr(shares, "_cpu_count", lambda: 1)


class TestOptimize:
    def config(self, **kw):
        defaults = dict(n_ants=20, archive_size=25, max_iter=100)
        defaults.update(kw)
        return AcoConfig(**defaults)

    def test_sphere_converges(self):
        res = optimize(sphere, box(5), self.config(), seed=7)
        assert res.best_objective < 1e-3
        assert res.evaluations == 25 + 20 * 100

    def test_history_non_increasing(self):
        res = optimize(sphere, box(5), self.config(), seed=7)
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))
        assert len(res.history) == 100

    def test_constant_objective_flat_history(self):
        res = optimize(lambda v: 3.25, box(3), self.config(max_iter=20),
                       seed=7)
        assert res.best_objective == 3.25
        assert (res.history == 3.25).all()

    def test_seed_determinism(self):
        a = optimize(sphere, box(4), self.config(max_iter=30), seed=7)
        b = optimize(sphere, box(4), self.config(max_iter=30), seed=7)
        np.testing.assert_array_equal(a.best_vector, b.best_vector)
        assert a.best_objective == b.best_objective
        np.testing.assert_array_equal(a.history, b.history)

    def test_ant_draws_addressed_by_seed_iteration_ant(self, in_process):
        # replaying the archive from the recorded evaluations, ant a of
        # iteration it draws from the stream (seed, it, a) alone
        cfg = self.config(max_iter=6, n_ants=5, archive_size=8)
        seed = 7
        seen = []

        def recording(v):
            seen.append(v.copy())
            return sphere(v)

        optimize(recording, box(3), cfg, seed=seed)
        bounds = np.asarray(box(3))
        k, n = cfg.archive_size, cfg.n_ants
        init = substream(seed, _INIT_STREAM).random((k, 3))
        np.testing.assert_array_equal(seen[:k], -1.0 + 2.0 * init)
        arch = make_archive(seen[:k], [sphere(v) for v in seen[:k]])
        cdf = archive_cdf(arch, cfg.q)
        for it in range(cfg.max_iter):
            ants = [substream(seed, _ANT_STREAM, it, a) for a in range(n)]
            u = np.array([ant.random() for ant in ants])
            z = np.array([ant.standard_normal(3) for ant in ants])
            want = sample_candidates(arch.solutions, cdf, cfg.xi, bounds,
                                     u, z)
            np.testing.assert_array_equal(seen[k + it * n:k + (it + 1) * n],
                                          want)
            arch = update_archive(arch, want, [sphere(v) for v in want])

    def test_elitism_best_ever_retained(self, in_process):
        seen = []

        def recording(v):
            val = sphere(v)
            seen.append(val)
            return val

        res = optimize(recording, box(3), self.config(max_iter=40), seed=7)
        assert res.best_objective == min(seen)

    def test_all_candidates_in_bounds(self):
        lo, hi = -0.3, 0.6

        def checking(v):
            assert (v >= lo).all() and (v <= hi).all()
            return sphere(v)

        optimize(checking, box(4, lo, hi), self.config(max_iter=20), seed=7)

    def test_invalid_objective_everywhere(self):
        with pytest.raises(NumericError, match="invalid"):
            optimize(lambda v: float("inf"), box(2), self.config(max_iter=5),
                     seed=7)

    def test_partial_inf_is_tolerated(self):
        def partial(v):
            return sphere(v) if v[0] > 0 else float("inf")

        res = optimize(partial, box(2), self.config(max_iter=30), seed=7)
        assert np.isfinite(res.best_objective)

    def test_nan_objective_counted_in_every_round(self, in_process, caplog):
        # the initial round's NaN points rank last, a later round's are
        # dropped; each round with one says how many
        k, n, iters = 8, 6, 10
        values = []

        def partial(v):
            values.append(np.nan if v[0] > 0.5 else sphere(v))
            return values[-1]

        optimize(partial, box(2), self.config(max_iter=iters, n_ants=n,
                                              archive_size=k), seed=7)
        counts = [int(np.isnan(values[:k]).sum())] + [
            int(np.isnan(values[k + it * n:k + (it + 1) * n]).sum())
            for it in range(iters)]
        assert counts[0] > 0 and any(counts[1:])
        assert caplog.messages == [
            f"aco: ranked {counts[0]} initial point(s) with NaN objective "
            "last"] + [f"aco: discarded {c} candidate(s) with NaN objective"
                       for c in counts[1:] if c]

    def test_initial_guess_joins_archive(self):
        guess = np.zeros(4)
        res = optimize(sphere, box(4), self.config(max_iter=1), seed=7,
                       initial_guesses=(guess,))
        assert res.best_objective == 0.0
        np.testing.assert_array_equal(res.best_vector, guess)

    def test_bounds_checked(self):
        for bounds in ((), ((1.0, 1.0),), ((0.0, 1.0), (2.0, -2.0)),
                       ((0.0, np.inf),), ((np.nan, 1.0),), (0.0, 1.0),
                       ((0.0, 1.0, 2.0),)):
            with pytest.raises(ValueError, match="optimize: bounds"):
                optimize(sphere, bounds)

    def test_history_property_many_seeds(self):
        # broad determinism/monotonicity property across 50 seeds
        for seed in range(50):
            res = optimize(sphere, box(3), self.config(max_iter=15, n_ants=8,
                                                       archive_size=10),
                           seed=seed)
            assert all(a >= b for a, b in zip(res.history, res.history[1:]))


def rosenbrock(v):
    return float(np.sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2
                        + (1.0 - v[:-1]) ** 2))


ROSENBROCK = AcoConfig(n_ants=7, archive_size=10, max_iter=40)


def rosenbrock_run(objective=rosenbrock, config=ROSENBROCK):
    return optimize(objective, box(4, -2.0, 2.0), config, seed=11)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """Patch os.fork to record each child made; return the record."""
    forks, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


class TestOptimizeInWorkers:
    """optimize evaluates each round's candidates in this process and in
    workers forked once per call, one per other CPU, which claim them one
    at a time from a shared board. The result never depends on the CPU
    count, on who claims which ant, or on a failure."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bits_pinned_for_any_cpu_count(self, monkeypatch, cpus):
        # the bits of the in-process run before workers existed
        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        res = rosenbrock_run()
        assert [v.hex() for v in res.best_vector] == [
            "0x1.2fa5b15ca9598p-1", "0x1.6616d547fb460p-2",
            "0x1.0af1c7efc04c0p-3", "0x1.d909e73b94800p-7"]
        assert res.best_objective.hex() == "0x1.5a337d69de6b4p+0"
        assert hashlib.sha256(res.history.tobytes()).hexdigest() == (
            "aa4303d54c91cefd733737e2238f0026d789e0ae555648c165240ebb33b63ad6")
        assert res.evaluations == 10 + 40 * 7

    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    def test_one_worker_per_other_cpu_per_call(self, monkeypatch, cpus):
        # at most one share per ant: 7 ants use 7 of 16 CPUs
        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        forks = counting_forks(monkeypatch)
        rosenbrock_run()
        assert len(forks) == min(cpus, ROSENBROCK.n_ants) - 1
        assert_no_child_left()

    @staticmethod
    def serial():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shares, "_cpu_count", lambda: 1)
            return rosenbrock_run()

    @staticmethod
    def assert_same(a, b):
        np.testing.assert_array_equal(a.best_vector, b.best_vector)
        np.testing.assert_array_equal(a.history, b.history)
        assert a.evaluations == b.evaluations

    def test_objective_writing_into_its_vector(self, monkeypatch):
        # the objective gets a private copy of each vector at any CPU
        # count, so a write into it changes neither the archive nor the
        # result
        def halving(v):
            value = sphere(v)
            v *= 0.5
            return value

        config = AcoConfig(n_ants=6, archive_size=5, max_iter=5)
        for seed in (0, 4):
            expected = optimize(sphere, box(4), config, seed=seed)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
                self.assert_same(optimize(halving, box(4), config,
                                          seed=seed), expected)

    @pytest.mark.parametrize("how", ["kill", "raise", "no fork", "no pipe",
                                     "no temp file"])
    def test_failed_worker_gives_same_result(self, monkeypatch, how):
        expected = self.serial()
        parent, calls = os.getpid(), [0]

        def failing_in_child(v):
            if os.getpid() != parent:
                calls[0] += 1
                if calls[0] == 30:  # mid-run, after some rounds
                    if how == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise RuntimeError("child fails")
            return rosenbrock(v)

        def failing(*args, **kwargs):
            raise OSError(how)

        if how == "no fork":
            monkeypatch.setattr(os, "fork", failing)
        if how == "no pipe":
            monkeypatch.setattr(os, "pipe", failing)
        if how == "no temp file":
            monkeypatch.setattr(shares.tempfile, "TemporaryFile", failing)
        monkeypatch.setattr(shares, "_cpu_count", lambda: 3)
        self.assert_same(rosenbrock_run(failing_in_child), expected)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_error_in_a_worker_share_is_the_serial_error(self, monkeypatch,
                                                          cpus):
        # ant 5 of the first iteration is in a worker's share for 2 and 3
        # CPUs; the worker fails, and the share evaluated again here
        # raises the serial error
        k = ROSENBROCK.archive_size
        seen = []
        with monkeypatch.context() as mp:
            mp.setattr(shares, "_cpu_count", lambda: 1)
            rosenbrock_run(lambda v: seen.append(v.copy()) or rosenbrock(v))
        target = seen[k + 5]

        def failing(v):
            if np.array_equal(v, target):
                raise ZeroDivisionError(f"bad vector {v.tolist()}")
            return rosenbrock(v)

        errors = []
        for n in (1, cpus):
            monkeypatch.setattr(shares, "_cpu_count", lambda: n)
            with pytest.raises(ZeroDivisionError) as info:
                rosenbrock_run(failing)
            errors.append(str(info.value))
            assert_no_child_left()
        assert errors[0] == errors[1] == f"bad vector {target.tolist()}"

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_two_errors_in_different_shares_raise_the_lower_ant(
            self, monkeypatch, cpus):
        # ants 2 and 5 of the first iteration are in different shares for
        # 2 and 3 CPUs (cuts 0 3 7 and 0 2 4 7); a serial run raises at
        # ant 2, and so does every CPU count
        k = ROSENBROCK.archive_size
        seen = []
        with monkeypatch.context() as mp:
            mp.setattr(shares, "_cpu_count", lambda: 1)
            rosenbrock_run(lambda v: seen.append(v.copy()) or rosenbrock(v))
        targets = [seen[k + 2], seen[k + 5]]

        def failing(v):
            if any(np.array_equal(v, target) for target in targets):
                raise ZeroDivisionError(f"bad vector {v.tolist()}")
            return rosenbrock(v)

        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        with pytest.raises(ZeroDivisionError) as info:
            rosenbrock_run(failing)
        assert str(info.value) == f"bad vector {targets[0].tolist()}"
        assert_no_child_left()

    def test_slow_worker_leaves_this_process_most_ants(self, monkeypatch):
        # ants are claimed one at a time, not handed out in fixed shares:
        # a worker that takes about 1 ms an ant leaves this process more
        # than half of them (fixed shares would leave it 125 of 290)
        parent, here = os.getpid(), [0]

        def slow_in_child(v):
            if os.getpid() == parent:
                here[0] += 1
            else:
                time.sleep(1e-3)
            return rosenbrock(v)

        monkeypatch.setattr(shares, "_cpu_count", lambda: 2)
        res = rosenbrock_run(slow_in_child)
        self.assert_same(res, self.serial())
        assert here[0] > res.evaluations / 2
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_share_scanning_from_ant_0(self, monkeypatch, cpus):
        # every process starts its scan at the same ant, so they race on
        # the claims; an ant evaluated twice gets the same bits twice
        monkeypatch.setattr(shares, "_cuts",
                            lambda n, count: [0] * (count + 1))
        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        self.assert_same(rosenbrock_run(), self.serial())
        assert_no_child_left()

    def test_board_too_large_to_map_is_a_memory_error(self):
        # raised before any ant draws, as numpy raises for an array
        config = AcoConfig(n_ants=10**18, max_iter=1)
        with pytest.raises(MemoryError, match="^Unable to allocate"):
            optimize(sphere, box(2), config)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("error", [KeyboardInterrupt(),
                                       ZeroDivisionError("parent fails")])
    def test_parent_interrupted_between_rounds_leaves_nothing(
            self, monkeypatch, error, cpus):
        # on 2 CPUs the worker is pinned, and this process never is
        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        forks = counting_forks(monkeypatch)
        real_sample, calls = aco.sample_candidates, [0]

        def interrupted(*args):
            calls[0] += 1
            if calls[0] == 5:
                raise error
            return real_sample(*args)

        monkeypatch.setattr(aco, "sample_candidates", interrupted)
        fds = len(os.listdir("/proc/self/fd")) if sys.platform == "linux" \
            else None
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
            else None
        with pytest.raises(type(error), match=str(error) or None):
            rosenbrock_run()
        assert len(forks) == cpus - 1
        assert_no_child_left()
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds
        if mask is not None:
            assert os.sched_getaffinity(0) == mask

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs to pin")
    def test_worker_pinned_to_a_cpu_of_its_own(self, monkeypatch,
                                               tmp_path):
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(shares, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def recording(v):
            # each process notes the CPUs it may run on, in a file of its own
            with open(tmp_path / str(os.getpid()), "a") as fh:
                fh.write(" ".join(map(str, sorted(os.sched_getaffinity(0))))
                         + "\n")
            return rosenbrock(v)

        self.assert_same(rosenbrock_run(recording), self.serial())
        seen = {int(path.name): set(path.read_text().splitlines())
                for path in tmp_path.iterdir()}
        assert seen.pop(parent) == {" ".join(map(str, sorted(mask)))}
        [[cpu]] = seen.values()  # one worker, always on one CPU
        assert int(cpu) in mask
        assert os.sched_getaffinity(0) == mask

    def test_request_beyond_the_pipe_buffer(self, monkeypatch):
        # 1,000 rows of 10 float64s per worker: an 80,000-byte request,
        # more than a 64 KiB pipe holds
        monkeypatch.setattr(shares, "_cpu_count", lambda: 2)
        config = AcoConfig(n_ants=2000, archive_size=5, max_iter=2)
        many = optimize(sphere, box(10), config, seed=3)
        monkeypatch.setattr(shares, "_cpu_count", lambda: 1)
        one = optimize(sphere, box(10), config, seed=3)
        np.testing.assert_array_equal(many.best_vector, one.best_vector)
        np.testing.assert_array_equal(many.history, one.history)
        assert_no_child_left()

    def test_more_cpus_than_archive_rows(self, monkeypatch):
        # the initial round leaves some workers an empty share
        config = AcoConfig(n_ants=6, archive_size=2, max_iter=3)
        monkeypatch.setattr(shares, "_cpu_count", lambda: 1)
        one = optimize(sphere, box(3), config, seed=5)
        monkeypatch.setattr(shares, "_cpu_count", lambda: 5)
        many = optimize(sphere, box(3), config, seed=5)
        np.testing.assert_array_equal(many.history, one.history)
        assert_no_child_left()

    def test_no_worker_inside_a_share(self, monkeypatch):
        # optimize run by a share of _in_shares, here or in a child,
        # forks nothing: work never nests
        monkeypatch.setattr(shares, "_cpu_count", lambda: 2)
        forks = counting_forks(monkeypatch)

        def run(share, out):
            before = len(forks)
            for _ in share:
                rosenbrock_run()
            out.write(bytes([len(forks) - before]))

        out = io.BytesIO()
        shares._in_shares(run, [0, 1], out)
        assert out.getvalue() == bytes([0, 0])
        assert len(forks) == 1  # the share's own child
        assert_no_child_left()

    def test_second_thread_keeps_evaluation_in_process(self, monkeypatch):
        monkeypatch.setattr(shares, "_cpu_count", lambda: 2)
        forks = counting_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            res = rosenbrock_run()
        finally:
            release.set()
            thread.join()
        assert forks == []
        self.assert_same(res, self.serial())


class TestAcoConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AcoConfig(n_ants=0)
        with pytest.raises(ValueError):
            AcoConfig(archive_size=1)
        with pytest.raises(ValueError):
            AcoConfig(q=0.0)
        with pytest.raises(ValueError):
            AcoConfig(xi=0.0)
        with pytest.raises(ValueError):
            AcoConfig(xi=1.5)
        with pytest.raises(ValueError):
            AcoConfig(max_iter=0)
        with pytest.raises(UsageError, match="--q"):
            AcoConfig(q=1e308)


class TestRngHelpers:
    def test_mix_seed_stable_and_distinct(self):
        assert mix_seed(7, 1, 2) == mix_seed(7, 1, 2)
        assert mix_seed(7, 1, 2) != mix_seed(7, 2, 1)
        assert mix_seed(7) != mix_seed(8)

    def test_substream_determinism_and_independence(self):
        a = substream(7, 3, 4).random(5)
        b = substream(7, 3, 4).random(5)
        c = substream(7, 3, 5).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(seed=st.integers(0, 2**64 - 1), it=st.integers(0, 10**6),
           count=st.integers(0, 12), d=st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_rows_of_draws_are_draws_of_fresh_substreams(self, seed, it,
                                                         count, d):
        # the re-keyed generator draws what a fresh substream draws,
        # whatever the previous key left in its buffer
        u, z = draws(seed, 1, it, count=count, d=d)
        assert u.shape == (count,) and z.shape == (count, d)
        for i in range(count):
            want = substream(seed, 1, it, i)
            assert u[i] == want.random()
            np.testing.assert_array_equal(z[i], want.standard_normal(d))
