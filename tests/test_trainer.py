import os
import signal
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antfis import dataset, shares, trainer
from antfis.aco import AcoConfig
from antfis.dataset import DataSet, EvalReport, FeatureStage, Normalizer
from antfis.errors import DataError, NumericError, UsageError
from antfis.fcm import fcm_cluster
from antfis.fis import (CENTER_BOUNDS, SIGMA_BOUNDS, SIGMA_CAP, SIGMA_FLOOR,
                        FisModel, encode_premise, fitness, init_from_fcm,
                        normalized_firing, predict_batch, premise_arrays,
                        premise_bounds, row_basis)
from antfis.rng import mix_seed
from antfis.synthfield import PlumeParams, ReactorGeometry, generate_dataset
from antfis.trainer import (SweepCell, SweepReport, TrainConfig, evaluate,
                            load_model, predict_points, premise_objective,
                            save_model, sweep, train, training_partitions)


def maybe_numpy(strategy, np_type):
    """Values of `strategy`, as Python numbers or as numpy scalars."""
    return st.one_of(strategy, strategy.map(np_type))


# 0.1 + 0.2 has a 17-digit repr; with numpy 2, repr of an np.float64
# reads "np.float64(...)", which no float parser accepts.
def unit_floats(**kw):
    return maybe_numpy(st.one_of(st.just(0.1 + 0.2), st.floats(
        0.0, 1.0, exclude_min=True, **kw)), np.float64)


SEEDS = st.one_of(st.integers(0, 2**64 - 1),
                  st.integers(-2**63, 2**63 - 1).map(np.int64))
TRAIN_CONFIGS = st.builds(
    TrainConfig, p=unit_floats(exclude_max=True),
    stage=st.sampled_from(list(FeatureStage)),
    n_rules=maybe_numpy(st.integers(2, 4), np.int64), seed=SEEDS,
    split_seed=st.one_of(st.none(), SEEDS),
    aco=st.builds(AcoConfig,
                  n_ants=maybe_numpy(st.integers(1, 10**6), np.int64),
                  archive_size=maybe_numpy(st.integers(2, 1000), np.int64),
                  q=maybe_numpy(st.floats(1e-3, 1e3), np.float64),
                  xi=unit_floats(),
                  max_iter=maybe_numpy(st.integers(1, 10**6), np.int64)))
# EvalReport's domain: RMSE and MAE may be inf, for an overflowing error
ERRORS = maybe_numpy(st.floats(min_value=0.0, allow_nan=False), np.float64)
EVAL_REPORTS = st.builds(
    EvalReport, pearson_r=maybe_numpy(st.floats(-1.0, 1.0), np.float64),
    rmse=ERRORS, mae=ERRORS, n=maybe_numpy(st.integers(2, 2**62), np.int64))


def quick_config(stage, seed=3, n_rules=3, iters=5, ants=6):
    return TrainConfig(stage=stage, n_rules=n_rules,
                       aco=AcoConfig(n_ants=ants, archive_size=10,
                                     max_iter=iters),
                       seed=seed)


@pytest.fixture(scope="module")
def small_data():
    return generate_dataset(ReactorGeometry(), PlumeParams(), 220, seed=5)


@pytest.fixture(scope="module")
def small_model(small_data):
    return train(small_data, quick_config(FeatureStage.XYZPV5))


# A stage-1 model file in the v1 layout, which also carried the
# `optimize_consequents` switch of a since-removed training mode.
V1_MODEL = """antfis-model v1

[config]
p = 0.7
stage = 1
n_rules = 2
seed = 3
split_seed = none
lam = 1e-06
optimize_consequents = false
fcm.m = 2.0
fcm.tol = 1e-05
fcm.max_iter = 200
aco.n_ants = 6
aco.archive_size = 10
aco.q = 0.1
aco.xi = 0.85
aco.max_iter = 2

[normalizer]
features = x
min = -0.125
max = 0.125

[rule 0]
center = 0.25
sigma = 0.2
coeff = 0.5,0.1

[rule 1]
center = 0.75
sigma = 0.3
coeff = -0.25,0.2

[report train]
pearson_r = 0.9
rmse = 0.01
mae = 0.008
n = 7

[report test]
pearson_r = 0.8
rmse = 0.02
mae = 0.015
n = 3

[convergence]
rmse = 0.02,0.01
"""

# The v2 layout: v1 without that switch. Both also carry the damping and
# the clustering settings, since fixed as constants, which the current
# layout (v3) leaves out.
V2_MODEL = V1_MODEL.replace("antfis-model v1", "antfis-model v2").replace(
    "optimize_consequents = false\n", "")
V3_MODEL = V2_MODEL.replace("antfis-model v2", "antfis-model v3").replace(
    "lam = 1e-06\n", "").replace(
    "fcm.m = 2.0\nfcm.tol = 1e-05\nfcm.max_iter = 200\n", "")


class TestTrain:
    def test_planted_two_rule_fis_recovered(self):
        rng = np.random.default_rng(5)
        n = 400
        X = rng.random((n, 2))
        planted = FisModel(
            centers=np.array([[0.25, 0.3], [0.75, 0.7]]),
            sigmas=np.array([[0.2, 0.25], [0.3, 0.2]]),
            coeffs=np.array([[0.3, -0.1, 0.35], [-0.2, 0.25, 0.55]]),
            normalizer=Normalizer(("x", "y"), np.zeros(2), np.ones(2)))
        y = predict_batch(planted, X)
        cols = np.column_stack([X, np.tile([1.0, 1e5, 0.1], (n, 1))])
        data = DataSet(cols, y, FeatureStage.XY2)
        config = TrainConfig(stage=FeatureStage.XY2, n_rules=2, seed=3)
        model = train(data, config)
        assert model.test_report.rmse < 1e-3

    def test_stage_mismatch_rejected(self, small_data):
        with pytest.raises(ValueError, match="stage"):
            train(small_data, quick_config(FeatureStage.XYZ3))

    def test_convergence_non_increasing(self, small_model):
        h = small_model.convergence
        assert len(h) == 5
        assert all(a >= b for a, b in zip(h, h[1:]))

    def test_determinism(self, small_data):
        a = train(small_data, quick_config(FeatureStage.XYZPV5))
        b = train(small_data, quick_config(FeatureStage.XYZPV5))
        np.testing.assert_array_equal(a.fis.centers, b.fis.centers)
        np.testing.assert_array_equal(a.fis.coeffs, b.fis.coeffs)
        assert a.train_report == b.train_report
        assert a.test_report == b.test_report

    def test_parallel_workers_identical(self, small_data, small_model):
        b = train(small_data, quick_config(FeatureStage.XYZPV5), n_workers=8)
        np.testing.assert_array_equal(small_model.fis.centers, b.fis.centers)
        np.testing.assert_array_equal(small_model.fis.coeffs, b.fis.coeffs)
        np.testing.assert_array_equal(small_model.convergence, b.convergence)

    @staticmethod
    def seed_objective(model, data):
        """Training objective of the clustering seed, clipped into the box."""
        config = model.config
        train_ds, _ = training_partitions(model, data)
        Xtr = model.fis.normalizer.transform(train_ds.features())
        clustering = fcm_cluster(Xtr, config.n_rules,
                                 seed=mix_seed(config.seed, trainer._FCM_STREAM))
        bounds = np.array(premise_bounds(config.n_rules,
                                         config.stage.n_features))
        v = np.clip(encode_premise(*init_from_fcm(clustering, Xtr)),
                    bounds[:, 0], bounds[:, 1])
        return premise_objective(row_basis(Xtr), train_ds.targets(),
                                 config.n_rules)(v)

    def test_search_starts_no_worse_than_the_clustering_seed(
            self, small_data, small_model):
        # the seeded premises join the initial archive, so the first
        # best-so-far value is at most their objective
        assert small_model.convergence[0] <= self.seed_objective(
            small_model, small_data)

    def test_seed_wins_on_separated_clusters(self):
        # two tight blobs, each with its own affine target: the seed fits
        # them almost exactly, and a random archive does not come close
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal([0.2, 0.2], 0.03, (100, 2)),
                       rng.normal([0.8, 0.8], 0.03, (100, 2))])
        y = np.where(X[:, 0] < 0.5, 0.2 + X[:, 0] - X[:, 1],
                     1.4 - X[:, 0] - 0.5 * X[:, 1])
        cols = np.column_stack([X, np.tile([1.0, 1e5, 0.1], (200, 1))])
        data = DataSet(cols, y, FeatureStage.XY2)
        model = train(data, quick_config(FeatureStage.XY2, n_rules=2, iters=1))
        seeded = self.seed_objective(model, data)
        assert seeded < 1e-5
        assert model.convergence[0] <= seeded

    def test_objective_is_the_final_refit_rmse(self, small_data, small_model):
        # the last convergence value is objective(best vector); the model
        # is finalize(best vector): its unclamped training RMSE must agree
        train_ds, _ = training_partitions(small_model, small_data)
        resid = (predict_batch(small_model.fis, train_ds.features())
                 - train_ds.targets())
        assert np.sqrt(np.mean(resid * resid)) == pytest.approx(
            small_model.convergence[-1], rel=1e-12)

    @pytest.mark.parametrize("n, p, flag", [(8, 0.7, "--rules"),
                                            (12, 0.95, "--p")])
    def test_too_small_shares_are_data_errors(self, small_data, n, p, flag):
        data = DataSet(small_data.X[:n], small_data.y[:n],
                       small_data.feature_stage)
        config = replace(quick_config(FeatureStage.XYZPV5, n_rules=10), p=p)
        with pytest.raises(DataError, match=flag):
            train(data, config)

    def test_reports_match_partitions(self, small_data, small_model):
        train_ds, test_ds = training_partitions(small_model, small_data)
        assert len(train_ds) == int(round(0.70 * len(small_data)))
        assert evaluate(small_model, train_ds) == small_model.train_report
        assert evaluate(small_model, test_ds) == small_model.test_report


class TestPremiseObjective:
    @staticmethod
    def case(seed, c=3, d=2, n=40):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
        packed = np.empty((c, d, 2))
        packed[:, :, 0] = rng.uniform(*CENTER_BOUNDS, (c, d))
        packed[:, :, 1] = rng.uniform(*SIGMA_BOUNDS, (c, d))
        return X, y, packed

    @given(seed=st.integers(0, 10_000),
           clamp=st.sampled_from([None, "floor", "cap"]))
    @settings(max_examples=60, deadline=None)
    def test_rmse_equals_fitness_of_decoded_model(self, seed, clamp):
        X, y, packed = self.case(seed)
        if clamp == "floor":
            packed[0, :, 1] = [0.0, SIGMA_FLOOR / 2]
            packed[2, 1, 1] = -1.0
        elif clamp == "cap":
            packed[1, :, 1] = [SIGMA_CAP * 3, np.inf]
        v = packed.ravel()
        centers, sigmas = premise_arrays(v, 3, 2)
        # the objective refits at fitness's default damping
        assert premise_objective(row_basis(X), y, 3)(v) == fitness(
            centers, sigmas, row_basis(X), y)[1]

    def test_non_finite_vector_raises(self):
        X, y, packed = self.case(0)
        objective = premise_objective(row_basis(X), y, 3)
        for bad in (np.nan, np.inf):
            v = packed.ravel().copy()
            v[2] = bad  # a center
            with pytest.raises(ValueError, match="finite"):
                objective(v)
            with pytest.raises(ValueError, match="finite"):
                premise_arrays(v, 3, 2)
        v = packed.ravel().copy()
        v[1] = np.nan  # a sigma
        with pytest.raises(ValueError, match="finite"):
            objective(v)


class TestEvaluate:
    def test_full_data_count(self, small_data, small_model):
        rep = evaluate(small_model, small_data)
        assert rep.n == len(small_data)

    def test_repeated_row_zero_variance(self, small_model):
        ds = DataSet(np.tile([0.01, 0.02, 1.0, 1.1e5, 0.05], (3, 1)),
                     np.full(3, 0.08), FeatureStage.XYZPV5)
        with pytest.raises(DataError, match="zero-variance"):
            evaluate(small_model, ds)

    @pytest.mark.parametrize("constant, side", [
        ("features", "clamped predictions"), ("targets", "targets")])
    def test_zero_variance_names_side_and_rows(self, small_data, small_model,
                                               constant, side):
        X, y = small_data.X[:20].copy(), small_data.y[:20].copy()
        if constant == "features":
            X[:] = X[0]
        else:
            y[:] = 0.08
        ds = DataSet(X, y, FeatureStage.XYZPV5)
        with pytest.raises(DataError, match="zero-variance") as info:
            evaluate(small_model, ds)
        assert f"the {side} on the --data rows" in str(info.value)
        assert "eval_metrics" not in str(info.value)

    def test_constant_training_targets_name_the_share(self, small_data):
        data = DataSet(small_data.X, np.full(len(small_data), 0.08),
                       small_data.feature_stage)
        with pytest.raises(DataError, match="zero-variance") as info:
            train(data, quick_config(FeatureStage.XYZPV5, iters=2))
        assert "targets on the training share" in str(info.value)

    def test_stage_mismatch(self, small_data, small_model):
        with pytest.raises(ValueError, match="stage"):
            evaluate(small_model, small_data.with_stage(FeatureStage.XYZ3))


class TestPredictPoints:
    def test_matches_evaluate_predictions(self, small_data, small_model):
        X = small_data.features()[:10]
        preds = predict_points(small_model, X)
        expected = np.clip(predict_batch(small_model.fis, X), 0.0, 1.0)
        np.testing.assert_array_equal(preds, expected)

    def test_clamped_to_unit_interval(self, small_model, small_data):
        preds = predict_points(small_model, small_data.features())
        assert preds.min() >= 0.0 and preds.max() <= 1.0

    def test_order_preserved(self, small_model, small_data):
        X = small_data.features()[:6]
        preds = predict_points(small_model, X)
        flipped = predict_points(small_model, X[::-1])
        np.testing.assert_array_equal(preds, flipped[::-1])

    def test_arity_and_finiteness(self, small_model):
        with pytest.raises(ValueError, match="features"):
            predict_points(small_model, np.zeros((3, 2)))
        bad = np.zeros((2, 5))
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            predict_points(small_model, bad)

    def test_one_row_calls_round_within_bound_of_a_batch(self):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 1500, seed=7)
        model = train(data, quick_config(FeatureStage.XYZPV5, n_rules=10))
        X = generate_dataset(ReactorGeometry(), PlumeParams(), 2000,
                             seed=11).features()
        batch = predict_points(model, X)
        single = np.array([predict_points(model, x)[0] for x in X])
        # numpy sends a one-row product to BLAS gemv and a batch to gemm,
        # which sum each dot product in other orders; two orders of an
        # n-term product differ by at most n ulps of its terms' magnitude
        # sum. Per row, with R the largest rule output:
        # - a log firing strength has 2d + 1 terms, of magnitude sum L; a
        #   move of delta in each moves every normalized weight by at most
        #   2 delta relative, so the output by 2 delta R;
        # - a rule output has d + 1 terms, of magnitude sum T;
        # - the two c-term sums of the weighted average add 2c ulps of R,
        #   as in test_fis.py's TestRulePermutation.
        # Clamping to [0, 1] moves no difference up.
        m = model.fis
        c, d = m.centers.shape
        basis = row_basis(X, m.normalizer)
        x, S = basis[d:2 * d], 1.0 / m.sigmas ** 2
        L = (0.5 * S @ basis[:d] + np.abs(m.centers * S) @ np.abs(x)
             + 0.5 * (m.centers ** 2 * S).sum(axis=1, keepdims=True))
        T = np.abs(m.coeffs) @ np.abs(basis[d:])
        R = np.abs(m.coeffs @ basis[d:]).max(axis=0)
        eps = np.finfo(float).eps
        tol = eps * (R * (2 * c + 2 * (2 * d + 1) * L.max(axis=0))
                     + (d + 1) * T.max(axis=0))
        assert (np.abs(single - batch) <= tol).all()

    def test_clamping_preserves_r_sign(self, small_data, small_model):
        from antfis.dataset import eval_metrics
        for part in training_partitions(small_model, small_data):
            raw = predict_batch(small_model.fis, part.features())
            clamped = np.clip(raw, 0.0, 1.0)
            r_raw = eval_metrics(raw, part.targets()).pearson_r
            r_clamped = eval_metrics(clamped, part.targets()).pearson_r
            assert np.sign(r_raw) == np.sign(r_clamped)


class TestRowBlocks:
    B = 64  # block size for these tests, so no array is large

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1,
                                   3 * B + 7])
    def test_blocked_prediction_equals_one_shot(self, monkeypatch, small_data,
                                                small_model, n):
        # B + 1 and 2B + 1 rows leave a one-row tail in fixed-size blocks,
        # and a one-column matrix product rounds differently
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", self.B)
        blocks = dataset._row_blocks(n)
        sizes = [stop - start for start, stop in blocks]
        assert len(blocks) == -(-n // self.B) and max(sizes) - min(sizes) <= 1
        assert blocks[0][0] == 0 and blocks[-1][1] == n and all(
            a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        m = small_model.fis
        X = small_data.features()[:n]
        Xn = m.normalizer.transform(X)
        basis = row_basis(Xn)  # the whole-batch formula, in one product
        w = normalized_firing(m.centers, m.sigmas, basis)
        w *= m.coeffs @ basis[m.n_features:]
        want = w.sum(axis=0)
        assert np.array_equal(predict_batch(m, X), want)
        assert np.array_equal(predict_points(small_model, X),
                              np.clip(want, 0.0, 1.0))


class TestInvariances:
    @given(stage=st.sampled_from(list(FeatureStage)), k=st.integers(-40, 40),
           pick=st.data())
    @settings(max_examples=10, deadline=None)
    def test_power_of_two_feature_scaling_changes_no_bit(self, small_data,
                                                         stage, k, pick):
        # min-max scaling divides a power-of-two factor out exactly, so no
        # step after fit_normalizer may see that a raw column was scaled
        j = pick.draw(st.integers(0, stage.n_features - 1))
        X = small_data.X.copy()
        X[:, j] = np.ldexp(X[:, j], k)
        config = quick_config(stage, iters=20)
        a = train(small_data.with_stage(stage), config)
        b = train(DataSet(X, small_data.y, stage), config)
        for field in ("centers", "sigmas", "coeffs"):
            assert np.array_equal(getattr(a.fis, field),
                                  getattr(b.fis, field))
        assert a.train_report == b.train_report
        assert a.test_report == b.test_report
        assert np.array_equal(a.convergence, b.convergence)
        mins = a.fis.normalizer.mins.copy()
        mins[j] = np.ldexp(mins[j], k)
        assert np.array_equal(b.fis.normalizer.mins, mins)
        d = stage.n_features
        assert np.array_equal(predict_points(b, X[:, :d]),
                              predict_points(a, small_data.X[:, :d]))


class TestSweep:
    def test_grid_complete_and_deterministic(self, small_data):
        base = quick_config(FeatureStage.XYZPV5)
        stages = [FeatureStage.X1, FeatureStage.XY2]
        a = sweep(small_data, stages, [4, 6], base)
        b = sweep(small_data, stages, [4, 6], base)
        assert len(a.cells) == 4
        assert {(c.stage, c.n_ants) for c in a.cells} \
            == {(s, n) for s in stages for n in (4, 6)}
        assert a == b

    def test_shared_partition_across_cells(self, small_data):
        base = quick_config(FeatureStage.XYZPV5)
        a = sweep(small_data, [FeatureStage.X1, FeatureStage.XY2], [4], base)
        assert len({c.stage for c in a.cells}) == 2
        # both cells trained on the identical row partition: reproduce it
        seed = base.effective_split_seed()
        from antfis.dataset import split
        t1, _ = split(small_data.with_stage(FeatureStage.X1), base.p, seed)
        t2, _ = split(small_data.with_stage(FeatureStage.XY2), base.p, seed)
        np.testing.assert_array_equal(t1.X, t2.X)

    def test_cell_failure_names_cell(self):
        tiny = generate_dataset(ReactorGeometry(), PlumeParams(), 8, seed=1)
        base = quick_config(FeatureStage.XYZPV5, n_rules=10)
        with pytest.raises(DataError, match=r"stage 1, ants 4"):
            sweep(tiny, [FeatureStage.X1], [4], base)

    # a grid of four cells, run in shares of forked processes
    GRID = ((FeatureStage.X1, FeatureStage.XY2), (4, 6))

    @staticmethod
    def grid_sweep(data, cpus, monkeypatch, base=None):
        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        return sweep(data, *TestSweep.GRID,
                     base or quick_config(FeatureStage.XYZPV5))

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_same_cells_and_bytes_for_any_cpu_count(self, small_data,
                                                    tmp_path, monkeypatch):
        reports, files = [], []
        for cpus in (1, 2, 3, 16):
            reports.append(self.grid_sweep(small_data, cpus, monkeypatch))
            self.assert_no_child_left()
            path = tmp_path / f"sweep{cpus}.csv"
            trainer.write_sweep_csv(reports[-1], path)
            files.append(path.read_bytes())
        assert all(r == reports[0] for r in reports)
        assert all(f == files[0] for f in files)
        # each cell holds the R values of its own run, in grid order
        base = quick_config(FeatureStage.XYZPV5)
        expected = []
        for stage in self.GRID[0]:
            for ants in self.GRID[1]:
                model = train(small_data.with_stage(stage), replace(
                    base, stage=stage,
                    seed=mix_seed(base.seed, stage.n_features, ants),
                    split_seed=base.effective_split_seed(),
                    aco=replace(base.aco, n_ants=ants)))
                expected.append(trainer.SweepCell(
                    stage, ants, model.train_report.pearson_r,
                    model.test_report.pearson_r))
        assert reports[0].cells == tuple(expected)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_cell_failure_names_first_cell_for_any_cpu_count(
            self, monkeypatch, cpus):
        # every cell fails: 8 rows leave fewer training rows than rules
        tiny = generate_dataset(ReactorGeometry(), PlumeParams(), 8, seed=1)
        base = quick_config(FeatureStage.XYZPV5, n_rules=10)
        with pytest.raises(DataError) as serial:
            self.grid_sweep(tiny, 1, monkeypatch, base)
        with pytest.raises(DataError) as shared:
            self.grid_sweep(tiny, cpus, monkeypatch, base)
        self.assert_no_child_left()
        assert "sweep cell (stage 1, ants 4) failed: " in str(serial.value)
        assert str(shared.value) == str(serial.value)
        assert type(shared.value.__cause__) is DataError

    @pytest.mark.parametrize("how", ["error", "fault", "kill", "no fork"])
    def test_failed_child_gives_same_cells(self, small_data, monkeypatch,
                                           how):
        expected = self.grid_sweep(small_data, 1, monkeypatch)
        parent, real_train = os.getpid(), trainer.train

        def failing_in_child(data, config, n_workers=1):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if how == "error":  # a cell error, trained again here
                    raise NumericError("child fails")
                raise RuntimeError("child fails")
            return real_train(data, config)

        def no_fork():
            raise OSError("no fork")

        if how == "no fork":
            monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(trainer, "train", failing_in_child)
        assert self.grid_sweep(small_data, 3, monkeypatch) == expected
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [ZeroDivisionError("share fails"),
                                       KeyboardInterrupt()])
    def test_parent_share_error_keeps_its_type_and_ends_children(
            self, small_data, monkeypatch, error):
        parent = os.getpid()

        def failing(data, config, n_workers=1):
            if os.getpid() == parent:
                raise error
            time.sleep(60)  # a slow child, ended by the parent

        monkeypatch.setattr(trainer, "train", failing)
        t0 = time.monotonic()
        with pytest.raises(type(error), match=str(error) or None):
            self.grid_sweep(small_data, 3, monkeypatch)
        assert time.monotonic() - t0 < 30
        self.assert_no_child_left()

    def test_cell_failure_keeps_error_type(self, small_data, monkeypatch):
        def fail(data, config, n_workers=1):
            raise NumericError("fis: all rule premises degenerate")
        monkeypatch.setattr(trainer, "train", fail)
        with pytest.raises(NumericError, match=r"stage 1, ants 4\) failed: "
                                                r"fis: all") as info:
            sweep(small_data, [FeatureStage.X1], [4],
                  quick_config(FeatureStage.XYZPV5))
        assert type(info.value.__cause__) is NumericError

    def test_internal_fault_not_wrapped(self, small_data, monkeypatch):
        real_train = trainer.train

        def fail(data, config, n_workers=1):
            # with 2 CPUs, cell (1, 6) is in the child's share: the child
            # fails, and the share is run again here
            if (config.stage, config.aco.n_ants) == (FeatureStage.X1, 6):
                raise ValueError("internal fault")
            return real_train(data, config)
        monkeypatch.setattr(trainer, "train", fail)
        for cpus in (1, 2):
            with pytest.raises(ValueError, match="^internal fault$"):
                self.grid_sweep(small_data, cpus, monkeypatch)
            self.assert_no_child_left()

    def test_best_test_r_per_stage(self):
        X1, XY2 = FeatureStage.X1, FeatureStage.XY2
        report = SweepReport(cells=(
            SweepCell(X1, 20, train_r=0.9, test_r=0.5),
            SweepCell(X1, 30, train_r=0.8, test_r=0.7),
            SweepCell(XY2, 20, train_r=0.95, test_r=0.6)))
        assert report.best_test_r(X1) == 0.7
        assert report.best_test_r(XY2) == 0.6

    def test_empty_grid_rejected(self, small_data):
        with pytest.raises(ValueError):
            sweep(small_data, [], [4], quick_config(FeatureStage.XYZPV5))

    def test_stage_arity_above_data(self, small_data):
        with pytest.raises(ValueError, match="arity"):
            sweep(small_data.with_stage(FeatureStage.XYZ3),
                  [FeatureStage.XYZPV5], [4],
                  quick_config(FeatureStage.XYZPV5))


class TestModelFile:
    def test_out_of_range_p_is_data_error(self, small_model, tmp_path):
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        text = path.read_text()
        assert "\np = 0.7\n" in text
        path.write_text(text.replace("\np = 0.7\n", "\np = 1.5\n"))
        with pytest.raises(DataError, match="p must be in"):
            load_model(path)

    def test_round_trip_byte_identical(self, small_model, tmp_path):
        p1 = tmp_path / "m1.txt"
        p2 = tmp_path / "m2.txt"
        save_model(small_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, small_model, small_data,
                                               tmp_path):
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        loaded = load_model(path)
        X = small_data.features()[:20]
        np.testing.assert_array_equal(predict_points(small_model, X),
                                      predict_points(loaded, X))
        assert loaded.train_report == small_model.train_report
        assert loaded.test_report == small_model.test_report
        np.testing.assert_array_equal(loaded.convergence,
                                      small_model.convergence)
        assert loaded.config == small_model.config

    def test_every_config_field_is_saved(self, small_model, tmp_path):
        # a field the model file leaves out is a setting that a saved
        # model forgets, or one that never took effect; a key with no
        # field is a stale setting
        want = {f.name for f in fields(TrainConfig)} - {"aco"}
        want |= {f"aco.{f.name}" for f in fields(AcoConfig)}
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        text = path.read_text()

        def keys(header):
            section = text.split(f"[{header}]\n")[1].split("\n\n")[0]
            return {line.partition(" = ")[0] for line in section.splitlines()}
        assert keys("config") == want, (sorted(want - keys("config")),
                                        sorted(keys("config") - want))
        for name in ("train", "test"):
            assert keys(f"report {name}") == {f.name for f in
                                               fields(EvalReport)}

    @given(config=TRAIN_CONFIGS, train_report=EVAL_REPORTS,
           test_report=EVAL_REPORTS)
    @settings(max_examples=150, deadline=None)
    def test_schema_round_trip(self, tmp_path_factory, config, train_report,
                               test_report):
        c, d = config.n_rules, config.stage.n_features
        model = trainer.TrainedModel(
            fis=FisModel(centers=np.full((c, d), 0.5),
                         sigmas=np.full((c, d), 0.2),
                         coeffs=np.zeros((c, d + 1)),
                         normalizer=Normalizer(config.stage.feature_names,
                                               np.zeros(d), np.ones(d))),
            config=config, train_report=train_report,
            test_report=test_report, convergence=np.array([0.5, 0.25]))
        root = tmp_path_factory.mktemp("round_trip")
        save_model(model, root / "m1.txt")
        loaded = load_model(root / "m1.txt")
        assert loaded.config == config
        assert loaded.train_report == train_report
        assert loaded.test_report == test_report
        save_model(loaded, root / "m2.txt")
        assert (root / "m1.txt").read_bytes() == (root / "m2.txt").read_bytes()

    @pytest.mark.parametrize("after, extra, match", [
        ("\n\n[convergence]", "\n\n[config]\np = 0.5\nseed = 99",
         r"line \d+: repeated section \[config\]"),
        ("\nn_rules = 3", "\nseed = 99", r"line 8: repeated key 'seed' in "
                                         r"\[config\]")], ids=["section", "key"])
    def test_repeated_section_or_key_rejected(self, small_model, tmp_path,
                                              after, extra, match):
        # a later copy would silently replace the first, so the file
        # would no longer say which settings the model was trained with
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        text = path.read_text()
        assert text.count(after) == 1
        path.write_text(text.replace(after, after + extra))
        with pytest.raises(DataError, match=f"{path.name}, {match}"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "absent.txt")

    def test_magic_line_checked(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize("lo, hi", [("-1e308", "1e308"),
                                        ("0.5", "0.5"), ("1", "0"),
                                        ("nan", "1"), ("0", "inf")])
    def test_unscalable_normalizer_rejected_without_warning(
            self, small_model, tmp_path, lo, hi):
        # a span that overflows a float once printed a numpy
        # RuntimeWarning, a traceback under -W error
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            key, _, values = line.partition(" = ")
            if key in ("min", "max"):
                lines[i] = f"{key} = " + ",".join(
                    [lo if key == "min" else hi] + values.split(",")[1:])
        path.write_text("\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"\[normalizer\] must name "
                               "the stage's features, each with finite "
                               "min < max"):
                load_model(path)

    def test_truncated_file_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]))
        with pytest.raises(DataError, match="invalid model file"):
            load_model(path)


    def test_v1_file_loads_and_resaves_as_v3(self, tmp_path):
        path = tmp_path / "v1.txt"
        path.write_text(V1_MODEL)
        model = load_model(path)
        assert model.config.stage is FeatureStage.X1
        assert model.config.aco.n_ants == 6
        np.testing.assert_array_equal(model.fis.coeffs,
                                      [[0.5, 0.1], [-0.25, 0.2]])
        # raw x = 0 scales to 0.5, midway between the two rule centers
        unscaled = replace(model.fis, normalizer=Normalizer(
            ("x",), np.zeros(1), np.ones(1)))
        np.testing.assert_array_equal(predict_points(model, [[0.0]]),
                                      predict_batch(unscaled, [[0.5]]))
        again = tmp_path / "v3.txt"
        save_model(model, again)
        assert again.read_text() == V3_MODEL

    def test_v2_file_loads_and_resaves_as_v3(self, tmp_path):
        path = tmp_path / "v2.txt"
        path.write_text(V2_MODEL)
        model = load_model(path)
        # the predictions a v2 reader gave for this file
        np.testing.assert_allclose(
            predict_points(model, [[-0.125], [-0.05], [0.0], [0.03]]),
            [0.10875638395230586, 0.21863590163934093, 0.1831203603409933,
             0.10543273129042137], rtol=1e-12, atol=0)
        again = tmp_path / "v3.txt"
        save_model(model, again)
        assert again.read_text() == V3_MODEL


class TestTrainConfig:
    def test_rule_count_invariant(self):
        with pytest.raises(ValueError):
            TrainConfig(stage=FeatureStage.X1, n_rules=1)

    def test_train_fraction_range(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(UsageError, match="p must be in"):
                TrainConfig(stage=FeatureStage.X1, p=p)

    def test_defaults(self):
        cfg = TrainConfig(stage=FeatureStage.XYZPV5)
        assert cfg.p == 0.70
        assert cfg.aco.max_iter == 100
        assert cfg.aco.n_ants == 20
        assert cfg.n_rules == 10
