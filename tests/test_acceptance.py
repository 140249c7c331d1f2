"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight
artifacts (canonical dataset, stage-5 model, full sweep) are produced
once through the command-line interface and shared across criteria.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from antfis import trainer
from antfis.aco import AcoConfig, optimize
from antfis.dataset import FeatureStage, Normalizer, load_dataset
from antfis.fcm import fcm_cluster
from antfis.fis import (FisModel, encode_premise, fitness, init_from_fcm,
                        predict_batch, premise_bounds, row_basis)
from antfis.rng import mix_seed
from antfis.synthfield import (PlumeParams, ReactorGeometry, fields_at,
                               generate_dataset)
from antfis.trainer import (TrainConfig, load_model, predict_points,
                            premise_objective, train, training_partitions)
from test_fis import damped

pytestmark = pytest.mark.acceptance

GEOM = ReactorGeometry()
PARAMS = PlumeParams()


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}", flush=True)
        raise
    print(f"criterion {num}: PASS - {description}", flush=True)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cli(*argv, one_cpu=False):
    """Run the installed CLI in a subprocess; return (stdout, seconds).

    With one_cpu, where the platform allows, the subprocess may run on one
    CPU only, so it keeps every share of its work in one process.
    """
    pin = one_cpu and hasattr(os, "sched_setaffinity")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "antfis", *map(str, argv)],
                          capture_output=True, text=True,
                          preexec_fn=pin_to_one_cpu if pin else None)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, elapsed


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def canonical_csv(workdir):
    path = workdir / "canonical.csv"
    cli("gen-data", "--n", 1500, "--seed", 7, "--out", path)
    return path


@pytest.fixture(scope="session")
def stage5_run(workdir, canonical_csv):
    """Criterion-1 configuration: stage 5, 20 ants, 100 iterations, p=0.70."""
    model_path = workdir / "stage5.model"
    stdout, elapsed = cli("train", "--data", canonical_csv, "--stage", 5,
                          "--ants", 20, "--iters", 100, "--p", 0.70,
                          "--seed", 7, "--threads", 1, "--out", model_path)
    metrics = dict(kv.split("=") for kv in stdout.split())
    return {"path": model_path, "seconds": elapsed,
            "train_r": float(metrics["train_R"]),
            "test_r": float(metrics["test_R"])}


def run_sweep(path, canonical_csv, threads, one_cpu=False):
    _, elapsed = cli("sweep", "--data", canonical_csv, "--stages", "1-5",
                     "--ants", "20,30,40", "--iters", 100, "--p", 0.70,
                     "--seed", 7, "--threads", threads, "--out", path,
                     one_cpu=one_cpu)
    return elapsed


@pytest.fixture(scope="session")
def sweep_run(workdir, canonical_csv):
    path = workdir / "sweep.csv"
    elapsed = run_sweep(path, canonical_csv, threads=1)
    rows = [line.split(",") for line in
            path.read_text().splitlines()[1:]]
    cells = {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows}
    return {"path": path, "seconds": elapsed, "cells": cells}


def best_test_r(cells, stage):
    return max(v[1] for (s, _), v in cells.items() if s == stage)


def test_criterion_1_five_input_fidelity(stage5_run):
    with criterion(1, "stage-5 fidelity: train R >= 0.95, test R >= 0.90, "
                      "<= 60 s"):
        assert stage5_run["train_r"] >= 0.95, stage5_run
        assert stage5_run["test_r"] >= 0.90, stage5_run
        assert stage5_run["seconds"] <= 60.0, stage5_run
    print(f"  train R = {stage5_run['train_r']:.4f}, "
          f"test R = {stage5_run['test_r']:.4f}, "
          f"{stage5_run['seconds']:.1f} s", flush=True)


def test_criterion_2_low_information_regime(sweep_run):
    with criterion(2, "stage-1 best test R <= 0.6 and >= 0.3 below stage-5"):
        stage1 = best_test_r(sweep_run["cells"], 1)
        stage5 = best_test_r(sweep_run["cells"], 5)
        assert stage1 <= 0.6, (stage1, stage5)
        assert stage5 - stage1 >= 0.3, (stage1, stage5)
    print(f"  stage-1 best = {stage1:.4f}, stage-5 best = {stage5:.4f}",
          flush=True)


def test_criterion_3_staged_monotone_trend(sweep_run):
    with criterion(3, "best test R non-decreasing over stages 1..5; sweep "
                      "<= 15 min"):
        best = [best_test_r(sweep_run["cells"], s) for s in range(1, 6)]
        assert all(a <= b for a, b in zip(best, best[1:])), best
        assert len(sweep_run["cells"]) == 15
        assert sweep_run["seconds"] <= 900.0
    print(f"  best per stage = {[f'{b:.4f}' for b in best]}, "
          f"sweep took {sweep_run['seconds']:.0f} s", flush=True)


def test_criterion_4_ant_count_insensitivity(sweep_run):
    with criterion(4, "stages 1-3: test R spread across ant counts <= 0.1"):
        spreads = []
        for stage in (1, 2, 3):
            vals = [v[1] for (s, _), v in sweep_run["cells"].items()
                    if s == stage]
            spreads.append(max(vals) - min(vals))
        assert max(spreads) <= 0.1, spreads
    print(f"  spreads = {[f'{s:.4f}' for s in spreads]}", flush=True)


def test_criterion_5_optimizer_sanity():
    with criterion(5, "5-d sphere < 1e-3 with 20 ants x 100 iterations; "
                      "history monotone over 50 seeds"):
        def sphere(v):
            return float(np.sum(v * v))

        bounds = tuple((-1.0, 1.0) for _ in range(5))
        config = AcoConfig(n_ants=20, max_iter=100)
        res = optimize(sphere, bounds, config, seed=7)
        assert res.best_objective < 1e-3, res.best_objective
        for seed in range(50):
            run = optimize(sphere, bounds, config, seed=seed)
            assert all(a >= b for a, b in
                       zip(run.history, run.history[1:])), seed
    print(f"  sphere best = {res.best_objective:.2e}", flush=True)


def test_criterion_6_fcm_oracle():
    with criterion(6, "two 10-sigma clouds: centers within 1e-3 of means; "
                      "objective non-increasing"):
        rng = np.random.default_rng(123)
        sd = 0.02  # normalized-feature scale; fuzzy pull is ~0.02 sd here
        a = rng.normal([0.3, 0.5], sd, size=(100, 2))
        b = rng.normal([0.5, 0.5], sd, size=(100, 2))  # 10 sd apart
        X = np.vstack([a, b])
        res = fcm_cluster(X, 2, seed=1)
        means = np.array([a.mean(axis=0), b.mean(axis=0)])
        centers = res.centers[np.argsort(res.centers[:, 0])]
        err = np.abs(centers - means[np.argsort(means[:, 0])]).max()
        assert err <= 1e-3, err
        h = res.objective_history
        assert all(x - y >= -1e-12 for x, y in zip(h, h[1:]))
    print(f"  max center error = {err:.2e} over {res.iterations} iterations",
          flush=True)


def test_criterion_7_least_squares_oracle():
    with criterion(7, "planted consequents recovered within 1e-6; single "
                      "rule matches OLS within 1e-9"):
        rng = np.random.default_rng(7)
        c, d, n = 3, 2, 200
        norm = Normalizer(("x", "y"), np.zeros(2), np.ones(2))
        true = FisModel(centers=rng.random((c, d)),
                        sigmas=0.2 + 0.3 * rng.random((c, d)),
                        coeffs=rng.standard_normal((c, d + 1)),
                        normalizer=norm)
        X = rng.random((n, d))
        y = predict_batch(true, X)
        with damped(0.0):
            coeffs, _ = fitness(true.centers, true.sigmas, row_basis(X), y)
        coeff_err = np.abs(coeffs - true.coeffs).max()
        assert coeff_err <= 1e-6, coeff_err

        x1 = rng.random(120)
        y1 = 0.8 * x1 + 0.1 + 0.02 * rng.standard_normal(120)
        single = FisModel(centers=np.array([[0.5]]), sigmas=np.array([[0.3]]),
                          coeffs=np.zeros((1, 2)),
                          normalizer=Normalizer(("x",), np.zeros(1),
                                                np.ones(1)))
        with damped(0.0):
            fitted, _ = fitness(single.centers, single.sigmas,
                                row_basis(x1[:, None]), y1)
        slope, intercept = np.polyfit(x1, y1, 1)
        ols_err = max(abs(fitted[0, 0] - slope), abs(fitted[0, 1] - intercept))
        assert ols_err <= 1e-9, ols_err
    print(f"  planted error = {coeff_err:.2e}, OLS error = {ols_err:.2e}",
          flush=True)


def test_criterion_8_determinism(workdir, canonical_csv, stage5_run,
                                 sweep_run):
    with criterion(8, "byte-identical model, sweep, and report files; "
                      "--threads 1 == --threads 8 on one CPU"):
        # model file: repeat the criterion-1 run with 1 and 8 workers, the
        # latter on one CPU
        reference = Path(stage5_run["path"]).read_bytes()
        for name, threads in (("m_t1.model", 1), ("m_t8.model", 8)):
            path = workdir / name
            cli("train", "--data", canonical_csv, "--stage", 5, "--ants", 20,
                "--iters", 100, "--p", 0.70, "--seed", 7,
                "--threads", threads, "--out", path, one_cpu=threads == 8)
            assert path.read_bytes() == reference, name

        # sweep file: repeat the criterion-3 run, whose cells run in forked
        # shares on a multi-CPU machine, with 1 and 8 workers, the latter
        # on one CPU, where every cell runs in one process
        sweep_reference = Path(sweep_run["path"]).read_bytes()
        for name, threads in (("s_t1.csv", 1), ("s_t8.csv", 8)):
            path = workdir / name
            run_sweep(path, canonical_csv, threads=threads,
                      one_cpu=threads == 8)
            assert path.read_bytes() == sweep_reference, name

        # report files: repeated emission is identical
        for prefix in ("rep_a", "rep_b"):
            cli("report", "--model", stage5_run["path"], "--data",
                canonical_csv, "--out-prefix", workdir / prefix)
        for suffix in ("_scatter_train.csv", "_scatter_test.csv",
                       "_convergence.csv"):
            assert (workdir / f"rep_a{suffix}").read_bytes() \
                == (workdir / f"rep_b{suffix}").read_bytes(), suffix
    print("  train x3, sweep x3, report x2 all byte-identical", flush=True)


def test_criterion_9_unseen_node_prediction():
    with criterion(9, "noise-free midpoint MAE <= 2x training MAE; "
                      "predictions in [0, 1]"):
        params = PlumeParams(noise_sd=0.0)
        data = generate_dataset(GEOM, params, 1500, seed=7)
        config = TrainConfig(stage=FeatureStage.XYZPV5, seed=7)
        model = train(data, config)
        train_ds, _ = training_partitions(model, data)

        # midpoints of consecutive training nodes never appear in training
        pts = train_ds.features()[:, :3]
        mids = (pts[:-1] + pts[1:]) / 2.0
        pressure, velocity, truth = fields_at(*mids.T, GEOM, params)
        feats = np.column_stack([mids, pressure, velocity])
        preds = predict_points(model, feats)
        assert preds.min() >= 0.0 and preds.max() <= 1.0
        mid_mae = float(np.mean(np.abs(preds - truth)))
        assert mid_mae <= 2.0 * model.train_report.mae, \
            (mid_mae, model.train_report.mae)
    print(f"  midpoint MAE = {mid_mae:.2e} vs training MAE = "
          f"{model.train_report.mae:.2e}", flush=True)


def clustering_seed_rmse(model, data):
    """Training RMSE of the premises fuzzy c-means seeds the search of
    `model` with, clipped into the search box as the optimizer clips them."""
    config = model.config
    train_ds, _ = training_partitions(model, data)
    X = model.fis.normalizer.transform(train_ds.features())
    clustering = fcm_cluster(X, config.n_rules,
                             seed=mix_seed(config.seed, trainer._FCM_STREAM))
    bounds = np.array(premise_bounds(config.n_rules, config.stage.n_features))
    v = np.clip(encode_premise(*init_from_fcm(clustering, X)), bounds[:, 0],
                bounds[:, 1])
    return premise_objective(row_basis(X), train_ds.targets(),
                             config.n_rules)(v)


# At stage 5 the synthetic target is 0.6 x input 5, so affine least squares
# alone is at the noise floor and no R there shows what the search does.
# At stage 3 it does real work. Measured before this gate (canonical data,
# 20 ants x 100 iterations, seeds 0-7): the clustering seed's training
# RMSE over the final one had a median of 2.03 (1.85-2.38 per seed), and
# test R was 0.979-0.988. A search that keeps its first archive gave a
# median of 1.18 and test R 0.946-0.964; kernels 4x too wide gave 1.41
# and 0.959-0.977.
STAGE3_MIN_MEDIAN_GAIN = 1.75
STAGE3_MIN_TEST_R = 0.97


def test_criterion_10_stage3_search_quality(workdir, canonical_csv):
    with criterion(10, "stage 3, seeds 0-7: median seed/final training RMSE "
                       f">= {STAGE3_MIN_MEDIAN_GAIN}, each test R >= "
                       f"{STAGE3_MIN_TEST_R}"):
        data = load_dataset(canonical_csv, FeatureStage.XYZ3)
        gains, test_rs = [], []
        for seed in range(8):
            path = workdir / f"stage3_seed{seed}.model"
            cli("train", "--data", canonical_csv, "--stage", 3, "--ants", 20,
                "--iters", 100, "--seed", seed, "--out", path)
            model = load_model(path)
            gains.append(clustering_seed_rmse(model, data)
                         / model.convergence[-1])
            test_rs.append(model.test_report.pearson_r)
        assert np.median(gains) >= STAGE3_MIN_MEDIAN_GAIN, gains
        assert min(test_rs) >= STAGE3_MIN_TEST_R, test_rs
    print(f"  median gain = {np.median(gains):.3f} "
          f"({min(gains):.3f}-{max(gains):.3f}), test R = "
          f"{min(test_rs):.4f}-{max(test_rs):.4f}", flush=True)
