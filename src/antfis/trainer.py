"""End-to-end training pipeline, staged-input sweep, and model persistence.

A run is: split -> fit scaler on the training share -> fuzzy c-means in
the scaled feature space -> seed the rule premises -> ant colony search
over the encoded premise vector, refitting consequents at every fitness
evaluation -> final refit and evaluation on both partitions. The run
works on premise arrays and one row basis of the training features; a
FisModel is built only for the best vector.

Every stochastic stage draws from a child seed derived from the master
seed via SplitMix64 mixing, so a (dataset, config) pair fully determines
the trained model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import fis
from .aco import AcoConfig, optimize
from .dataset import (DataSet, EvalReport, FeatureStage, Normalizer,
                      eval_metrics, fit_normalizer, split, write_csv_table)
from .errors import AntfisError, DataError, UsageError
from .fcm import FcmConfig, fcm_cluster
from .rng import mix_seed

_SPLIT_STREAM = 1
_FCM_STREAM = 2
_ACO_STREAM = 3

MODEL_MAGIC = "antfis-model v2"
# v1 files also hold the switch of a since-removed mode that tuned the
# consequents by ant colony; the loader reads them and ignores that key.
MODEL_MAGIC_V1 = "antfis-model v1"


@dataclass(frozen=True)
class TrainConfig:
    stage: FeatureStage
    p: float = 0.70
    n_rules: int = 10
    fcm: FcmConfig = FcmConfig()
    aco: AcoConfig = AcoConfig()
    seed: int = 7
    lam: float = fis.DEFAULT_DAMPING
    # Sweeps pin one partition for every cell so stage/ant comparisons are
    # on identical data; None derives the split from the master seed.
    split_seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise UsageError(f"train: p must be in (0, 1), got {self.p} (--p)")
        if not self.n_rules >= 2:
            raise UsageError(f"train: n_rules (--rules) must be >= 2, "
                             f"got {self.n_rules}")
        if not 0.0 <= self.lam < np.inf:
            raise UsageError(f"train: damping lam must be in [0, inf), got {self.lam}")

    def effective_split_seed(self) -> int:
        if self.split_seed is not None:
            return self.split_seed
        return mix_seed(self.seed, _SPLIT_STREAM)


@dataclass(frozen=True)
class TrainedModel:
    fis: fis.FisModel
    config: TrainConfig
    train_report: EvalReport
    test_report: EvalReport
    convergence: np.ndarray  # best training RMSE after each iteration


@dataclass(frozen=True)
class SweepCell:
    stage: FeatureStage
    n_ants: int
    train_r: float
    test_r: float


@dataclass(frozen=True)
class SweepReport:
    """Complete (stage x ant count) grid of train/test correlations."""

    cells: tuple[SweepCell, ...]
    stages: tuple[FeatureStage, ...]
    ant_counts: tuple[int, ...]

    def best_test_r(self, stage: FeatureStage) -> float:
        return max(c.test_r for c in self.cells if c.stage == stage)


def premise_objective(basis: np.ndarray, y: np.ndarray, n_rules: int,
                      lam: float) -> Callable[[np.ndarray], float]:
    """The optimizer's objective: training RMSE of an encoded premise
    vector, with consequents refit by damped least squares.

    `basis` is fis.row_basis of the training features. Each call unpacks
    the vector into premise arrays and scores them on the one fitness
    path; no FisModel is built per evaluation.
    """
    d = (basis.shape[0] - 1) // 2

    def objective(v: np.ndarray) -> float:
        centers, sigmas = fis.premise_arrays(v, n_rules, d)
        return fis.fitness(centers, sigmas, basis, y, lam)[1]
    return objective


def _report(model: fis.FisModel, data: DataSet, caller: str,
            rows: str) -> EvalReport:
    """Evaluate with the stored scaler; predictions are clamped to [0, 1]
    at this reporting layer only.

    R is undefined when either side is constant; the DataError names
    that side, the caller and the rows (`rows`) it was evaluated on.
    """
    Xn = model.normalizer.transform(data.features())
    preds = np.clip(fis.predict_batch(model, Xn), 0.0, 1.0)
    targets = data.targets()
    for side, values in (("targets", targets),
                         ("clamped predictions", preds)):
        if values.min() == values.max():
            raise DataError(f"{caller}: the {side} on the {rows} are all "
                            "equal (zero-variance), so R is undefined")
    return eval_metrics(preds, targets)


def train(data: DataSet, config: TrainConfig, n_workers: int = 1) -> TrainedModel:
    """Run the full pipeline on `data` and return the trained model.

    The optimizer minimizes premise_objective: training RMSE of the
    premise vector, with consequents refit by damped least squares. The
    premises seeded from clustering join the initial archive so the
    search starts no worse than the clustering baseline. `n_workers` is
    accepted and ignored: fitness evaluations run in one thread.
    """
    if data.feature_stage != config.stage:
        raise ValueError(f"train: data stage {data.feature_stage.n_features} "
                         f"!= config stage {config.stage.n_features}")
    if len(data) < 2:
        raise DataError("train: dataset is empty or too small")

    train_ds, test_ds = split(data, config.p, config.effective_split_seed())
    if len(train_ds) < config.n_rules:
        raise DataError(f"train: the training share holds {len(train_ds)} "
                        f"of {len(data)} rows, fewer than --rules "
                        f"{config.n_rules}; lower --rules or raise --p")
    if len(test_ds) < 2:
        raise DataError(f"train: the test share holds {len(test_ds)} of "
                        f"{len(data)} rows, need at least 2; lower --p")
    norm = fit_normalizer(train_ds)
    Xtr = norm.transform(train_ds.features())
    ytr = train_ds.targets()

    clustering = fcm_cluster(Xtr, config.n_rules, config.fcm,
                             seed=mix_seed(config.seed, _FCM_STREAM))
    seed_premises = fis.init_from_fcm(clustering, Xtr)
    basis = fis.row_basis(Xtr)
    c, d = config.n_rules, config.stage.n_features
    result = optimize(premise_objective(basis, ytr, c, config.lam),
                      fis.premise_bounds(c, d), config.aco,
                      seed=mix_seed(config.seed, _ACO_STREAM),
                      initial_guesses=(fis.encode_premise(*seed_premises),))
    centers, sigmas = fis.premise_arrays(result.best_vector, c, d)
    coeffs, _ = fis.fitness(centers, sigmas, basis, ytr, config.lam)
    best = fis.FisModel(centers=centers, sigmas=sigmas, coeffs=coeffs,
                        stage=config.stage, normalizer=norm)

    return TrainedModel(fis=best, config=config,
                        train_report=_report(best, train_ds, "train",
                                             "training share"),
                        test_report=_report(best, test_ds, "train",
                                            "test share"),
                        convergence=result.history)


def _require_rows(data: DataSet, caller: str) -> None:
    if len(data) < 2:
        raise DataError(f"{caller}: --data holds {len(data)} row(s), "
                        "need at least 2")


def training_partitions(model: TrainedModel, data: DataSet) -> tuple[DataSet, DataSet]:
    """Reproduce the exact (train, test) partition a model was fit on."""
    _require_rows(data, "training_partitions")
    return split(data, model.config.p, model.config.effective_split_seed())


def evaluate(model: TrainedModel, data: DataSet) -> EvalReport:
    """Metrics of the trained model on an arbitrary dataset (clamped predictions)."""
    if data.feature_stage != model.config.stage:
        raise ValueError(f"evaluate: data stage {data.feature_stage.n_features} "
                         f"!= model stage {model.config.stage.n_features}")
    _require_rows(data, "evaluate")
    return _report(model.fis, data, "evaluate", "--data rows")


def predict_points(model: TrainedModel, points) -> np.ndarray:
    """Predict volume fractions at raw feature vectors, clamped to [0, 1]."""
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    d = model.config.stage.n_features
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"predict_points: expected (m, {d}) features, "
                         f"got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("predict_points: non-finite feature value")
    Xn = model.fis.normalizer.transform(X)
    return np.clip(fis.predict_batch(model.fis, Xn), 0.0, 1.0)


def sweep(data: DataSet, stages, ant_counts, base: TrainConfig,
          n_workers: int = 1) -> SweepReport:
    """Train one model per (stage, ant count) cell and tabulate R values.

    Each cell's seed derives from (master seed, stage arity, ant count)
    via the SplitMix64 mixer, so cells are independent yet reproducible.
    `data` must carry all features needed by the largest stage.
    `n_workers` is accepted and ignored, as in train.
    """
    stages = tuple(sorted(set(stages), key=lambda s: s.n_features))
    ant_counts = tuple(sorted(set(int(a) for a in ant_counts)))
    if not stages or not ant_counts:
        raise UsageError("sweep: need a stage (--stages) and an ant count (--ants)")
    if max(s.n_features for s in stages) > data.feature_stage.n_features:
        raise ValueError("sweep: dataset stage arity below requested stages")
    shared_split = base.effective_split_seed()
    cells = []
    for stage in stages:
        for ants in ant_counts:
            config = replace(base, stage=stage,
                             seed=mix_seed(base.seed, stage.n_features, ants),
                             split_seed=shared_split,
                             aco=replace(base.aco, n_ants=ants))
            try:
                model = train(data.with_stage(stage), config)
            except AntfisError as exc:
                raise type(exc)(
                    f"sweep cell (stage {stage.n_features}, ants {ants}) "
                    f"failed: {exc}") from exc
            cells.append(SweepCell(stage=stage, n_ants=ants,
                                   train_r=model.train_report.pearson_r,
                                   test_r=model.test_report.pearson_r))
    return SweepReport(cells=tuple(cells), stages=stages, ant_counts=ant_counts)


def write_sweep_csv(report: SweepReport, path: str | Path) -> None:
    cells = report.cells
    write_csv_table(path, ("stage", "n_ants", "train_r", "test_r"),
                    [[c.stage.n_features for c in cells],
                     [c.n_ants for c in cells],
                     [c.train_r for c in cells], [c.test_r for c in cells]])


# --- model file: versioned plain-text container ---------------------------

def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_floats(vs) -> str:
    return ",".join(repr(float(v)) for v in vs)


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write the versioned plain-text model container.

    Floats are stored at repr precision, so save -> load -> save is
    byte-identical.
    """
    cfg = model.config
    m = model.fis
    lines = [MODEL_MAGIC, ""]
    lines += [
        "[config]",
        f"p = {_fmt_float(cfg.p)}",
        f"stage = {cfg.stage.n_features}",
        f"n_rules = {cfg.n_rules}",
        f"seed = {cfg.seed}",
        f"split_seed = {'none' if cfg.split_seed is None else cfg.split_seed}",
        f"lam = {_fmt_float(cfg.lam)}",
        f"fcm.m = {_fmt_float(cfg.fcm.m)}",
        f"fcm.tol = {_fmt_float(cfg.fcm.tol)}",
        f"fcm.max_iter = {cfg.fcm.max_iter}",
        f"aco.n_ants = {cfg.aco.n_ants}",
        f"aco.archive_size = {cfg.aco.archive_size}",
        f"aco.q = {_fmt_float(cfg.aco.q)}",
        f"aco.xi = {_fmt_float(cfg.aco.xi)}",
        f"aco.max_iter = {cfg.aco.max_iter}",
        "",
        "[normalizer]",
        f"features = {','.join(m.normalizer.feature_names)}",
        f"min = {_fmt_floats(m.normalizer.mins)}",
        f"max = {_fmt_floats(m.normalizer.maxs)}",
    ]
    for i in range(m.n_rules):
        lines += [
            "",
            f"[rule {i}]",
            f"center = {_fmt_floats(m.centers[i])}",
            f"sigma = {_fmt_floats(m.sigmas[i])}",
            f"coeff = {_fmt_floats(m.coeffs[i])}",
        ]
    for name, rep in (("train", model.train_report), ("test", model.test_report)):
        lines += [
            "",
            f"[report {name}]",
            f"pearson_r = {_fmt_float(rep.pearson_r)}",
            f"rmse = {_fmt_float(rep.rmse)}",
            f"mae = {_fmt_float(rep.mae)}",
            f"n = {rep.n}",
        ]
    lines += ["", "[convergence]",
              f"rmse = {_fmt_floats(model.convergence)}", ""]
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def _parse_sections(text: str, path) -> dict[str, dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() not in (MODEL_MAGIC, MODEL_MAGIC_V1):
        raise DataError(f"{path}: not a recognized model file "
                        f"(expected first line '{MODEL_MAGIC}')")
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif "=" in line and current is not None:
            key, _, value = line.partition("=")
            sections[current][key.strip()] = value.strip()
        else:
            raise DataError(f"{path}, line {lineno}: unparseable model line "
                            f"{raw!r}")
    return sections


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


def load_model(path: str | Path) -> TrainedModel:
    """Read a model container written by save_model."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        sections = _parse_sections(path.read_text(encoding="utf-8"), path)
        cfg_s = sections["config"]
        stage = FeatureStage.from_arity(int(cfg_s["stage"]))
        n_rules = int(cfg_s["n_rules"])
        config = TrainConfig(
            stage=stage,
            p=float(cfg_s["p"]),
            n_rules=n_rules,
            fcm=FcmConfig(m=float(cfg_s["fcm.m"]),
                          tol=float(cfg_s["fcm.tol"]),
                          max_iter=int(cfg_s["fcm.max_iter"])),
            aco=AcoConfig(n_ants=int(cfg_s["aco.n_ants"]),
                          archive_size=int(cfg_s["aco.archive_size"]),
                          q=float(cfg_s["aco.q"]),
                          xi=float(cfg_s["aco.xi"]),
                          max_iter=int(cfg_s["aco.max_iter"])),
            seed=int(cfg_s["seed"]),
            split_seed=(None if cfg_s["split_seed"] == "none"
                        else int(cfg_s["split_seed"])),
            lam=float(cfg_s["lam"]),
        )
        norm_s = sections["normalizer"]
        normalizer = Normalizer(
            feature_names=tuple(norm_s["features"].split(",")),
            mins=_floats(norm_s["min"]), maxs=_floats(norm_s["max"]))
        span = normalizer.maxs - normalizer.mins
        if normalizer.feature_names != stage.feature_names \
                or span.shape != (stage.n_features,) \
                or not (np.isfinite(span) & (span > 0.0)).all():
            raise DataError(f"{path}: [normalizer] must name the stage's "
                            "features, each with finite min < max")
        centers, sigmas, coeffs = [], [], []
        for i in range(n_rules):
            rule_s = sections[f"rule {i}"]
            centers.append(_floats(rule_s["center"]))
            sigmas.append(_floats(rule_s["sigma"]))
            coeffs.append(_floats(rule_s["coeff"]))
        model = fis.FisModel(centers=np.array(centers), sigmas=np.array(sigmas),
                             coeffs=np.array(coeffs), stage=stage,
                             normalizer=normalizer)
        reports = {}
        for name in ("train", "test"):
            rep_s = sections[f"report {name}"]
            reports[name] = EvalReport(pearson_r=float(rep_s["pearson_r"]),
                                       rmse=float(rep_s["rmse"]),
                                       mae=float(rep_s["mae"]),
                                       n=int(rep_s["n"]))
        convergence = _floats(sections["convergence"]["rmse"])
    except (KeyError, ValueError, IndexError) as exc:
        raise DataError(f"{path}: invalid model file ({exc})") from exc
    return TrainedModel(fis=model, config=config,
                        train_report=reports["train"],
                        test_report=reports["test"],
                        convergence=convergence)
