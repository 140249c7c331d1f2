"""End-to-end training pipeline, staged-input sweep, and model persistence.

A run is: split -> fit scaler on the training share -> fuzzy c-means in
the scaled feature space, at fcm's fixed settings -> seed the rule
premises -> ant colony search over the encoded premise vector, refitting
consequents at every fitness evaluation -> final refit and evaluation on
both partitions. Every refit uses fis.DEFAULT_DAMPING. The run works on
premise arrays and one row basis of the training features; a FisModel is
built only for the best vector.

Every stochastic stage draws from a child seed derived from the master
seed via SplitMix64 mixing, so a (dataset, config) pair fully determines
the trained model.

A model file is plain text: a version line, then `[section]` headers
with `key = value` lines, padded with spaces and tabs only. The
dataclasses are its schema: `[config]` holds TrainConfig's fields
(AcoConfig's prefixed `aco.`), `[report train]` and `[report test]`
EvalReport's, one line each in declaration order. The loader rebuilds
them from their type hints, so their range checks apply to a file's
values. A control character, or a repeated or unknown section or key,
is an error.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from . import fis
from .aco import AcoConfig, optimize
from .dataset import (DataSet, EvalReport, FeatureStage, Normalizer,
                      _numbered_lines, _require_spread, eval_metrics,
                      fit_normalizer, number_fault, split, write_csv_table)
from .errors import AntfisError, DataError, UsageError
from .fcm import fcm_cluster
from .rng import mix_seed
from .shares import _in_shares

_SPLIT_STREAM = 1
_FCM_STREAM = 2
_ACO_STREAM = 3

MODEL_MAGIC = "antfis-model v3"


@dataclass(frozen=True)
class TrainConfig:
    # Declared in the order of the model file's [config] keys.
    p: float = 0.70
    stage: FeatureStage = field(kw_only=True)
    n_rules: int = 10
    seed: int = 7
    # Sweeps pin one partition for every cell so stage/ant comparisons are
    # on identical data; None derives the split from the master seed.
    split_seed: int | None = None
    aco: AcoConfig = AcoConfig()

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise UsageError(f"train: p must be in (0, 1), got {self.p} (--p)")
        if not self.n_rules >= 2:
            raise UsageError(f"train: n_rules (--rules) must be >= 2, "
                             f"got {self.n_rules}")

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

    def best_test_r(self, stage: FeatureStage) -> float:
        return max(c.test_r for c in self.cells if c.stage == stage)


def premise_objective(basis: np.ndarray, y: np.ndarray,
                      n_rules: int) -> Callable[[np.ndarray], float]:
    """The optimizer's objective: training RMSE of an encoded premise
    vector, with consequents refit by least squares at fitness's default
    damping.

    `basis` is fis.row_basis of the training features. Each call unpacks
    the vector into premise arrays and scores them on the one fitness
    path; no FisModel is built per evaluation.
    """
    d = (basis.shape[0] - 1) // 2

    def objective(v: np.ndarray) -> float:
        centers, sigmas = fis.premise_arrays(v, n_rules, d)
        return fis.fitness(centers, sigmas, basis, y)[1]
    return objective


def _predict(model: fis.FisModel, X, caller: str, rows: str) -> np.ndarray:
    """Predictions of `model` at the raw feature rows X, clamped to [0, 1]
    at this reporting layer only.

    A row far outside the training range, or an overflowing rule output,
    makes a prediction inf (hidden by clamping) or NaN: either raises a
    DataError naming the caller and the rows (`rows`), with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        preds = fis.predict_batch(model, X)
    if not np.isfinite(preds).all():
        raise DataError(f"{caller}: on the {rows}, the predictions hold a "
                        "non-finite value (a row too far outside the training "
                        "range, or a rule output that overflows)")
    return np.clip(preds, 0.0, 1.0, out=preds)


def _report(model: fis.FisModel, data: DataSet, caller: str,
            rows: str) -> EvalReport:
    """Evaluate the clamped predictions (_predict) with the stored scaler.

    R is undefined when either side is constant or a prediction is not
    finite; the DataError names the caller, the rows (`rows`) it was
    evaluated on, and a constant side.
    """
    preds = _predict(model, data.features(), caller, rows)
    targets = data.targets()
    for side, values in (("targets", targets),
                         ("clamped predictions", preds)):
        _require_spread(values, f"{caller}: the {side} on the {rows}")
    return eval_metrics(preds, targets)


def train(data: DataSet, config: TrainConfig, n_workers: int = 1) -> TrainedModel:
    """Run the full pipeline on `data` and return the trained model.

    The optimizer minimizes premise_objective: training RMSE of the
    premise vector, with consequents refit by damped least squares. The
    premises seeded from clustering join the initial archive so the
    search starts no worse than the clustering baseline. The optimizer
    evaluates each round's candidates in forked shares, one per CPU,
    unless this train runs inside a share itself, as a sweep cell does.
    Pin BLAS to one thread first: unpinned, a stage-3 train took 24.9 s,
    not 0.52 s, on 2 vCPUs. `n_workers` is ignored, for existing callers.
    """
    if data.feature_stage != config.stage:
        raise ValueError(f"train: data stage {data.feature_stage.n_features} "
                         f"!= config stage {config.stage.n_features}")
    _require_rows(data, "train")

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

    clustering = fcm_cluster(Xtr, config.n_rules,
                             seed=mix_seed(config.seed, _FCM_STREAM))
    seed_premises = fis.init_from_fcm(clustering, Xtr)
    basis = fis.row_basis(Xtr)
    c, d = config.n_rules, config.stage.n_features
    result = optimize(premise_objective(basis, ytr, c),
                      fis.premise_bounds(c, d), config.aco,
                      seed=mix_seed(config.seed, _ACO_STREAM),
                      initial_guesses=(fis.encode_premise(*seed_premises),))
    centers, sigmas = fis.premise_arrays(result.best_vector, c, d)
    coeffs, _ = fis.fitness(centers, sigmas, basis, ytr)
    best = fis.FisModel(centers=centers, sigmas=sigmas, coeffs=coeffs,
                        normalizer=norm)

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
    _require_rows(data, "report")
    return split(data, model.config.p, model.config.effective_split_seed())


def evaluate(model: TrainedModel, data: DataSet) -> EvalReport:
    """Metrics of the trained model on an arbitrary dataset (clamped predictions)."""
    if data.feature_stage != model.config.stage:
        raise ValueError(f"evaluate: data stage {data.feature_stage.n_features} "
                         f"!= model stage {model.config.stage.n_features}")
    _require_rows(data, "eval")
    return _report(model.fis, data, "eval", "--data rows")


def predict_points(model: TrainedModel, points) -> np.ndarray:
    """Predict volume fractions at raw feature vectors, clamped to [0, 1].

    A non-finite prediction is a DataError naming `predict` and the
    --points rows. A point predicted alone can differ in its last bits
    from the same point in a batch: numpy sends a one-row product to
    BLAS gemv, which sums in another order than the gemm of a batch.
    """
    X = np.asarray(points, dtype=float)
    return _predict(model.fis, X[None, :] if X.ndim == 1 else X, "predict",
                    "--points rows")


def sweep(data: DataSet, stages, ant_counts, base: TrainConfig,
          n_workers: int = 1) -> SweepReport:
    """Train one model per (stage, ant count) cell and tabulate R values.

    Each cell's seed derives from (master seed, stage arity, ant count)
    via the SplitMix64 mixer, and every cell trains on one shared split,
    so cells are independent yet reproducible. `data` must carry all
    features needed by the largest stage.

    The cells run in forked shares, one per CPU (shares._in_shares),
    each share writing its cells' (train R, test R) as float64 bytes. A
    cell's cost grows with its stage and ant count, so the grid is
    passed in zigzag order (last, first, second-last, ...) to balance
    the shares. A cell's error, prefixed with the cell, takes the fork
    helper's failed-share path, so the sweep stops at the first failing
    cell in this run order, with a serial sweep's error at any CPU count.
    `n_workers` is accepted and ignored; it is kept for existing callers.
    """
    stages = tuple(sorted(set(stages), key=lambda s: s.n_features))
    ant_counts = tuple(sorted(set(int(a) for a in ant_counts)))
    if not stages or not ant_counts:
        raise UsageError("sweep: need a stage (--stages) and an ant count (--ants)")
    if max(s.n_features for s in stages) > data.feature_stage.n_features:
        raise ValueError("sweep: dataset stage arity below requested stages")
    shared_split = base.effective_split_seed()

    def train_cell(stage: FeatureStage, ants: int) -> tuple[float, float]:
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
        return model.train_report.pearson_r, model.test_report.pearson_r

    def run(share, out) -> None:
        for cell in share:
            out.write(np.array(train_cell(*cell), dtype=np.float64).tobytes())

    grid = [(stage, ants) for stage in stages for ants in ant_counts]
    zigzag = [grid[i // 2] if i % 2 else grid[~(i // 2)]
              for i in range(len(grid))]
    out = io.BytesIO()
    _in_shares(run, zigzag, out)
    pairs = dict(zip(zigzag, np.frombuffer(out.getvalue()).reshape(-1, 2)))
    return SweepReport(cells=tuple(SweepCell(*cell, *map(float, pairs[cell]))
                                   for cell in grid))


def write_sweep_csv(report: SweepReport, path: str | Path) -> None:
    cells = report.cells
    write_csv_table(path, ("stage", "n_ants", "train_r", "test_r"),
                    [[c.stage.n_features for c in cells],
                     [c.n_ants for c in cells],
                     [c.train_r for c in cells], [c.test_r for c in cells]])


# --- model file: versioned plain-text container ---------------------------

# A dataclass field is written by the formatter of its type (default str)
# and read back by the parser of its type (default the type itself).
_FORMATTERS = {
    float: lambda v: str(float(v)),  # an np.float64 reprs as "np.float64(..)"
    FeatureStage: lambda v: str(v.n_features),
    int | None: lambda v: "none" if v is None else str(v),
}
_PARSERS = {
    FeatureStage: lambda text: FeatureStage.from_arity(int(text)),
    int | None: lambda text: None if text == "none" else int(text),
}


def _field_lines(obj, prefix: str = "") -> list[str]:
    """`key = value` lines of a dataclass's fields, nested ones prefixed."""
    types = get_type_hints(type(obj))
    lines = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            lines += _field_lines(value, f"{prefix}{f.name}.")
        else:
            text = _FORMATTERS.get(types[f.name], str)(value)
            lines.append(f"{prefix}{f.name} = {text}")
    return lines


def _from_fields(cls, section: dict[str, str], prefix: str = ""):
    """Inverse of _field_lines; __post_init__ range checks apply."""
    types = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        t = types[f.name]
        key = prefix + f.name
        values[f.name] = (_from_fields(t, section, f"{key}.")
                          if is_dataclass(t)
                          else section.value(key, _PARSERS.get(t, t)))
    return cls(**values)


def _fmt_floats(vs) -> str:
    return ",".join(repr(float(v)) for v in vs)


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write the versioned plain-text model container.

    Floats are stored at repr precision, so save -> load -> save is
    byte-identical.
    """
    m = model.fis
    lines = [MODEL_MAGIC, "", "[config]", *_field_lines(model.config), "",
             "[normalizer]",
             f"features = {','.join(m.normalizer.feature_names)}",
             f"min = {_fmt_floats(m.normalizer.mins)}",
             f"max = {_fmt_floats(m.normalizer.maxs)}"]
    for i in range(m.n_rules):
        lines += [
            "",
            f"[rule {i}]",
            f"center = {_fmt_floats(m.centers[i])}",
            f"sigma = {_fmt_floats(m.sigmas[i])}",
            f"coeff = {_fmt_floats(m.coeffs[i])}",
        ]
    for name, rep in (("train", model.train_report), ("test", model.test_report)):
        lines += ["", f"[report {name}]", *_field_lines(rep)]
    lines += ["", "[convergence]",
              f"rmse = {_fmt_floats(model.convergence)}", ""]
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


class _Keys(dict):
    """The entries of model-file section `name`, or the sections if None;
    `read` holds the keys looked up."""

    def __init__(self, name: str | None = None):
        super().__init__()
        self.name, self.read = name, set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def value(self, key: str, parse: Callable[[str], object] = _floats):
        """parse(the value of `key`), each comma-separated part of it "none"
        or a CSV cell number; a ValueError names section, key and value."""
        text = self[key]
        try:
            for part in text.split(","):
                if part != "none" and (fault := number_fault(part)):
                    raise ValueError(fault)
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"[{self.name}] {key} = {text!r}: {exc}") from None

    def __missing__(self, key):
        raise ValueError(f"no section [{key}]" if self.name is None
                         else f"[{self.name}] has no key {key!r}")


def _parse_sections(path: Path) -> _Keys:
    sections, current = _Keys(), None
    for lineno, raw, fault in _numbered_lines(path):
        line = raw.strip(" \t")
        ok = fault is None and raw.replace("\t", " ").isprintable()
        if ok and lineno == 1:
            if line != MODEL_MAGIC:
                fault = f"not a recognized model file (expected {MODEL_MAGIC!r})"
        elif ok and line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in sections:
                fault = f"repeated section [{name}]"
            current = sections.setdefault(name, _Keys(name))
        elif ok and "=" in line and current is not None:
            key, _, value = (part.strip(" \t") for part in line.partition("="))
            if key in current:
                fault = f"repeated key {key!r} in [{current.name}]"
            current[key] = value
        elif fault is None and (line or not ok):  # not a blank line
            fault = f"unparseable model line {raw!r}"
        if fault is not None:
            raise DataError(f"{path}, line {lineno}: {fault}")
    return sections


def load_model(path: str | Path) -> TrainedModel:
    """Read a model container written by save_model, and nothing else."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        sections = _parse_sections(path)
        config = _from_fields(TrainConfig, sections["config"])
        norm_s, names = sections["normalizer"], config.stage.feature_names
        try:
            normalizer = Normalizer(names, norm_s.value("min"),
                                    norm_s.value("max"))
        except DataError:
            normalizer = None
        if normalizer is None or norm_s["features"] != ",".join(names):
            raise DataError(f"{path}: [normalizer] must name the stage's "
                            "features, each with finite min < max")
        rules = [sections[f"rule {i}"] for i in range(config.n_rules)]
        model = fis.FisModel(*(np.array([rule.value(key) for rule in rules])
                               for key in ("center", "sigma", "coeff")),
                             normalizer=normalizer)
        reports = {name: _from_fields(EvalReport, sections[f"report {name}"])
                   for name in ("train", "test")}
        convergence = sections["convergence"].value("rmse")
        if not np.isfinite(convergence).all():
            raise ValueError("[convergence] rmse values must be finite")
        for keys in (sections, *sections.values()):
            key = next((key for key in keys if key not in keys.read), None)
            if key is not None:
                raise ValueError(f"unknown section [{key}]" if keys.name is None
                                 else f"[{keys.name}] has unknown key {key!r}")
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: invalid model file ({exc})") from exc
    return TrainedModel(model, config, reports["train"], reports["test"],
                        convergence)
