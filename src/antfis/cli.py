"""Command-line surface: data generation, training, evaluation, sweeping,
prediction, and plot-data emission.

Exit codes: 0 success, else the raised error type's exit_code (errors.py):
1 a flag out of range, named in the message; 2 bad data, an OSError or a
MemoryError; 3 a numerical failure. Any other exception is a bug and
shows a traceback. All randomness flows from explicit --seed flags; same
flags, same bytes.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .aco import AcoConfig
from .dataset import (FeatureStage, _numbered_lines, load_dataset,
                      number_fault, read_csv_table, write_csv_table,
                      write_dataset_csv)
from .errors import AntfisError, DataError, UsageError
from .synthfield import PlumeParams, ReactorGeometry, generate_dataset
from .trainer import (TrainConfig, _predict, evaluate, load_model,
                      predict_points, save_model, sweep, train,
                      training_partitions, write_sweep_csv)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_GEOM_KEYS = tuple(f.name for f in fields(ReactorGeometry))
_PLUME_KEYS = tuple(f.name for f in fields(PlumeParams))
# The train and sweep flags default to the config classes' own defaults.
_DEFAULTS = TrainConfig(stage=FeatureStage.XYZPV5)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="antfis",
                     description="Fuzzy-rule surrogate for bubble-column gas "
                                 "holdup, tuned by a continuous ant colony.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic node table")
    gen.add_argument("--n", type=int, default=1500,
                     help="number of nodes (default 1500, canonical "
                          "experiment size)")
    gen.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--params", default=None,
                     help="key=value file overriding generator defaults")
    for key in _GEOM_KEYS + _PLUME_KEYS:
        gen.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                         dest=key, help=f"override {key}")

    def add_train_flags(p):
        aco = _DEFAULTS.aco
        p.add_argument("--p", type=float, default=_DEFAULTS.p,
                       help="training share of the data (default "
                            "%(default)s, canonical experiment value)")
        p.add_argument("--iters", type=int, default=aco.max_iter,
                       help="optimizer iterations (default %(default)s, "
                            "canonical experiment value)")
        p.add_argument("--rules", type=int, default=_DEFAULTS.n_rules,
                       help="fuzzy rule count (default %(default)s)")
        p.add_argument("--archive-size", type=int, default=aco.archive_size,
                       help="solution archive size (default %(default)s)")
        p.add_argument("--q", type=float, default=aco.q,
                       help="rank-weight locality (default %(default)s)")
        p.add_argument("--xi", type=float, default=aco.xi,
                       help="kernel width factor (default %(default)s)")
        p.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                       help="master seed (default %(default)s)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; must be >= 1 and "
                            "has no effect on results or speed (default 1)")

    tr = sub.add_parser("train", help="train a model on a node table")
    tr.add_argument("--data", required=True, help="input CSV path")
    tr.add_argument("--stage", type=int, default=5, choices=range(1, 6),
                    help="number of staged inputs, 1-5 (default 5)")
    tr.add_argument("--ants", type=int, default=_DEFAULTS.aco.n_ants,
                    help="candidates sampled per iteration (default "
                         "%(default)s, canonical experiment value)")
    tr.add_argument("--out", required=True, help="output model file")
    add_train_flags(tr)

    ev = sub.add_parser("eval", help="evaluate a saved model on a node table")
    ev.add_argument("--model", required=True, help="model file path")
    ev.add_argument("--data", required=True, help="input CSV path")

    sw = sub.add_parser("sweep", help="train a grid of (stage, ant count) cells")
    sw.add_argument("--data", required=True, help="input CSV path")
    sw.add_argument("--stages", default="1-5",
                    help="stage list or range, e.g. 1-5 or 1,3,5 (default 1-5)")
    sw.add_argument("--ants", default="20,30,40",
                    help="comma-separated ant counts (default 20,30,40, "
                         "canonical experiment grid)")
    sw.add_argument("--out", required=True, help="output CSV path")
    add_train_flags(sw)

    pr = sub.add_parser("predict", help="predict holdup at new feature points")
    pr.add_argument("--model", required=True, help="model file path")
    pr.add_argument("--points", required=True,
                    help="CSV of feature columns matching the model's stage")
    pr.add_argument("--out", required=True, help="output CSV path")

    rp = sub.add_parser("report", help="emit scatter and convergence data files")
    rp.add_argument("--model", required=True, help="model file path")
    rp.add_argument("--data", required=True,
                    help="the CSV the model was trained from")
    rp.add_argument("--out-prefix", required=True,
                    help="prefix for <prefix>_scatter_train.csv, "
                         "<prefix>_scatter_test.csv, <prefix>_convergence.csv")
    return parser


def _read_params_file(path: str) -> dict[str, float]:
    values = {}
    for lineno, raw, fault in _numbered_lines(path):
        line = raw.split("#", 1)[0].strip(" \t")
        key, sep, value = (part.strip(" \t") for part in line.partition("="))
        if fault is None and not line:
            continue
        if fault is None and (not sep or key not in _GEOM_KEYS + _PLUME_KEYS):
            fault = ("expected <name>=<value> with a known parameter, got "
                     f"{raw!r}")
        elif fault is None and number_fault(value):
            fault = f"bad number {value!r}"
        if fault is not None:
            raise DataError(f"{path}, line {lineno}: {fault}")
        values[key] = float(value)
    return values


def _cmd_gen_data(args) -> int:
    overrides = _read_params_file(args.params) if args.params else {}
    for key in _GEOM_KEYS + _PLUME_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            overrides[key] = flag
    geom = ReactorGeometry(**{k: overrides[k] for k in _GEOM_KEYS
                              if k in overrides})
    plume = PlumeParams(**{k: overrides[k] for k in _PLUME_KEYS
                           if k in overrides})
    data = generate_dataset(geom, plume, args.n, args.seed)
    write_dataset_csv(data, args.out)
    print(f"wrote {len(data)} rows to {args.out}")
    return 0


def _train_config(args, stage: FeatureStage, ants: int) -> TrainConfig:
    if not args.threads >= 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    return TrainConfig(
        stage=stage, p=args.p, n_rules=args.rules,
        aco=AcoConfig(n_ants=ants, archive_size=args.archive_size,
                      q=args.q, xi=args.xi, max_iter=args.iters),
        seed=args.seed)


def _cmd_train(args) -> int:
    stage = FeatureStage.from_arity(args.stage)
    config = _train_config(args, stage, args.ants)
    model = train(load_dataset(args.data, stage), config)
    save_model(model, args.out)
    print(f"train_R={model.train_report.pearson_r:.6f} "
          f"test_R={model.test_report.pearson_r:.6f}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_dataset(args.data, model.config.stage)
    rep = evaluate(model, data)
    print(f"R={rep.pearson_r:.6f} RMSE={rep.rmse:.6g} MAE={rep.mae:.6g} "
          f"n={rep.n}")
    return 0


def _parse_ints(text: str, flag: str) -> list[int]:
    if not re.fullmatch(r"\s*\d{1,9}\s*(,\s*\d{1,9}\s*)*", text, re.ASCII):
        raise UsageError(f"bad {flag} value {text!r}")
    return [int(v) for v in text.split(",")]


def _parse_stages(text: str) -> list[FeatureStage]:
    m = re.fullmatch(r"\s*(\d{1,9})\s*-\s*(\d{1,9})\s*", text, re.ASCII)
    ks = range(int(m[1]), int(m[2]) + 1) if m else _parse_ints(text, "--stages")
    if not ks:
        raise UsageError(f"bad --stages range {text!r}: it holds no stage")
    return [FeatureStage.from_arity(k) for k in ks]


def _cmd_sweep(args) -> int:
    stages = _parse_stages(args.stages)
    ants = _parse_ints(args.ants, "--ants")
    base = _train_config(args, FeatureStage.XYZPV5, min(ants))
    report = sweep(load_dataset(args.data, FeatureStage.XYZPV5), stages,
                   ants, base)
    write_sweep_csv(report, args.out)
    print(f"wrote {len(report.cells)} sweep cells to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    stage = model.config.stage
    points = read_csv_table(args.points, stage.feature_names, "points")
    preds = predict_points(model, points)
    write_csv_table(args.out, stage.feature_names + ("prediction",),
                    [*points.T, preds])
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def _cmd_report(args) -> int:
    model = load_model(args.model)
    data = load_dataset(args.data, model.config.stage)
    train_ds, test_ds = training_partitions(model, data)
    prefix = Path(args.out_prefix)
    # both shares are predicted before a file is written, so a share
    # whose predictions are not finite leaves no file behind
    scatter = [(name, part.targets(),
                _predict(model.fis, part.features(), "report",
                         f"--data {rows}"))
               for name, rows, part in (("train", "training share", train_ds),
                                        ("test", "test share", test_ds))]
    for name, targets, preds in scatter:
        write_csv_table(prefix.parent / f"{prefix.name}_scatter_{name}.csv",
                        ("target", "prediction"), [targets, preds])
    write_csv_table(prefix.parent / f"{prefix.name}_convergence.csv",
                    ("iteration", "best_rmse"),
                    [range(1, len(model.convergence) + 1),
                     model.convergence])
    print(f"wrote scatter and convergence files with prefix {args.out_prefix}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except (AntfisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, AntfisError) else 2
    except MemoryError as exc:  # a count flag too large for this machine
        print(f"error: out of memory ({str(exc) or 'no detail'}); lower --n, "
              "--archive-size, --ants or --rules", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))
