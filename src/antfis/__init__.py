"""Fuzzy-rule surrogate modeling of bubble-column gas holdup fields,
tuned by a continuous-domain ant colony optimizer.

The public names load their module on first use (PEP 562), so importing
the package imports neither numpy nor BLAS: the command-line entry can
still pin BLAS's thread count (see __main__).
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "aco": ("AcoConfig", "OptResult", "optimize"),
    "dataset": ("CSV_HEADER", "DataSet", "EvalReport", "FeatureStage",
                "Normalizer", "eval_metrics", "fit_normalizer",
                "load_dataset", "split", "write_dataset_csv"),
    "errors": ("AntfisError", "DataError", "NumericError", "UsageError"),
    "fcm": ("FcmResult", "fcm_cluster"),
    "fis": ("FisModel", "encode_premise", "init_from_fcm", "predict_batch"),
    "synthfield": ("PlumeParams", "ReactorGeometry", "fields_at",
                   "generate_dataset"),
    "trainer": ("SweepReport", "TrainConfig", "TrainedModel", "evaluate",
                "load_model", "predict_points", "save_model", "sweep",
                "train", "training_partitions"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                   name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
