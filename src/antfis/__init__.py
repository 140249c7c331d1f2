"""Fuzzy-rule surrogate modeling of bubble-column gas holdup fields,
tuned by a continuous-domain ant colony optimizer."""

from .aco import AcoConfig, OptResult, optimize
from .dataset import (CSV_HEADER, DataSet, EvalReport, FeatureStage,
                      Normalizer, eval_metrics, fit_normalizer, load_dataset,
                      split, write_dataset_csv)
from .errors import AntfisError, DataError, NumericError, UsageError
from .fcm import FcmResult, fcm_cluster
from .fis import FisModel, encode_premise, init_from_fcm, predict_batch
from .synthfield import (PlumeParams, ReactorGeometry, fields_at,
                         generate_dataset)
from .trainer import (SweepReport, TrainConfig, TrainedModel, evaluate,
                      load_model, predict_points, save_model, sweep, train,
                      training_partitions)

__version__ = "0.1.0"
