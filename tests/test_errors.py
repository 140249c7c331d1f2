"""The error taxonomy: each type's exit code, and range checks on every
float field of the four config classes rejecting NaN and +-inf."""

import math
from dataclasses import fields

import pytest

from antfis.aco import AcoConfig
from antfis.dataset import FeatureStage
from antfis.errors import AntfisError, DataError, NumericError, UsageError
from antfis.synthfield import PlumeParams, ReactorGeometry
from antfis.trainer import TrainConfig


def test_exit_codes():
    assert (UsageError.exit_code, DataError.exit_code,
            NumericError.exit_code) == (1, 2, 3)


def test_usage_error_is_a_value_error():
    assert issubclass(UsageError, AntfisError)
    assert issubclass(UsageError, ValueError)
    assert not issubclass(DataError, ValueError)


# Each config class with the arguments it needs besides defaults.
CONFIGS = ((AcoConfig, {}), (TrainConfig, {"stage": FeatureStage.X1}),
           (ReactorGeometry, {}), (PlumeParams, {}))
FLOAT_FIELDS = [(cls, base, f.name) for cls, base in CONFIGS
                for f in fields(cls) if f.type == "float"]


def test_float_fields_listed():
    # FLOAT_FIELDS comes from the annotations; pin its size (2 + 1 + 3 + 8)
    # so that a field dropping out of the check below is noticed
    assert len(FLOAT_FIELDS) == 14


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, base, name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in FLOAT_FIELDS])
def test_non_finite_float_field_rejected(cls, base, name, value):
    with pytest.raises(UsageError, match=name):
        cls(**base, **{name: value})
