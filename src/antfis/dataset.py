"""Node-table ingestion, partitioning, scaling, and fit metrics.

The canonical on-disk format is a UTF-8 CSV with the exact header
``x,y,z,pressure,air_superficial_velocity,air_volume_fraction`` and one
reactor node per row. Feature staging selects a prefix of the five input
columns; the volume fraction is always the regression target.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .shares import _in_shares

FEATURE_NAMES = ("x", "y", "z", "pressure", "air_superficial_velocity")
TARGET_NAME = "air_volume_fraction"
CSV_HEADER = FEATURE_NAMES + (TARGET_NAME,)


class FeatureStage(Enum):
    """Nested input stages: the first k of (x, y, z, pressure, velocity)."""

    X1 = 1
    XY2 = 2
    XYZ3 = 3
    XYZP4 = 4
    XYZPV5 = 5

    @property
    def n_features(self) -> int:
        return self.value

    @property
    def feature_names(self) -> tuple[str, ...]:
        return FEATURE_NAMES[: self.value]

    @classmethod
    def from_arity(cls, k: int) -> "FeatureStage":
        for stage in cls:
            if stage.value == k:
                return stage
        raise UsageError(f"feature stage (--stage, --stages) must be 1..5, got {k}")


def _first_invalid_row(X: np.ndarray, y: np.ndarray | None = None,
                       ) -> tuple[int, str] | None:
    """(index, reason) of the first row holding a non-finite value or, when
    targets y are given, a volume fraction outside [0, 1]; None if all pass.

    One whole-array test clears a valid table; the row and the reason are
    looked for only when it fails.
    """
    in_range = None if y is None else (y >= 0.0) & (y <= 1.0)
    if np.isfinite(X).all() and (in_range is None or in_range.all()):
        return None
    finite = np.isfinite(X).all(axis=1)
    i = int(np.argmin(finite if in_range is None else finite & in_range))
    if finite[i] and np.isfinite(y[i]):
        return i, f"{TARGET_NAME} {float(y[i])!r} outside [0, 1]"
    return i, "non-finite value"


@dataclass(frozen=True, eq=False)
class DataSet:
    """Reactor nodes as columns, plus the feature stage they are consumed at.

    X holds all five feature columns (n, 5) and y the volume fractions
    (n,), both read-only. The constructor copies the arrays passed in and
    checks that every value is finite and every fraction in [0, 1].
    """

    X: np.ndarray
    y: np.ndarray
    feature_stage: FeatureStage

    def __post_init__(self):
        X = np.array(self.X, dtype=float, order="C")
        y = np.array(self.y, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES) \
                or y.shape != X.shape[:1]:
            raise ValueError(f"DataSet: need (n, {len(FEATURE_NAMES)}) "
                             f"features and (n,) targets, got {X.shape} "
                             f"and {y.shape}")
        bad = _first_invalid_row(X, y)
        if bad is not None:
            raise DataError(f"row {bad[0]}: {bad[1]}")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.y)

    def features(self) -> np.ndarray:
        """Read-only feature matrix (n, d) for the dataset's stage."""
        # Below stage 5 the column prefix is strided, and BLAS rounds
        # products of a strided matrix differently; a contiguous copy
        # keeps every stage's trained model bit-stable.
        X = np.ascontiguousarray(self.X[:, :self.feature_stage.n_features])
        X.flags.writeable = False
        return X

    def targets(self) -> np.ndarray:
        return self.y

    def with_stage(self, stage: FeatureStage) -> "DataSet":
        return _adopt(self.X, self.y, stage)


def _adopt(X: np.ndarray, y: np.ndarray, stage: FeatureStage) -> DataSet:
    """A DataSet over checked arrays that no one writes to afterwards:
    unlike DataSet(...), it makes them read-only but neither copies nor
    checks them."""
    X.flags.writeable = False
    y.flags.writeable = False
    data = object.__new__(DataSet)
    vars(data).update(X=X, y=y, feature_stage=stage)
    return data


@dataclass(frozen=True)
class EvalReport:
    """Correlation and error statistics of predictions against targets;
    RMSE and MAE are inf for an error that overflows."""

    pearson_r: float
    rmse: float
    mae: float
    n: int

    def __post_init__(self):
        if not (-1.0 <= self.pearson_r <= 1.0 and self.rmse >= 0.0
                and self.mae >= 0.0 and self.n >= 2):
            raise ValueError(f"EvalReport: need -1 <= pearson_r <= 1, "
                             f"rmse >= 0, mae >= 0 and n >= 2, got {self}")


@dataclass(frozen=True)
class Normalizer:
    """Per-feature min-max scaling learned from a training partition.

    Apply exactly once: transformed training features land in [0, 1];
    values outside the fitted range (e.g. test data) are not clipped.
    """

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        # The one home of the rule that a feature can be scaled: a
        # DataError names the first whose min and max are not finite with
        # a positive span that a float holds.
        mins, maxs = np.asarray(self.mins), np.asarray(self.maxs)
        d = len(self.feature_names)
        if mins.shape != (d,) or maxs.shape != (d,):
            raise DataError(f"need one min and one max for each of the {d} "
                            f"features, got {mins.size} and {maxs.size}")
        for name, lo, hi in zip(self.feature_names, mins.tolist(),
                                maxs.tolist()):
            if lo == hi:
                raise DataError(f"feature '{name}' is constant over the "
                                f"training rows ({lo!r}); cannot scale")
            if not -math.inf < lo < hi < math.inf:
                raise DataError(f"feature '{name}' needs a finite min below "
                                f"its max, got {lo!r} and {hi!r}; cannot "
                                "scale")
            if hi - lo == math.inf:  # Python floats overflow without a warning
                raise DataError(f"feature '{name}' spans more than a float "
                                "holds over the training rows; cannot scale")

    def transform(self, X: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Scaled copy of X, (n, d); a value far outside the fitted range
        gives inf, and trainer._predict rejects the prediction it makes.

        Given `out`, a (d, n) array such as the feature rows of
        fis.row_basis, the scaled X.T is written there and returned: the
        same arithmetic, run along rows of n values instead of d.
        """
        X = np.asarray(X, dtype=float)
        mins, span = self.mins, self.maxs - self.mins
        if out is not None:
            X, mins, span = X.T, mins[:, None], span[:, None]
        out = np.subtract(X, mins, out=out)
        out /= span
        return out


# numpy's parser strips these ASCII separators around a number as it
# strips spaces; float() rejects them, and so does the grammar.
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_BLOCK_ROWS = 8192
# Rows per block of load_dataset's in-place move; numpy buffers overlaps.
_COMPACT_ROWS = 1024


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of ceil(n / _BLOCK_ROWS) consecutive row blocks that
    cover rows 0..n-1 and whose sizes differ by at most one row."""
    k = -(-n // _BLOCK_ROWS)
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def read_csv_table(path: str | Path, header: tuple[str, ...],
                   rows: str) -> np.ndarray:
    """Parse a CSV with exactly `header` into an (m, len(header)) array.

    The grammar is plain comma-separated numbers without quoting; line
    ends may be \\n, \\r\\n or \\r, and empty lines are skipped. numpy's
    C parser (np.loadtxt) reads the rows. Raises DataError on a missing or
    empty file, a header mismatch, and, with the offending line number, a
    row of the wrong width, a cell that is not a float, a non-finite cell,
    or (when the last column is the volume fraction) a target outside
    [0, 1]. A file without data rows is reported as holding no `rows`.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    try:
        with path.open("r", encoding="utf-8") as fh:
            got = fh.readline()
            if not got:
                raise DataError(f"{path}: empty file, expected header "
                                f"{','.join(header)}")
            got = got.rstrip("\n")
            if tuple(h.strip() for h in got.split(",")) != header:
                raise DataError(f"{path}: header must be exactly "
                                f"{','.join(header)}, got {got}")
            try:
                with warnings.catch_warnings():
                    # a file without data rows is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(fh, delimiter=",", comments=None,
                                       ndmin=2)
            except ValueError as exc:
                raise _grammar_error(path, header, str(exc)) from None
        if len(table) == 0:
            raise DataError(f"{path}: no {rows}")
        if table.shape[1] != len(header):
            raise _grammar_error(path, header, f"expected {len(header)} "
                                 f"columns, got {table.shape[1]}")
        if _holds_separator(path):
            raise _grammar_error(path, header, "ASCII separator character "
                                 "(\\x1c-\\x1f) in the file")
        bad = (_first_invalid_row(table[:, :-1], table[:, -1])
               if header[-1] == TARGET_NAME else _first_invalid_row(table))
        if bad is not None:
            lineno, _ = next(itertools.islice(_data_lines(path), bad[0],
                                             None))
            raise DataError(f"{path}, line {lineno}: {bad[1]}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    return table


def _data_lines(path: Path):
    """(line number, text) of each line after the header that np.loadtxt
    reads as a row: every line but the empty ones."""
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line:
                yield lineno, line


def number_fault(cell: str) -> str | None:
    """Why `cell` is not a number of the grammar, or None if it is one.

    The grammar is what both float() and np.loadtxt accept: float()
    also takes digit-group underscores and non-ASCII digits.
    """
    try:
        float(cell)
    except ValueError as exc:
        return str(exc)
    if "_" in cell or not cell.strip().isascii():
        return f"could not convert string to float: {cell!r}"
    return None


def _grammar_error(path: Path, header: tuple[str, ...],
                   reason: str) -> DataError:
    """A DataError naming the first data line of the wrong width or with a
    cell that is not a number; `reason` alone if no line is at fault.

    Runs only once a read has failed: numpy's messages count rows in
    their own ways, so the line is found by a plain pass.
    """
    for lineno, line in _data_lines(path):
        cells = line.split(",")
        if len(cells) != len(header):
            return DataError(f"{path}, line {lineno}: expected "
                             f"{len(header)} columns, got {len(cells)}")
        for cell in cells:
            fault = number_fault(cell)
            if fault is not None:
                return DataError(f"{path}, line {lineno}: {fault}")
    return DataError(f"{path}: {reason}")


def _holds_separator(path: Path) -> bool:
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if any(sep in chunk for sep in _SEPARATOR_BYTES):
                return True
    return False


def _write_blocks(fh, columns: list[np.ndarray],
                  blocks: list[tuple[int, int]]) -> None:
    """Write the rows of `blocks` to the binary file `fh`, each block
    formatted by one %-format call."""
    m = len(columns)
    line = ",".join(["%r"] * m) + "\n"
    for start, stop in blocks:
        cells = [None] * ((stop - start) * m)
        for j, col in enumerate(columns):
            cells[j::m] = col[start:stop].tolist()
        fh.write((line * (stop - start) % tuple(cells)).encode("utf-8"))


def write_csv_table(path: str | Path, header: tuple[str, ...],
                    columns) -> None:
    """Write equal-length columns under `header` as a CSV, one value per
    cell at repr precision (ints as ints, floats as repr(float)).

    Rows go out in the blocks of _row_blocks, each formatted by one
    %-format call, so no process holds more than one block's values as
    Python objects at once. Raises ValueError, before the file is opened,
    unless there is a column per header name and all columns have one
    length.
    """
    columns = [np.asarray(col) for col in columns]
    if not columns:
        raise ValueError("write_csv_table: no columns to write")
    if len(columns) != len(header):
        raise ValueError(f"write_csv_table: {len(header)} header names "
                         f"but {len(columns)} columns")
    n = len(columns[0])
    for name, col in zip(header, columns):
        if len(col) != n:
            raise ValueError(f"write_csv_table: column {name!r} holds "
                             f"{len(col)} values, column {header[0]!r} {n}")
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        _in_shares(lambda blocks, out: _write_blocks(out, columns, blocks),
                   _row_blocks(n), fh)


def load_dataset(path: str | Path, stage: FeatureStage) -> DataSet:
    """Read the canonical CSV into a DataSet carrying `stage`.

    Raises DataError as read_csv_table does; its checked rows are not
    checked again. The feature columns move to the front of the table's
    buffer, y behind them: X is contiguous, a stage-5 features() a view.
    """
    table = read_csv_table(path, CSV_HEADER, "samples")
    n, d = len(table), len(FEATURE_NAMES)
    y = table[:, d].copy()
    flat = table.reshape(-1)
    X = flat[:n * d].reshape(n, d)
    for start in range(0, n, _COMPACT_ROWS):
        X[start:start + _COMPACT_ROWS] = table[start:start + _COMPACT_ROWS, :d]
    flat[n * d:] = y
    return _adopt(X, flat[n * d:], stage)


def write_dataset_csv(data: DataSet, path: str | Path) -> None:
    """Write the canonical CSV (full six-column schema, repr-precision floats)."""
    write_csv_table(path, CSV_HEADER, [*data.X.T, data.y])


def split(data: DataSet, p: float, seed: int) -> tuple[DataSet, DataSet]:
    """Seeded random partition into (train, test) with |train| = round(p*n).

    The split is a seeded uniform permutation followed by a prefix cut, so
    identical (data, p, seed) reproduce identical partitions.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"split: train fraction p must be in (0, 1), got {p}")
    n = len(data)
    if n < 2:
        raise ValueError(f"split: need at least 2 samples, got {n}")
    n_train = int(round(p * n))
    order = np.random.default_rng(seed).permutation(n)
    train, test = order[:n_train], order[n_train:]
    stage = data.feature_stage
    return (_adopt(data.X[train], data.y[train], stage),
            _adopt(data.X[test], data.y[test], stage))


def fit_normalizer(train: DataSet) -> Normalizer:
    """Learn per-feature (min, max) from a training partition.

    A constant feature column, or one whose span overflows a float,
    cannot be scaled and raises DataError naming the feature.
    """
    if len(train) == 0:
        raise ValueError("fit_normalizer: training data is empty")
    X = train.features()
    return Normalizer(train.feature_stage.feature_names, X.min(axis=0),
                      X.max(axis=0))


def _require_spread(values: np.ndarray, what: str) -> None:
    """DataError naming `what` unless `values` holds two different numbers.
    Exact: the mean of equal values need not round back to them."""
    if values.min() == values.max():
        raise DataError(f"{what} are all equal (zero-variance), so R is "
                        "undefined")


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values * 2**-e, e), e the binary exponent that brings the largest
    magnitude into [0.5, 1); exact for every value that stays normal."""
    e = int(np.frexp(np.abs(values).max())[1])
    return np.ldexp(values, -e), e


def eval_metrics(pred, target) -> EvalReport:
    """Pearson R, RMSE, and MAE of predictions against targets.

    R is the Pearson correlation cov(pred, target) / (sd_pred * sd_target);
    it is undefined (DataError) when either sequence is constant or holds
    a non-finite value. Each statistic is computed once, on values scaled
    by a power of two to a largest magnitude in [0.5, 1): each side for R,
    the errors for RMSE and MAE, which are then scaled back. The scaling
    is exact, so no sum overflows or underflows unless the statistic does.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.ndim != 1:
        raise ValueError("eval_metrics: pred and target must be equal-length "
                         "1-d sequences")
    n = pred.size
    if n < 2:
        raise ValueError(f"eval_metrics: need at least 2 points, got {n}")
    for side, values in (("targets", target), ("predictions", pred)):
        if not np.isfinite(values).all():
            raise DataError(f"eval_metrics: the {side} hold a non-finite "
                            "value, R undefined")
        _require_spread(values, f"eval_metrics: the {side}")
    dp, _ = _unit_scaled(pred)
    dt, _ = _unit_scaled(target)
    dp -= dp.mean()
    dt -= dt.mean()
    r = float(dp @ dt) / math.sqrt(float(dp @ dp) * float(dt @ dt))
    r = max(-1.0, min(1.0, r))
    with np.errstate(over="ignore"):  # an overflowing error or result: inf
        err, e = _unit_scaled(pred - target)
        rmse = float(np.ldexp(np.sqrt(np.mean(err ** 2)), e))
        mae = float(np.ldexp(np.mean(np.abs(err)), e))
    return EvalReport(pearson_r=r, rmse=rmse, mae=mae, n=n)
