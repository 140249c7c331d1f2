"""Node-table ingestion, partitioning, scaling, and fit metrics.

The canonical on-disk format is a UTF-8 CSV with the exact header
``x,y,z,pressure,air_superficial_velocity,air_volume_fraction`` and one
reactor node per row. Feature staging selects a prefix of the five input
columns; the volume fraction is always the regression target.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .shares import _cuts, _in_shares, _share_count

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


_BLOCK_ROWS = 8192
# Bytes of a CSV, at least, that each forked share of its read parses.
_SHARE_BYTES = 1 << 20
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
    C parser (np.loadtxt) reads the rows in shares of at least
    _SHARE_BYTES bytes, one per CPU, all but the first in forked workers
    (see _parse_in_shares); a smaller file is one share, read here.
    Should the header, a share or the checks of the whole table fail,
    _fault names the line at fault, so every error is the same at any
    CPU count. Raises DataError on a missing or empty file or a header
    mismatch; and, with the offending line number, on the grammar faults
    (a byte that is not UTF-8, a row of the wrong width, a cell that is
    not a float), the first in line order, or, if there is none, on the
    first row holding a value fault (a non-finite cell or, when the last
    column is the volume fraction, a target outside [0, 1]). A file
    without data rows is reported as holding no `rows`.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    try:
        with path.open("r", encoding="utf-8") as fh:
            if tuple(h.strip(" \t\n") for h in fh.readline().split(",")) \
                    != header:
                raise _fault(path, header, rows, "")  # names the header
            table = _parse_in_shares(fh.fileno(), len(header))
    except ValueError as exc:  # UnicodeDecodeError too
        raise _fault(path, header, rows, str(exc)) from None
    if len(table) == 0:
        raise DataError(f"{path}: no {rows}")
    bad = (_first_invalid_row(table[:, :-1], table[:, -1])
           if header[-1] == TARGET_NAME else _first_invalid_row(table))
    if bad is not None:
        raise _fault(path, header, rows, bad[1], bad[0])
    return table


def _parse(fh) -> np.ndarray:
    """The rows np.loadtxt reads from the text file `fh`, at least 2-d."""
    with warnings.catch_warnings():
        # a file without data rows is reported by read_csv_table
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


class _Span(io.RawIOBase):
    """Bytes start..stop of the file open at `fd`, read with os.pread,
    which leaves the file's offset alone; ValueError on reading a byte
    that is not ASCII, or is a vertical tab, form feed or separator."""

    def __init__(self, fd: int, start: int, stop: int):
        self.fd, self.at, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.stop - self.at),
                        self.at)
        # numpy's parser strips \v, \f, \x1c-\x1f and non-ASCII spaces
        # around a number; the grammar pads with spaces and tabs only
        if not data.isascii() or any(byte in data
                                     for byte in b"\v\f\x1c\x1d\x1e\x1f"):
            raise ValueError("a vertical tab, form feed, ASCII separator "
                             "or non-ASCII byte in the file")
        buffer[:len(data)] = data
        self.at += len(data)
        return len(data)


def _line_cuts(fd: int, size: int, count: int) -> list[int]:
    """0, ..., size: offsets that cut the file of `size` bytes open at
    `fd` into at most `count` spans, each cut just past the first \\n at
    or after an even share of its bytes. A \\n always ends a line, even
    in \\r\\n, and is never a byte of a longer UTF-8 character; a file
    whose lines end in \\r alone makes one span."""
    cuts = [0]
    for i in range(1, count):
        at = max(i * size // count, cuts[-1])
        chunk = os.pread(fd, io.DEFAULT_BUFFER_SIZE, at)
        while chunk and b"\n" not in chunk:
            at += len(chunk)
            chunk = os.pread(fd, io.DEFAULT_BUFFER_SIZE, at)
        if b"\n" not in chunk:
            break
        at += chunk.index(b"\n") + 1
        if at >= size:
            break
        cuts.append(at)
    return cuts + [size]


def _parse_in_shares(fd: int, width: int) -> np.ndarray:
    """The rows after the header line of the CSV open at `fd`, `width`
    numbers each, parsed in shares of at least _SHARE_BYTES bytes; a
    smaller file makes one share. Raises ValueError if a share holds a
    line of another width or a cell that is not a number, or a byte that
    _Span rejects.

    Each span's lines go to np.loadtxt through a text reader of their
    own, so they give the rows that one reader of the whole file would;
    the first span's reader skips the header line. One span is parsed
    here and its rows are the table. Else share 0 is parsed here while
    each forked worker parses another and replies with its float64 rows,
    all appended in share order to one buffer that the table views.
    """
    size = os.fstat(fd).st_size
    cuts = _line_cuts(fd, size, _share_count(size // _SHARE_BYTES))

    def rows_of(i: int) -> np.ndarray:
        with io.TextIOWrapper(io.BufferedReader(_Span(fd, cuts[i],
                                                      cuts[i + 1])),
                              encoding="utf-8") as text:
            if i == 0:
                text.readline()
            rows = _parse(text)
        if len(rows) and rows.shape[1] != width:
            raise ValueError(f"{rows.shape[1]} columns, not {width}")
        return rows

    def parse(spans: list[int], out) -> None:
        for i in spans:
            out.write(rows_of(i))

    if len(cuts) == 2:  # the buffer would hold a second copy of the rows
        return rows_of(0)
    out = io.BytesIO()
    _in_shares(parse, list(range(len(cuts) - 1)), out)
    return np.frombuffer(out.getbuffer()).reshape(-1, width)


def number_fault(cell: str) -> str | None:
    """Why `cell` is not a number of the grammar, or None if it is one.

    The grammar is what both float() and np.loadtxt accept, padded with
    spaces and tabs only: float() also takes `_` and non-ASCII digits.
    """
    try:
        float(cell)
    except ValueError as exc:
        return str(exc)
    if "_" in cell or not (cell.isascii() and cell.strip(" \t").isprintable()):
        return f"could not convert string to float: {cell!r}"
    return None


def utf8_fault(text: str) -> str | None:
    """Why `text`, decoded with errors="surrogateescape", is not UTF-8
    (naming the first byte that the decoder escaped), or None if it is."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"not UTF-8 text (byte {ord(text[exc.start]) - 0xDC00:#04x})"
    return None


def _numbered_lines(path: str | Path):
    """(number from 1, text without line end, utf8_fault of the text) of
    each line of the text file at `path`; only \\n, \\r\\n and \\r end a line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            yield lineno, line.rstrip("\n"), utf8_fault(line)


def _fault(path: Path, header: tuple[str, ...], rows: str, reason: str,
           row: int | None = None) -> DataError:
    """A DataError naming the first line of the CSV at `path`, in file
    order, that holds a byte that is not UTF-8, a header other than
    `header`, a data line of the wrong width or with a cell that is not a
    number, or is data row `row` (counting the non-empty lines after the
    header from 0), of which `reason` is said. If no line is at fault:
    that the file is empty, that it holds no `rows` if it has no data
    line, or else `reason` (a separator in the header line).

    One plain pass, run only once a read has failed: numpy's and the
    text reader's messages count rows and bytes in their own ways.
    """
    lineno, data_row = 0, -1
    for lineno, line, fault in _numbered_lines(path):
        cells = line.split(",")
        if fault is None and lineno == 1:
            if tuple(h.strip(" \t") for h in cells) != header:
                return DataError(f"{path}: header must be exactly "
                                 f"{','.join(header)}, got {line}")
        elif fault is None and line:
            data_row += 1
            if len(cells) != len(header):
                fault = f"expected {len(header)} columns, got {len(cells)}"
            elif data_row == row:
                fault = reason
            else:
                fault = next(filter(None, map(number_fault, cells)), None)
        if fault is not None:
            return DataError(f"{path}, line {lineno}: {fault}")
    if lineno == 0:
        return DataError(f"{path}: empty file, expected header "
                         f"{','.join(header)}")
    return DataError(f"{path}: {reason if data_row >= 0 else f'no {rows}'}")


def _write_blocks(fh, columns: list[np.ndarray],
                  spans: list[tuple[int, int]]) -> None:
    """Write the rows of each (start, stop) span to the binary file `fh`,
    in the blocks of _row_blocks(stop - start) offset by start, each
    formatted by one %-format call."""
    m = len(columns)
    line = ",".join(["%r"] * m) + "\n"
    for first, last in spans:
        for start, stop in _row_blocks(last - first):
            start, stop = first + start, first + stop
            cells = [None] * ((stop - start) * m)
            for j, col in enumerate(columns):
                cells[j::m] = col[start:stop].tolist()
            fh.write((line * (stop - start) % tuple(cells)).encode("utf-8"))


def write_csv_table(path: str | Path, header: tuple[str, ...],
                    columns) -> None:
    """Write equal-length columns under `header` as a CSV, one value per
    cell at repr precision (ints as ints, floats as repr(float)).

    The rows are cut into spans within one row of each other, one per
    share, with no more shares than _row_blocks(n) has blocks. Each share
    formats its span in blocks of at most _BLOCK_ROWS rows, one %-format
    call each, so no process holds more than one block's values as Python
    objects at once; the bytes never depend on the CPU count. Raises
    ValueError, before the file is opened, unless there is a column per
    header name and all columns have one length.
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
    cuts = _cuts(n, _share_count(len(_row_blocks(n))))
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        _in_shares(lambda spans, out: _write_blocks(out, columns, spans),
                   list(zip(cuts, cuts[1:])), fh)


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
