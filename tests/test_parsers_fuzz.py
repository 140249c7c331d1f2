"""Fuzz the three file parsers (node CSV, points CSV, model file) and the
numeric flags of `train`.

Whatever text or bytes a file holds, a parser either returns or raises
DataError, and the command line maps every such failure to exit 2.
Whatever values the flags take, `train` exits 0, 1, 2 or 3 and never
raises, and a usage error (exit 1) names a flag.
"""

import contextlib
import io
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antfis.cli import run
from antfis.dataset import (CSV_HEADER, FeatureStage, load_dataset,
                            read_csv_table, write_dataset_csv)
from antfis.errors import DataError
from antfis.synthfield import PlumeParams, ReactorGeometry, generate_dataset
from antfis.trainer import load_model

# Warnings are errors, but for deprecations raised in the test tools.
pytestmark = [pytest.mark.filterwarnings("error"),
              pytest.mark.filterwarnings("default::DeprecationWarning")]

# A valid stage-1 model file, the base the model fuzzer mutates.
MODEL = """antfis-model v3

[config]
p = 0.7
stage = 1
n_rules = 2
seed = 3
split_seed = none
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

NODES = (",".join(CSV_HEADER) + "\n0.01,0,1,1e5,0.1,0.05\n"
         "-0.02,0,2,2e5,0.2,0.1\n")
POINT_HEADER = FeatureStage.X1.feature_names

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Huge, tiny and subnormal magnitudes reach the scaler's and the
# metrics' arithmetic; a numpy warning there fails the test.
HUGE_AND_TINY = ["1e308", "-1e308", "1.7976931348623157e308", "5e-324",
                 "1e-300"]
CELLS = st.sampled_from(["0", "1", "0.5", "-1e5", "1.2", "-0.01", "nan",
                         "inf", "-inf", "1e400", "", " ", "x", '"', '"1"',
                         "1,2", "\x00", "é", *HUGE_AND_TINY])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
ODD_VALUES = ("", "x", "nan", "-1", "0", "0.125", "1e400", "-1e400", "1,2",
              "99", "none", "true", *HUGE_AND_TINY)


@st.composite
def csv_texts(draw, header):
    """CSV-shaped text: a right or mangled header, then rows of odd cells."""
    head = draw(st.sampled_from([",".join(header), ",".join(header[:-1]),
                                 ",".join(reversed(header)), ""]))
    rows = draw(st.lists(st.lists(CELLS, max_size=len(header) + 1),
                         max_size=6))
    nl = draw(NEWLINES)
    return nl.join([head] + [",".join(r) for r in rows]) + draw(
        st.sampled_from(["", nl, nl + nl]))


@st.composite
def model_texts(draw):
    """The valid model file with a line dropped, a value replaced, or cut."""
    lines = MODEL.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "value", "cut", "junk"]))
    if how == "drop":
        del lines[i]
    elif how == "value":
        i = draw(st.sampled_from([j for j, line in enumerate(lines)
                                  if " = " in line]))
        key = lines[i].partition(" = ")[0]
        lines[i] = f"{key} = {draw(st.sampled_from(ODD_VALUES))}"
    elif how == "cut":
        return MODEL[:draw(st.integers(0, len(MODEL)))]
    else:
        lines.insert(i, draw(st.text(max_size=20)))
    return "\n".join(lines)


def any_content(structured):
    return st.one_of(structured, st.text(max_size=200),
                     st.binary(max_size=200))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "model.txt").write_text(MODEL)
    (root / "nodes.csv").write_text(NODES)
    return root


def write(path, content):
    path.write_bytes(content if isinstance(content, bytes)
                     else content.encode("utf-8"))


def parses(parse, path) -> bool:
    """True if `parse(path)` returns; False if it raises DataError."""
    try:
        parse(path)
    except DataError:
        return False
    return True


def cli_code(*argv) -> int:
    return cli_run(*argv)[0]


def cli_run(*argv) -> tuple[int, str]:
    """Exit code and stderr of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        return run([str(a) for a in argv]), err.getvalue()


@FUZZ
@given(content=any_content(csv_texts(CSV_HEADER)))
def test_node_csv(files, content):
    path = files / "fuzz-nodes.csv"
    write(path, content)
    ok = parses(lambda p: load_dataset(p, FeatureStage.X1), path)
    code = cli_code("eval", "--model", files / "model.txt", "--data", path)
    assert code in ((0, 2) if ok else (2,))


@FUZZ
@given(content=any_content(csv_texts(POINT_HEADER)))
def test_points_csv(files, content):
    path = files / "fuzz-points.csv"
    write(path, content)
    ok = parses(lambda p: read_csv_table(p, POINT_HEADER, "points"), path)
    code, err = cli_run("predict", "--model", files / "model.txt",
                        "--points", path, "--out", files / "preds.csv")
    if ok and code == 2:  # a point too far outside the training range
        assert "the predictions hold a non-finite value" in err, err
    else:
        assert code == (0 if ok else 2)


@FUZZ
@given(content=any_content(model_texts()))
def test_model_file(files, content):
    path = files / "fuzz-model.txt"
    write(path, content)
    ok = parses(load_model, path)
    code = cli_code("eval", "--model", path, "--data", files / "nodes.csv")
    assert code in ((0, 2) if ok else (2,))


def test_model_file_every_value_replaced(files):
    # Random draws rarely hit one key with one bad value, so try them all.
    lines = MODEL.splitlines()
    path = files / "mutated-model.txt"
    for i, line in enumerate(lines):
        if " = " not in line:
            continue
        key = line.partition(" = ")[0]
        for value in ODD_VALUES:
            path.write_text("\n".join(lines[:i] + [f"{key} = {value}"]
                                      + lines[i + 1:]))
            ok = parses(load_model, path)
            code = cli_code("eval", "--model", path, "--data",
                            files / "nodes.csv")
            assert code in ((0, 2) if ok else (2,)), (key, value, code)


# Flag values: signs, zero, NaN, infinities, extremes and ordinary values,
# as text, plus any float hypothesis draws. The counts whose cost grows
# with their value (--ants, --archive-size, --iters, --threads) stay small:
# no check rejects a large one, so a huge draw would only run long.
ODD_FLOATS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0.0", "-0.5", "-1",
                     "5e-324", "1e-300", "1e-160", "0.05", "0.1", "0.5",
                     "0.85", "0.999", "1", "1.5", "1e200", "1e308",
                     "1.7976931348623157e308", "-1e308", "1e400"]),
    st.floats().map(repr))
TRAIN_FLAGS = {
    "--p": ODD_FLOATS,
    "--q": ODD_FLOATS,
    "--xi": ODD_FLOATS,
    "--rules": st.one_of(st.integers(-3, 12),
                         st.sampled_from([10 ** 6, 10 ** 30])),
    "--archive-size": st.integers(-3, 30),
    "--ants": st.integers(-3, 8),
    "--threads": st.integers(-3, 4),  # never ask for many threads
}


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "nodes.csv"
    write_dataset_csv(generate_dataset(ReactorGeometry(), PlumeParams(), 60,
                                       seed=11), path)
    return path


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.fixed_dictionaries({"--iters": st.integers(-3, 2)},
                                   optional=TRAIN_FLAGS))
def test_train_flags(train_csv, tmp_path_factory, flags):
    out = tmp_path_factory.getbasetemp() / "flag-fuzz-model.txt"
    code, err = cli_run("train", "--data", train_csv, "--out", out,
                        *(f"{flag}={value}" for flag, value in flags.items()))
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert any(flag in err for flag in flags), err
    if any(not math.isfinite(float(value)) for flag, value in flags.items()
           if flag in ("--p", "--q", "--xi")):
        assert code != 0
