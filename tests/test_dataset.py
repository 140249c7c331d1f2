import csv
import gc
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_parsers_fuzz import csv_texts

from antfis import dataset, shares
from antfis.dataset import (CSV_HEADER, TARGET_NAME, DataSet, EvalReport,
                            FeatureStage, Normalizer, eval_metrics,
                            fit_normalizer, load_dataset, read_csv_table,
                            split, write_csv_table, write_dataset_csv)
from antfis.errors import DataError
from antfis.synthfield import PlumeParams, ReactorGeometry, generate_dataset


def make_dataset(rows, stage=FeatureStage.XYZPV5):
    table = np.array(rows, dtype=float).reshape(-1, 6)
    return DataSet(table[:, :5], table[:, 5], stage)


def make_node(x=0.0, y=0.0, z=1.0, pressure=1e5, velocity=0.1, vf=0.05):
    return make_dataset([(0.0, 0.0, 1.0, 1e5, 0.1, 0.05),
                         (x, y, z, pressure, velocity, vf)])


class TestDataSet:
    def test_volume_fraction_bounds(self):
        with pytest.raises(DataError, match="row 1: air_volume_fraction 1.2"):
            make_node(vf=1.2)
        with pytest.raises(DataError, match="outside"):
            make_node(vf=-0.01)
        assert len(make_node(vf=0.0)) == len(make_node(vf=1.0)) == 2

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="row 1: non-finite"):
            make_node(pressure=float("nan"))
        with pytest.raises(DataError, match="non-finite"):
            make_node(x=float("inf"))
        with pytest.raises(DataError, match="non-finite"):
            make_node(vf=float("nan"))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="targets"):
            DataSet(np.zeros((3, 5)), np.zeros(2), FeatureStage.X1)
        with pytest.raises(ValueError, match="features"):
            DataSet(np.zeros((3, 3)), np.zeros(3), FeatureStage.X1)

    @pytest.mark.parametrize("stage", [FeatureStage.XYZ3, FeatureStage.XYZPV5])
    def test_arrays_cannot_be_written_through(self, stage):
        X = np.arange(10.0).reshape(2, 5)
        ds = DataSet(X, [0.1, 0.2], stage)
        for view in (ds.features(), ds.targets()):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.5
        X[0, 0] = 99.0  # the dataset holds its own copy
        assert ds.features()[0, 0] == 0.0


class TestFeatureStage:
    def test_nesting(self):
        stages = list(FeatureStage)
        for lo, hi in zip(stages, stages[1:]):
            assert set(lo.feature_names) < set(hi.feature_names)
            assert hi.feature_names[: lo.n_features] == lo.feature_names

    def test_from_arity(self):
        assert FeatureStage.from_arity(3) is FeatureStage.XYZ3
        with pytest.raises(ValueError):
            FeatureStage.from_arity(6)

    def test_feature_matrix_arity(self):
        ds = make_dataset([(1, 2, 3, 4, 5, 0.1), (6, 7, 8, 9, 10, 0.2)],
                          FeatureStage.XYZ3)
        assert ds.features().shape == (2, 3)
        np.testing.assert_array_equal(ds.features()[0], [1, 2, 3])


class TestLoadDataset:
    def test_round_trip_1500_rows(self, tmp_path):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 1500, seed=7)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        loaded = load_dataset(path, FeatureStage.XYZPV5)
        assert len(loaded) == 1500
        np.testing.assert_array_equal(loaded.X, data.X)
        np.testing.assert_array_equal(loaded.targets(), data.targets())

    def test_stage5_features_is_a_view(self, tmp_path):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 2100, seed=3)
        path = tmp_path / "nodes.csv"
        write_dataset_csv(data, path)
        loaded = load_dataset(path, FeatureStage.XYZPV5)
        assert np.shares_memory(loaded.features(), loaded.X)
        np.testing.assert_array_equal(loaded.features(), data.X)
        np.testing.assert_array_equal(loaded.y, data.y)

    @pytest.mark.parametrize("stage", list(FeatureStage))
    def test_with_stage_and_split_share_checked_arrays(self, tmp_path, stage):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 50, seed=3)
        path = tmp_path / "nodes.csv"
        write_dataset_csv(data, path)
        loaded = load_dataset(path, FeatureStage.XYZPV5)
        assert loaded.X.base is loaded.y.base  # slices of one table
        staged = loaded.with_stage(stage)
        assert staged.feature_stage is stage
        assert np.shares_memory(loaded.X, staged.X)
        assert np.shares_memory(loaded.y, staged.y)
        for part in (staged, *split(staged, 0.7, seed=1)):
            assert part.feature_stage is stage
            for array in (part.X, part.y):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.csv", FeatureStage.X1)

    def test_header_only_is_no_samples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(DataError, match="no samples"):
            load_dataset(path, FeatureStage.X1)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d,e,f\n1,2,3,4,5,0.5\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path, FeatureStage.X1)

    def test_volume_fraction_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n"
                        "0,0,1,1e5,0.1,0.5\n"
                        "0,0,1,1e5,0.1,1.2\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path, FeatureStage.XYZPV5)

    def test_malformed_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,1,oops,0.1,0.5\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, FeatureStage.XYZPV5)

    def test_non_finite_cell_names_row(self, tmp_path):
        # line numbers count the skipped blank line
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n\n"
                        "0,0,1,1e5,0.1,0.5\n"
                        "0,0,1,inf,0.1,0.5\n")
        with pytest.raises(DataError, match="line 4: non-finite"):
            load_dataset(path, FeatureStage.XYZPV5)

    def test_not_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(",".join(CSV_HEADER).encode() + b"\n\xff,0,1\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_dataset(path, FeatureStage.XYZPV5)

    def test_oversized_field_names_row(self, tmp_path):
        # no field-size limit: 200k digits parse, to inf
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.5\n"
                        + "1" * 200_000 + ",0,1,1e5,0.1,0.5\n")
        with pytest.raises(DataError, match="line 3: non-finite value"):
            load_dataset(path, FeatureStage.XYZPV5)

    def test_writes_repr_precision_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_dataset_csv(make_dataset([(0.1, -0.0, 1.0, 1e5, 1 / 3, 0.05)]),
                          path)
        assert path.read_text() == (",".join(CSV_HEADER) + "\n"
                                    "0.1,-0.0,1.0,100000.0,"
                                    "0.3333333333333333,0.05\n")

    def test_short_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,1\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, FeatureStage.XYZPV5)


def reference_read(path, header):
    """The csv-module parser the numpy reader replaced, as an oracle:
    csv.reader rows, float() per cell, then the finiteness and
    volume-fraction checks. Returns the table or raises DataError."""
    values = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None or tuple(h.strip() for h in got) != header:
                raise DataError("header")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError("width")
                try:
                    values.append([float(cell) for cell in row])
                except ValueError:
                    raise DataError("cell") from None
        except (csv.Error, UnicodeDecodeError):
            raise DataError("csv") from None
    if not values:
        raise DataError("no rows")
    table = np.array(values, dtype=float)
    ok = np.isfinite(table).all()
    if header[-1] == TARGET_NAME:
        ok = ok and bool(((table[:, -1] >= 0) & (table[:, -1] <= 1)).all())
    if not ok:
        raise DataError("invalid")
    return table


def spell(value, fmt, plus, pad):
    text = fmt % value
    if text.startswith("0."):
        text = text[1:]
    elif text.startswith("-0."):
        text = "-" + text[2:]
    if plus and not text.startswith("-"):
        text = "+" + text
    return pad + text + pad


@st.composite
def valid_tables(draw, header):
    """The CSV text of a valid table: mixed float spellings, blank lines
    and one kind of line end."""
    k = len(header)
    feature = st.floats(allow_nan=False, allow_infinity=False)
    target = (st.one_of(st.floats(0.0, 1.0), st.just(-0.0),
                        st.just(5e-324)) if header[-1] == TARGET_NAME
              else feature)
    n = draw(st.integers(1, 6))
    table = np.array([[draw(feature) for _ in range(k - 1)] + [draw(target)]
                      for _ in range(n)], dtype=float)
    how = st.tuples(st.sampled_from(["%r", "%.17g", "%.5e", "%.17G"]),
                    st.booleans(), st.sampled_from(["", " ", "\t"]))
    nl = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for row in table.tolist():
        lines += [""] * draw(st.integers(0, 2))
        lines.append(",".join(spell(v, *draw(how)) for v in row))
    return nl.join(lines) + draw(st.sampled_from(["", nl, nl + nl]))


NARROWED_CELLS = st.sampled_from(
    ["1_0", '"1.5"', "\x1c1", "2\x1f", "١", " 3.5", "\xa02", "+.5",
     "-0.0", "1e400", "0.25", "5e-324"])


@st.composite
def odd_csv_texts(draw, header):
    """The right header, then rows that mix plain numbers with cells that
    float() and np.loadtxt read differently."""
    rows = draw(st.lists(st.lists(NARROWED_CELLS, min_size=len(header) - 1,
                                  max_size=len(header) + 1), max_size=4))
    nl = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return nl.join([",".join(header)] + [",".join(r) for r in rows]) + nl


HEADERS = [CSV_HEADER, FeatureStage.X1.feature_names,
           FeatureStage.XYZ3.feature_names]
ORACLE = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReadCsvTable:
    @pytest.mark.parametrize("header", HEADERS)
    @ORACLE
    @given(data=st.data())
    def test_valid_tables_load_bit_identical(self, tmp_path, header, data):
        path = tmp_path / "valid.csv"
        path.write_text(data.draw(valid_tables(header)), encoding="utf-8",
                        newline="")
        got = read_csv_table(path, header, "rows")
        ref = reference_read(path, header)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("header", HEADERS)
    @ORACLE
    @given(data=st.data())
    def test_accepts_no_more_than_the_csv_parser(self, tmp_path, header,
                                                  data):
        text = data.draw(st.one_of(csv_texts(header), odd_csv_texts(header)))
        path = tmp_path / "odd.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            got = read_csv_table(path, header, "rows")
        except DataError:
            return
        ref = reference_read(path, header)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("line, message", [
        ("0,0,1,oops,0.1,0.5", "could not convert string to float: 'oops'"),
        ("0,0,1", "expected 6 columns, got 3"),
        ("0,0,1,1e5,0.1,1.2", f"{TARGET_NAME} 1.2 outside \\[0, 1\\]"),
        ("0,0,1,1e5,nan,0.5", "non-finite value"),
        ("   ", "expected 6 columns, got 1"),
    ])
    @pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
    def test_fault_after_blank_lines_names_its_line(self, tmp_path, line,
                                                     message, nl):
        path = tmp_path / "bad.csv"
        path.write_text(nl.join([",".join(CSV_HEADER), "0,0,1,1e5,0.1,0.5",
                                 "", "", line, "0,0,1,1e5,0.1,0.5"]) + nl,
                        encoding="utf-8", newline="")
        with pytest.raises(DataError, match=f"bad.csv, line 5: {message}"):
            read_csv_table(path, CSV_HEADER, "samples")

    def test_line_of_spaces_in_points_names_its_line(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x\n0.5\n   \n0.25\n")
        with pytest.raises(DataError, match="line 3: could not convert "
                                            "string to float: '   '"):
            read_csv_table(path, ("x",), "points")

    @pytest.mark.parametrize("cell", ['"1.5"', "1_0", "١", "\x1c1"])
    def test_narrowed_grammar(self, tmp_path, cell):
        # The csv-module parser took a quoted cell, digit-group underscores
        # and non-ASCII digits; numpy's parser takes \x1c-\x1f as spaces.
        # The grammar is both parsers' common ground.
        path = tmp_path / "points.csv"
        path.write_text(f"x\n0.5\n{cell}\n", encoding="utf-8")
        if cell != "\x1c1":
            assert reference_read(path, ("x",)).shape == (2, 1)
        with pytest.raises(DataError, match=r"line 3: could not convert "):
            read_csv_table(path, ("x",), "points")

    def test_separator_in_header_only_names_the_file(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x\x1c\n0.5\n")
        with pytest.raises(DataError, match=r"points.csv: ASCII separator"):
            read_csv_table(path, ("x",), "points")

    def test_first_row_of_wrong_width_names_its_line(self, tmp_path):
        # every row of the same wrong width: np.loadtxt itself succeeds
        path = tmp_path / "points.csv"
        path.write_text("x,y\n\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match="line 3: expected 2 columns, "
                                            "got 3"):
            read_csv_table(path, ("x", "y"), "points")

    def test_load_peak_memory_near_the_table(self, tmp_path):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 20_000,
                                seed=3)
        path = tmp_path / "nodes.csv"
        write_dataset_csv(data, path)
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_dataset(path, FeatureStage.XYZPV5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the reader has checked every row, so the DataSet keeps the
        # table's columns: no second copy and no second check
        assert peak <= 1.5 * (loaded.X.nbytes + loaded.y.nbytes)


class TestWriteCsvTable:
    def reference_write(self, path, header, columns):
        """The per-row writer the block writer replaced."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*columns):
                fh.write(",".join(repr(v) for v in row) + "\n")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(0, 12), m=st.integers(1, 4), seed=st.integers(0, 99))
    def test_same_bytes_as_per_row_writer(self, tmp_path, monkeypatch, n, m,
                                          seed):
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", 5)
        rng = np.random.default_rng(seed)
        pool = np.array([0.1, -0.0, 1 / 3, 1e16, 1e-5, 5e-324, 1e300,
                         np.inf, np.nan, 2.0, -7.25e-310])
        floats = [rng.choice(pool, n) * rng.choice([1.0, rng.random()])
                  for _ in range(m)]
        ints = rng.integers(-5, 10**6, n)
        header = tuple(f"c{j}" for j in range(m + 1))
        write_csv_table(tmp_path / "new.csv", header, [ints, *floats])
        self.reference_write(tmp_path / "old.csv", header,
                             [ints.tolist()] + [f.tolist() for f in floats])
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_write_peak_memory_within_a_block(self, tmp_path, monkeypatch):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 20_000,
                                seed=3)
        # one CPU: all three blocks are formatted in this, the traced,
        # process, none in a forked child
        monkeypatch.setattr(shares, "_cpu_count", lambda: 1)
        # one block of 8192 rows as the writer holds it: Python floats
        block = 8192 * 6 * (sys.getsizeof(0.0) + 8)
        gc.collect()
        tracemalloc.start()
        try:
            write_dataset_csv(data, tmp_path / "nodes.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * block

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads VmHWM from /proc/self/status")
    def test_forked_children_memory_within_blocks(self, tmp_path):
        # With two CPUs one forked child formats half of the rows. Its
        # peak RSS must stay below the interpreter's own peak before the
        # write plus three blocks of Python floats (4.5 MiB). That peak is
        # VmHWM: a process started by exec keeps in its ru_maxrss the peak
        # of the process that started it, here the test runner. A child
        # starts below the peak (measured: about 9 MiB, the file-backed
        # pages it does not touch again), so a child that held its whole
        # share of 150,000 rows as Python floats, 150,000 * 6 * 32 B =
        # 27.5 MiB, would end about 18 MiB above it: four times the margin.
        n = 300_000
        block = 8192 * 6 * (sys.getsizeof(0.0) + 8)
        script = (
            "import re, resource, numpy as np\n"
            "from antfis import dataset, shares\n"
            "shares._cpu_count = lambda: 2\n"
            f"columns = np.random.default_rng(0).random((6, {n}))\n"
            "with open('/proc/self/status') as fh:\n"
            "    before = re.search(r'VmHWM:\\s*(\\d+)', fh.read())[1]\n"
            f"dataset.write_csv_table({str(tmp_path / 't.csv')!r}, "
            "dataset.CSV_HEADER, columns)\n"
            "print(before, "
            "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        src = str(Path(dataset.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        before, children = (1024 * int(kib) for kib in proc.stdout.split())
        assert 0 < children < before + 3 * block


def columns_of(n):
    """An int column and two float columns of n rows whose reprs vary in
    length, as the writer's inputs."""
    rng = np.random.default_rng(n)
    return [np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(
        -300, 300, n), rng.random(n)]


class TestWriteInShares:
    """write_csv_table with the blocks cut into shares, all but the first
    formatted by forked children."""

    B = 5  # rows per block

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", self.B)

    def write(self, path, n, cpus, monkeypatch):
        monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
        write_csv_table(path, ("i", "a", "b"), columns_of(n))
        return path.read_bytes()

    @staticmethod
    def no_fork():
        raise AssertionError("forked")

    def assert_no_child_left(self):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1,
                                   3 * B + 7])
    def test_same_bytes_as_in_process(self, tmp_path, monkeypatch, n, cpus):
        expected = self.write(tmp_path / "one.csv", n, 1, monkeypatch)
        assert self.write(tmp_path / "many.csv", n, cpus,
                          monkeypatch) == expected
        self.assert_no_child_left()

    def test_forks_one_child_per_other_share(self, tmp_path, monkeypatch):
        parent, forks = os.getpid(), []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if os.getpid() == parent:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        self.write(tmp_path / "t.csv", 3 * self.B + 7, 3, monkeypatch)
        assert len(forks) == 2
        self.assert_no_child_left()

    @pytest.mark.parametrize("n", [1, B])
    def test_one_block_never_forks(self, tmp_path, monkeypatch, n):
        expected = self.write(tmp_path / "one.csv", n, 1, monkeypatch)
        monkeypatch.setattr(os, "fork", self.no_fork)
        assert self.write(tmp_path / "t.csv", n, 4, monkeypatch) == expected

    def test_second_thread_keeps_write_in_process(self, tmp_path,
                                                  monkeypatch):
        n = 3 * self.B + 7
        expected = self.write(tmp_path / "one.csv", n, 1, monkeypatch)
        monkeypatch.setattr(os, "fork", self.no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = self.write(tmp_path / "t.csv", n, 2, monkeypatch)
        finally:
            release.set()
            thread.join()
        assert got == expected

    @pytest.mark.parametrize("how", ["raise", "kill", "no fork",
                                     "no temp file"])
    def test_failed_child_gives_same_bytes(self, tmp_path, monkeypatch,
                                           how):
        n = 3 * self.B + 7
        expected = self.write(tmp_path / "one.csv", n, 1, monkeypatch)
        parent, real_write = os.getpid(), dataset._write_blocks

        def failing_in_child(fh, columns, blocks):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child fails")
            real_write(fh, columns, blocks)

        def failing(*args, **kwargs):
            raise OSError(how)

        if how == "no fork":
            monkeypatch.setattr(os, "fork", failing)
        if how == "no temp file":
            monkeypatch.setattr(tempfile, "TemporaryFile", failing)
        monkeypatch.setattr(dataset, "_write_blocks", failing_in_child)
        assert self.write(tmp_path / "t.csv", n, 3, monkeypatch) == expected
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [ZeroDivisionError("share fails"),
                                       KeyboardInterrupt()])
    def test_error_keeps_its_type_and_leaves_nothing(self, tmp_path,
                                                     monkeypatch, error):
        tmp_dir = tmp_path / "tmp"
        tmp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_dir))
        parent = os.getpid()

        def failing(fh, columns, blocks):
            if os.getpid() == parent:
                raise error
            time.sleep(60)  # a slow child, ended by the parent

        monkeypatch.setattr(dataset, "_write_blocks", failing)
        fds = len(os.listdir("/proc/self/fd")) if sys.platform == "linux" \
            else None
        with pytest.raises(type(error), match=str(error) or None):
            self.write(tmp_path / "t.csv", 3 * self.B + 7, 3, monkeypatch)
        self.assert_no_child_left()
        assert list(tmp_dir.iterdir()) == []
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds

    def test_bad_columns_fail_before_the_file_is_opened(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "t.csv"
        monkeypatch.setattr(os, "fork", self.no_fork)
        with pytest.raises(ValueError, match="no columns"):
            write_csv_table(path, (), [])
        with pytest.raises(ValueError, match="2 header names but 3"):
            write_csv_table(path, ("a", "b"), [[1], [2], [3]])
        with pytest.raises(ValueError, match="column 'c' holds 11 values, "
                                             "column 'a' 12"):
            write_csv_table(path, ("a", "b", "c", "d"),
                            [range(12), range(12), range(11), range(10)])
        assert not path.exists()


class TestSplit:
    def test_1500_at_70_percent(self):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 1500, seed=7)
        train, test = split(data, 0.70, seed=1)
        assert len(train) == 1050
        assert len(test) == 450

    def test_n10_p07(self):
        data = make_dataset([(i, 0, 1, 1e5, 0.1, 0.1) for i in range(10)])
        train, test = split(data, 0.70, seed=3)
        assert len(train) == 7
        # disjoint cover, verified by enumerating the original rows
        combined = sorted(np.concatenate([train.X[:, 0], test.X[:, 0]]))
        assert combined == sorted(float(i) for i in range(10))

    def test_determinism(self):
        data = make_dataset([(i, 0, 1, 1e5, 0.1, 0.1) for i in range(10)])
        a = split(data, 0.5, seed=11)
        b = split(data, 0.5, seed=11)
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a.X, part_b.X)
            np.testing.assert_array_equal(part_a.y, part_b.y)

    def test_p_out_of_range(self):
        data = make_dataset([(i, 0, 1, 1e5, 0.1, 0.1) for i in range(4)])
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(data, p, seed=0)

    def test_one_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            split(make_dataset([(0, 0, 1, 1e5, 0.1, 0.1)]), 0.5, seed=0)

    @given(n=st.integers(2, 60), p=st.floats(0.05, 0.95), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, p, seed):
        data = make_dataset([(i, 0, 1, 1e5, 0.1, 0.1) for i in range(n)])
        train, test = split(data, p, seed)
        assert len(train) == int(round(p * n))
        ids = sorted(np.concatenate([train.X[:, 0], test.X[:, 0]]))
        assert ids == [float(i) for i in range(n)]


class TestNormalizer:
    def test_endpoints(self):
        data = make_dataset([(0.5, 0, 1, 1e5, 0.1, 0.1),
                             (2.6, 1, 2, 2e5, 0.2, 0.2)])
        norm = fit_normalizer(data)
        X = norm.transform(data.features())
        np.testing.assert_allclose(X[:, 0], [0.0, 1.0])

    def test_linear_map(self):
        data = make_dataset([(1, 0, 1, 1e5, 0.1, 0.1),
                             (2, 1, 2, 2e5, 0.2, 0.2),
                             (3, 2, 3, 3e5, 0.3, 0.3)])
        norm = fit_normalizer(data)
        X = norm.transform(data.features())
        np.testing.assert_allclose(X[:, 0], [0.0, 0.5, 1.0])

    def test_out_of_range_not_clipped(self):
        # hand evaluation: (3.5 - 1) / (3 - 1) = 1.25
        train = make_dataset([(1, 0, 1, 1e5, 0.1, 0.1),
                              (3, 1, 2, 2e5, 0.2, 0.2)])
        norm = fit_normalizer(train)
        test = make_dataset([(3.5, 0.5, 1.5, 1.5e5, 0.15, 0.15)])
        X = norm.transform(test.features())
        assert X[0, 0] == pytest.approx(1.25, abs=1e-12)

    def test_constant_feature_named(self):
        data = make_dataset([(1, 5, 1, 1e5, 0.1, 0.1),
                             (2, 5, 2, 2e5, 0.2, 0.2)])
        with pytest.raises(DataError, match="'y'"):
            fit_normalizer(data)

    def test_span_overflowing_a_float_named(self):
        data = make_dataset([(1, -1e308, 1, 1e5, 0.1, 0.1),
                             (2, 1e308, 2, 2e5, 0.2, 0.2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="feature 'y' spans more "
                                                "than a float holds"):
                fit_normalizer(data)

    @pytest.mark.parametrize("mins, maxs, match", [
        ([0.0, -1e308], [1.0, 1e308], "feature 'y' spans more than a float"),
        ([0.0, 2.0], [1.0, 2.0], r"feature 'y' is constant over the "
                                 r"training rows \(2.0\)"),
        ([0.0, 1.0], [1.0, 0.0], "feature 'y' needs a finite min below "
                                 "its max, got 1.0 and 0.0"),
        ([math.nan, 0.0], [1.0, 1.0], "feature 'x' needs a finite min"),
        ([-math.inf, 0.0], [math.inf, 1.0], "feature 'x' needs a finite"),
        ([0.0], [1.0], "one min and one max for each of the 2 features")])
    def test_unscalable_normalizer_rejected_without_warning(self, mins, maxs,
                                                           match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=match):
                Normalizer(("x", "y"), np.array(mins), np.array(maxs))

    def test_empty_share_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer(make_dataset([]))

    def test_fit_range_maps_into_unit_interval(self):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 200, seed=3)
        norm = fit_normalizer(data)
        X = norm.transform(data.features())
        assert X.min() >= -1e-12 and X.max() <= 1 + 1e-12


def first_invalid_row_oracle(X, y=None):
    """The row check as a plain loop over the rows."""
    for i in range(len(X)):
        if not all(math.isfinite(v) for v in X[i]) \
                or (y is not None and not math.isfinite(y[i])):
            return i, "non-finite value"
        if y is not None and not 0.0 <= y[i] <= 1.0:
            return i, f"{TARGET_NAME} {float(y[i])!r} outside [0, 1]"
    return None


class TestFirstInvalidRow:
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           data=st.data(), with_targets=st.booleans(),
           value=st.sampled_from([math.nan, math.inf, -math.inf, -1e-300,
                                  -0.5, 1.0 + 2**-52, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_planted_fault_matches_row_loop(self, n, seed, data,
                                            with_targets, value):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 5)) * 1e3
        y = rng.random(n) if with_targets else None
        row = data.draw(st.integers(0, n - 1), label="row")
        in_targets = with_targets and data.draw(st.booleans(),
                                                label="in_targets")
        if in_targets:
            y[row] = value
        elif math.isfinite(value):
            X[row] = value  # a finite feature is no fault: the table passes
        else:
            X[row, data.draw(st.integers(0, 4), label="column")] = value
        got = dataset._first_invalid_row(X, y)
        assert got == first_invalid_row_oracle(X, y)
        if in_targets or not math.isfinite(value):
            assert got[0] == row


class TestEvalReport:
    @pytest.mark.parametrize("field, value", [
        ("pearson_r", 1.5), ("pearson_r", -1.5), ("pearson_r", math.nan),
        ("rmse", -1e-300), ("rmse", math.nan), ("mae", -1.0),
        ("mae", math.nan), ("n", 1)])
    def test_value_out_of_range_rejected(self, field, value):
        fields = dict(pearson_r=0.5, rmse=0.1, mae=0.1, n=2)
        with pytest.raises(ValueError, match="EvalReport: need"):
            EvalReport(**{**fields, field: value})

    def test_overflowing_errors_allowed(self):
        report = EvalReport(pearson_r=-1.0, rmse=math.inf, mae=math.inf, n=2)
        assert report.rmse == report.mae == math.inf


class TestEvalMetrics:
    def test_identity(self):
        rep = eval_metrics([0.1, 0.4, 0.9], [0.1, 0.4, 0.9])
        assert rep.pearson_r == pytest.approx(1.0)
        assert rep.rmse == 0.0
        assert rep.mae == 0.0
        assert rep.n == 3

    def test_anticorrelation(self):
        t = np.array([-1.0, 0.0, 1.0])
        rep = eval_metrics(-t, t)
        assert rep.pearson_r == pytest.approx(-1.0)

    def test_hand_formula(self):
        # independent spreadsheet-style computation of r for (1,2,3) vs (2,4,7)
        pred = np.array([1.0, 2.0, 3.0])
        target = np.array([2.0, 4.0, 7.0])
        dp = pred - pred.mean()
        dt = target - target.mean()
        expected_r = (dp * dt).sum() / math.sqrt((dp**2).sum() * (dt**2).sum())
        rep = eval_metrics(pred, target)
        assert rep.pearson_r == pytest.approx(expected_r, abs=1e-15)
        assert rep.rmse == pytest.approx(
            math.sqrt(((pred - target) ** 2).mean()), abs=1e-15)
        assert rep.mae == pytest.approx(np.abs(pred - target).mean(), abs=1e-15)

    def test_zero_variance_errors(self):
        with pytest.raises(DataError, match="zero-variance"):
            eval_metrics([1.0, 2.0], [3.0, 3.0])
        with pytest.raises(DataError, match="zero-variance"):
            eval_metrics([1.0, 1.0], [3.0, 4.0])

    def test_constant_side_whose_mean_rounds(self):
        # mean([0.1] * 3) != 0.1, so a variance about the mean is nonzero
        with pytest.raises(DataError, match="the predictions are all equal"):
            eval_metrics([0.1] * 3, [0.2, 0.3, 0.4])
        with pytest.raises(DataError, match="the targets are all equal"):
            eval_metrics([0.2, 0.3, 0.4], [0.1] * 3)

    def test_underflowing_spreads(self):
        # the product of the squared spreads, 2.5e-401, underflows to 0;
        # R ignores the scale
        assert eval_metrics([0.0, 1e-100], [0.0, 1e-100]).pearson_r == 1.0

    def test_overflowing_spreads(self):
        assert eval_metrics([0.0, 1e200], [1e200, 0.0]).pearson_r == -1.0
        # each sum is finite, their product is not; R ignores the scale
        pred = np.array([1e100, 2e100, 0.0])
        target = np.array([1e100, 3e100, 0.0])
        r = eval_metrics(pred, target).pearson_r
        assert r == eval_metrics(pred / 2e100, target / 3e100).pearson_r
        assert r == pytest.approx(math.sqrt(27.0 / 28.0), rel=1e-12)

    def test_overflowing_error_sums(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = eval_metrics([0.0, 1e200], [1e200, 0.0])
            assert (rep.rmse, rep.mae) == (1e200, 1e200)
            # each error is finite near 1.6e308, their sums are not
            pred = np.array([1.5e308, 1.7e308, 1.6e308])
            target = np.array([0.0, 1.0, 2.0])
            rep = eval_metrics(pred, target)
        unit = pred / 1.7e308
        assert rep.mae == pytest.approx(1.7e308 * np.mean(unit), rel=1e-15)
        assert rep.rmse == pytest.approx(
            1.7e308 * np.sqrt(np.mean(unit ** 2)), rel=1e-15)
        assert math.isfinite(rep.rmse) and rep.rmse >= rep.mae

    def test_underflowing_error_squares(self):
        # the squared errors, near 1e-340, underflow; the statistics do not
        rep = eval_metrics([1e-170, 1e-160, 2e-160], [0.0, 1e-160, 2e-160])
        assert rep.rmse >= rep.mae > 0.0
        assert rep.rmse == pytest.approx(1e-170 / math.sqrt(3.0), rel=1e-15)
        assert rep.mae == pytest.approx(1e-170 / 3.0, rel=1e-15)

    @given(seed=st.integers(0, 10_000), k=st.integers(-1000, 1000))
    @settings(max_examples=100, deadline=None)
    def test_exact_power_of_two_scale_equivariance(self, seed, k):
        rng = np.random.default_rng(seed)
        pred, target = rng.random(20), rng.random(20)
        scaled_pred, scaled_target = np.ldexp(pred, k), np.ldexp(target, k)
        # only inputs and errors that 2**k scales exactly (none subnormal)
        for unscaled, scaled in ((pred, scaled_pred), (target, scaled_target),
                                 (pred - target, scaled_pred - scaled_target)):
            assume(np.array_equal(np.ldexp(scaled, -k), unscaled))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = eval_metrics(pred, target)
            rep = eval_metrics(scaled_pred, scaled_target)
        assert rep.pearson_r == base.pearson_r
        assert rep.rmse == np.ldexp(base.rmse, k)
        assert rep.mae == np.ldexp(base.mae, k)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_is_data_error(self, bad):
        with pytest.raises(DataError, match="predictions hold a non-finite"):
            eval_metrics([0.0, bad, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(DataError, match="targets hold a non-finite"):
            eval_metrics([0.0, 1.0, 2.0], [0.0, bad, 1.0])

    def test_length_preconditions(self):
        with pytest.raises(ValueError):
            eval_metrics([1.0], [2.0])
        with pytest.raises(ValueError):
            eval_metrics([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(a=st.floats(0.01, 100.0), b=st.floats(-50.0, 50.0),
           seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance_of_r(self, a, b, seed):
        rng = np.random.default_rng(seed)
        pred = rng.random(20)
        target = rng.random(20)
        r0 = eval_metrics(pred, target).pearson_r
        r1 = eval_metrics(a * pred + b, target).pearson_r
        assert r1 == pytest.approx(r0, abs=1e-12)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_rmse_dominates_mae(self, seed):
        rng = np.random.default_rng(seed)
        rep = eval_metrics(rng.random(15), rng.random(15))
        assert rep.rmse >= rep.mae >= 0.0
        assert abs(rep.pearson_r) <= 1.0
