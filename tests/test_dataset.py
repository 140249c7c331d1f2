import csv
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_parsers_fuzz import csv_texts

from antfis import dataset
from antfis.dataset import (CSV_HEADER, TARGET_NAME, DataSet, FeatureStage,
                            eval_metrics, fit_normalizer, load_dataset,
                            read_csv_table, split, write_csv_table,
                            write_dataset_csv)
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

    def test_write_peak_memory_within_a_block(self, tmp_path):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 20_000,
                                seed=3)
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

    def test_fit_range_maps_into_unit_interval(self):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 200, seed=3)
        norm = fit_normalizer(data)
        X = norm.transform(data.features())
        assert X.min() >= -1e-12 and X.max() <= 1 + 1e-12


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
