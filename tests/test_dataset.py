import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antfis.dataset import (CSV_HEADER, DataSet, FeatureStage,
                            apply_normalizer, eval_metrics, fit_normalizer,
                            load_dataset, split, write_dataset_csv)
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
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.5\n"
                        + "1" * 200_000 + ",0,1,1e5,0.1,0.5\n")
        with pytest.raises(DataError, match="line 3: field larger"):
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
        out = apply_normalizer(norm, data)
        X = out.features()
        np.testing.assert_allclose(X[:, 0], [0.0, 1.0])

    def test_linear_map(self):
        data = make_dataset([(1, 0, 1, 1e5, 0.1, 0.1),
                             (2, 1, 2, 2e5, 0.2, 0.2),
                             (3, 2, 3, 3e5, 0.3, 0.3)])
        norm = fit_normalizer(data)
        X = apply_normalizer(norm, data).features()
        np.testing.assert_allclose(X[:, 0], [0.0, 0.5, 1.0])

    def test_out_of_range_not_clipped(self):
        # hand evaluation: (3.5 - 1) / (3 - 1) = 1.25
        train = make_dataset([(1, 0, 1, 1e5, 0.1, 0.1),
                              (3, 1, 2, 2e5, 0.2, 0.2)])
        norm = fit_normalizer(train)
        test = make_dataset([(3.5, 0.5, 1.5, 1.5e5, 0.15, 0.15)])
        X = apply_normalizer(norm, test).features()
        assert X[0, 0] == pytest.approx(1.25, abs=1e-12)

    def test_constant_feature_named(self):
        data = make_dataset([(1, 5, 1, 1e5, 0.1, 0.1),
                             (2, 5, 2, 2e5, 0.2, 0.2)])
        with pytest.raises(DataError, match="'y'"):
            fit_normalizer(data)

    def test_fit_range_maps_into_unit_interval(self):
        data = generate_dataset(ReactorGeometry(), PlumeParams(), 200, seed=3)
        norm = fit_normalizer(data)
        X = apply_normalizer(norm, data).features()
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
