import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from antfis import aco, cli, dataset, rng, shares, trainer
from antfis.cli import run
from antfis.dataset import CSV_HEADER, FeatureStage, load_dataset
from antfis.errors import NumericError
from antfis.trainer import load_model


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "nodes.csv"
    assert run(["gen-data", "--n", "240", "--seed", "5",
                "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, data_csv):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    code = run(["train", "--data", str(data_csv), "--stage", "5",
                "--ants", "6", "--iters", "4", "--rules", "3",
                "--archive-size", "8", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def overflow_model(tmp_path_factory, model_file):
    """model_file with rule outputs of +-1e308 per scaled feature: they
    overflow to +-inf, and a row that both rules fire on predicts
    inf - inf = NaN."""
    text = model_file.read_text()
    for rule, big in (("0", "1e308"), ("1", "-1e308")):
        head, _, rest = text.partition(f"[rule {rule}]")
        coeff = rest.index("coeff = ")
        end = rest.index("\n", coeff)
        text = (head + f"[rule {rule}]" + rest[:coeff] + "coeff = "
                + ",".join([big] * 5 + ["0.0"]) + rest[end:])
    path = tmp_path_factory.mktemp("overflow") / "model.txt"
    path.write_text(text)
    return path


def same_bytes_at_blas_threads_1_and_2(tmp_path, *argv):
    """True if `antfis *argv --out FILE`, each run in a fresh interpreter,
    writes the same FILE with BLAS at 1 thread as at 2."""
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.out"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-m", "antfis", *argv,
                               "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        files.append(out.read_bytes())
    return files[0] == files[1]


def invoke_warning_free(capsys, *argv):
    """invoke, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return invoke(capsys, *argv)


# x values so far outside the training range that a prediction there is
# not finite: x**2 overflows, or x itself overflows when scaled
FAR_X = pytest.mark.parametrize("far", ["1e200", "1e308"])
FAR_MESSAGE = "non-finite value (a row too far outside the training range"


def with_far_row(data_csv, far, tmp_path):
    """A copy of the node table data_csv with one more row, at x = far."""
    path = tmp_path / "far.csv"
    path.write_text(data_csv.read_text() + f"{far},0,1,1e5,0.1,0.05\n")
    return path


class TestGenData:
    def test_writes_canonical_schema(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, _ = invoke(capsys, "gen-data", "--n", "50", "--seed",
                                 "7", "--out", str(out))
        assert code == 0
        assert "50 rows" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 51

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(capsys, "gen-data", "--n", "80", "--seed", "9", "--out", str(a))
        invoke(capsys, "gen-data", "--n", "80", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_params_file_and_flag_priority(self, capsys, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("noise_sd = 0\nalpha_max = 0.3  # peak\n")
        out = tmp_path / "d.csv"
        code, _, _ = invoke(capsys, "gen-data", "--n", "60", "--seed", "1",
                            "--out", str(out), "--params", str(params),
                            "--alpha-max", "0.4")
        assert code == 0
        data = load_dataset(out, FeatureStage.XYZPV5)
        # flag overrides the file: noiseless peak reaches 0.4, not 0.3
        assert data.targets().max() == pytest.approx(0.4, abs=0.05)

    def test_overflowing_pressure_exits_1_naming_flags_and_row(self, capsys,
                                                               tmp_path):
        out = tmp_path / "d.csv"
        code, _, err = invoke(capsys, "gen-data", "--n", "10", "--out",
                              str(out), "--rho-liquid", "1e308")
        assert code == 1
        assert "row 0: non-finite value" in err
        assert "--p-atm, --rho-liquid, --g, --height, --sigma0 or " \
            "--spread" in err
        assert not out.exists()

    def test_bad_params_file(self, capsys, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("unknown_thing = 3\n")
        code, _, err = invoke(capsys, "gen-data", "--n", "10", "--out",
                              str(tmp_path / "d.csv"), "--params", str(params))
        assert code == 2
        assert "error:" in err


class TestTrain:
    def test_metrics_line_and_model_file(self, capsys, data_csv, tmp_path):
        out = tmp_path / "m.txt"
        code, stdout, _ = invoke(capsys, "train", "--data", str(data_csv),
                                 "--stage", "3", "--ants", "5", "--iters", "3",
                                 "--rules", "3", "--seed", "2",
                                 "--out", str(out))
        assert code == 0
        assert stdout.startswith("train_R=")
        assert "test_R=" in stdout
        model = load_model(out)
        assert model.config.stage is FeatureStage.XYZ3
        assert model.config.aco.n_ants == 5

    def test_byte_identical_reruns_and_threads(self, capsys, data_csv,
                                               tmp_path):
        files = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"{name}.txt"
            invoke(capsys, "train", "--data", str(data_csv), "--stage", "2",
                   "--ants", "5", "--iters", "3", "--rules", "3",
                   "--seed", "4", "--threads", threads, "--out", str(out))
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2]

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "train", "--data",
                              str(tmp_path / "nope.csv"), "--out",
                              str(tmp_path / "m.txt"))
        assert code == 2
        assert "not found" in err

    def test_too_small_training_share_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "tiny.csv"
        assert run(["gen-data", "--n", "8", "--seed", "3",
                    "--out", str(data)]) == 0
        code, _, err = invoke(capsys, "train", "--data", str(data),
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert "--rules" in err and "--p" in err
        assert "fcm" not in err

    def test_blas_thread_count_keeps_model_bytes(self, data_csv, tmp_path):
        assert same_bytes_at_blas_threads_1_and_2(
            tmp_path, "train", "--data", str(data_csv), "--stage", "5",
            "--ants", "6", "--iters", "4", "--seed", "3")

    def test_bad_p_is_usage_error(self, capsys, data_csv, tmp_path):
        code, _, err = invoke(capsys, "train", "--data", str(data_csv),
                              "--p", "1.5", "--out", str(tmp_path / "m.txt"))
        assert code == 1
        assert "p must be in" in err

    def test_one_row_table_is_data_error(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.05\n")
        code, _, err = invoke(capsys, "train", "--data", str(one),
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert "--data" in err

    def test_constant_feature_is_data_error(self, capsys, data_csv,
                                            tmp_path):
        lines = data_csv.read_text().splitlines()
        flat = tmp_path / "flat_x.csv"
        flat.write_text("\n".join([lines[0]] + [
            "0.0," + line.partition(",")[2] for line in lines[1:]]) + "\n")
        code, _, err = invoke(capsys, "train", "--data", str(flat),
                              "--stage", "2", "--out",
                              str(tmp_path / "m.txt"))
        assert code == 2
        assert "feature 'x' is constant" in err and "(0.0)" in err
        assert "np.float64(" not in err and "fit_normalizer" not in err

    def test_feature_span_overflowing_a_float_is_data_error(self, capsys,
                                                            data_csv,
                                                            tmp_path):
        lines = data_csv.read_text().splitlines()
        wide = tmp_path / "wide_x.csv"
        wide.write_text("\n".join([lines[0]] + [
            ("-1e308,", "1e308,")[i % 2] + line.partition(",")[2]
            for i, line in enumerate(lines[1:])]) + "\n")
        out = tmp_path / "m.txt"
        code, _, err = invoke_warning_free(capsys, "train", "--data",
                                           str(wide), "--stage", "3",
                                           "--iters", "2", "--ants", "4",
                                           "--rules", "3", "--out", str(out))
        assert code == 2
        assert err.startswith("error: feature 'x' spans more than a float "
                              "holds over the training rows")
        assert not out.exists()


class TestEval:
    def test_metrics_printed(self, capsys, data_csv, model_file):
        code, stdout, _ = invoke(capsys, "eval", "--model", str(model_file),
                                 "--data", str(data_csv))
        assert code == 0
        assert stdout.startswith("R=")
        assert "n=240" in stdout

    def test_one_row_table_is_data_error(self, capsys, tmp_path, model_file):
        one = tmp_path / "one.csv"
        one.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.05\n")
        code, _, err = invoke(capsys, "eval", "--model", str(model_file),
                              "--data", str(one))
        assert code == 2
        assert err.startswith("error: eval: --data holds 1 row(s)")
        assert "evaluate" not in err

    def test_constant_targets_exit_2_naming_side(self, capsys, tmp_path,
                                                 data_csv, model_file):
        lines = data_csv.read_text().splitlines()
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join([lines[0]] + [
            line.rpartition(",")[0] + ",0.08" for line in lines[1:]]) + "\n")
        code, _, err = invoke(capsys, "eval", "--model", str(model_file),
                              "--data", str(flat))
        assert code == 2
        assert "targets on the --data rows" in err
        assert "eval_metrics" not in err

    def test_underflowing_spreads_give_finite_r(self, capsys, tmp_path,
                                                data_csv, model_file):
        # the targets' squared spread, 240 * (5e-171)^2, underflows to 0
        lines = data_csv.read_text().splitlines()
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("\n".join([lines[0]] + [
            line.rpartition(",")[0] + ("," + ("0.0", "1e-170")[i % 2])
            for i, line in enumerate(lines[1:])]) + "\n")
        code, stdout, _ = invoke(capsys, "eval", "--model", str(model_file),
                                 "--data", str(tiny))
        assert code == 0
        r = float(stdout.split()[0].removeprefix("R="))
        assert math.isfinite(r) and -1.0 <= r <= 1.0

    def test_non_finite_prediction_exit_2_naming_rows(self, capsys, data_csv,
                                                      overflow_model):
        code, _, err = invoke_warning_free(capsys, "eval", "--model",
                                           str(overflow_model), "--data",
                                           str(data_csv))
        assert code == 2
        assert err.startswith("error: eval: on the --data rows, the "
                              "predictions hold a non-finite value")
        assert "eval_metrics" not in err

    @FAR_X
    def test_row_far_outside_training_range_exit_2_naming_rows(
            self, capsys, tmp_path, data_csv, model_file, far):
        code, _, err = invoke_warning_free(
            capsys, "eval", "--model", str(model_file), "--data",
            str(with_far_row(data_csv, far, tmp_path)))
        assert code == 2
        assert err.startswith("error: eval: on the --data rows, ")
        assert FAR_MESSAGE in err

    def test_corrupt_model(self, capsys, tmp_path, data_csv):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        code, _, err = invoke(capsys, "eval", "--model", str(bad),
                              "--data", str(data_csv))
        assert code == 2

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_older_model_version_exit_2_naming_line_1(
            self, capsys, tmp_path, data_csv, model_file, version):
        old = tmp_path / "old.txt"
        old.write_text(model_file.read_text().replace(
            "antfis-model v3", f"antfis-model {version}", 1))
        code, _, err = invoke(capsys, "eval", "--model", str(old),
                              "--data", str(data_csv))
        assert code == 2
        assert err == (f"error: {old}, line 1: not a recognized model file "
                       "(expected 'antfis-model v3')\n")


class TestSweep:
    def test_grid_csv(self, capsys, data_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = invoke(capsys, "sweep", "--data", str(data_csv),
                                 "--stages", "1-2", "--ants", "4,6",
                                 "--iters", "3", "--rules", "3",
                                 "--seed", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "stage,n_ants,train_r,test_r"
        assert len(lines) == 5
        stages = [int(line.split(",")[0]) for line in lines[1:]]
        assert stages == [1, 1, 2, 2]

    def test_stage_list_syntax(self, capsys, data_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = invoke(capsys, "sweep", "--data", str(data_csv),
                            "--stages", "1,3", "--ants", "4", "--iters", "2",
                            "--rules", "3", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_one_row_table_names_cell(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.05\n")
        code, _, err = invoke(capsys, "sweep", "--data", str(one),
                              "--stages", "1", "--ants", "4",
                              "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "sweep cell (stage 1, ants 4) failed" in err
        assert "--data" in err

    def test_blas_thread_count_keeps_sweep_bytes(self, data_csv, tmp_path):
        # the cells run in forked shares, each inheriting the BLAS threads
        assert same_bytes_at_blas_threads_1_and_2(
            tmp_path, "sweep", "--data", str(data_csv), "--stages", "1-2",
            "--ants", "4,6", "--iters", "3", "--rules", "3", "--seed", "2")

    def test_bad_stage_syntax(self, capsys, data_csv, tmp_path):
        code, _, err = invoke(capsys, "sweep", "--data", str(data_csv),
                              "--stages", "1-9", "--out",
                              str(tmp_path / "s.csv"))
        assert code == 1


class TestPredict:
    def test_predictions_written(self, capsys, model_file, data_csv,
                                  tmp_path):
        data = load_dataset(data_csv, FeatureStage.XYZPV5)
        points = tmp_path / "points.csv"
        header = ",".join(FeatureStage.XYZPV5.feature_names)
        rows = [",".join(map(repr, row))
                for row in data.features()[:7].tolist()]
        points.write_text(header + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "preds.csv"
        code, stdout, _ = invoke(capsys, "predict", "--model",
                                 str(model_file), "--points", str(points),
                                 "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",prediction")
        assert len(lines) == 8
        preds = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert all(0.0 <= p <= 1.0 for p in preds)

    def test_header_must_match_stage(self, capsys, model_file, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x,y\n0.1,0.1\n")
        code, _, err = invoke(capsys, "predict", "--model", str(model_file),
                              "--points", str(points), "--out",
                              str(tmp_path / "p.csv"))
        assert code == 2
        assert "header" in err


    def test_non_finite_prediction_exit_2_naming_rows(self, capsys, data_csv,
                                                      overflow_model,
                                                      tmp_path):
        points = tmp_path / "points.csv"
        lines = data_csv.read_text().splitlines()
        points.write_text("\n".join(line.rpartition(",")[0]
                                    for line in lines) + "\n")
        out = tmp_path / "p.csv"
        code, _, err = invoke_warning_free(capsys, "predict", "--model",
                                           str(overflow_model), "--points",
                                           str(points), "--out", str(out))
        assert code == 2
        assert err.startswith("error: predict: on the --points rows, the "
                              "predictions hold a non-finite value")
        assert not out.exists()

    @FAR_X
    def test_point_far_outside_training_range_exit_2_naming_rows(
            self, capsys, tmp_path, model_file, far):
        points = tmp_path / "points.csv"
        points.write_text(",".join(FeatureStage.XYZPV5.feature_names)
                          + f"\n0,0,1,1e5,0.1\n{far},0,1,1e5,0.1\n")
        out = tmp_path / "p.csv"
        code, _, err = invoke_warning_free(capsys, "predict", "--model",
                                           str(model_file), "--points",
                                           str(points), "--out", str(out))
        assert code == 2
        assert err.startswith("error: predict: on the --points rows, ")
        assert FAR_MESSAGE in err
        assert not out.exists()

    def test_non_finite_point_is_data_error(self, capsys, model_file,
                                            tmp_path):
        points = tmp_path / "points.csv"
        points.write_text(",".join(FeatureStage.XYZPV5.feature_names)
                          + "\n0,0,1,1e5,0.1\n0,0,1,nan,0.1\n")
        code, _, err = invoke(capsys, "predict", "--model", str(model_file),
                              "--points", str(points), "--out",
                              str(tmp_path / "p.csv"))
        assert code == 2
        assert f"{points}, line 3: non-finite" in err


class TestCpuCount:
    def test_written_bytes_do_not_depend_on_it(self, capsys, monkeypatch,
                                               model_file, tmp_path):
        # 20,000 rows are three write blocks: with two CPUs a child
        # formats part of each file, and another parses half of the
        # 2.3 MB nodes.csv as it is read (the 1.9 MB points.csv is read
        # in one share)
        parent, forks = os.getpid(), []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if os.getpid() == parent:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        written = {}
        for cpus in (1, 2):
            monkeypatch.setattr(shares, "_cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            assert run(["gen-data", "--n", "20000", "--seed", "4",
                        "--out", str(out / "nodes.csv")]) == 0
            nodes = load_dataset(out / "nodes.csv", FeatureStage.XYZPV5)
            dataset.write_csv_table(out / "points.csv",
                                    FeatureStage.XYZPV5.feature_names,
                                    nodes.X.T)
            assert run(["predict", "--model", str(model_file), "--points",
                        str(out / "points.csv"), "--out",
                        str(out / "preds.csv")]) == 0
            written[cpus] = [(out / name).read_bytes()
                             for name in ("nodes.csv", "preds.csv")]
        capsys.readouterr()
        assert len(forks) == 4
        assert written[1] == written[2]


    def test_predict_on_three_points_forks_nothing(self, capsys, monkeypatch,
                                                   model_file, tmp_path):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(shares, "_cpu_count", lambda: 4)
        points = tmp_path / "points.csv"
        points.write_text(",".join(FeatureStage.XYZPV5.feature_names)
                          + "\n0,0,1,1e5,0.1\n0.01,0,1.5,1e5,0.2\n"
                          "-0.01,0,2,1e5,0.1\n")
        assert run(["predict", "--model", str(model_file), "--points",
                    str(points), "--out", str(tmp_path / "preds.csv")]) == 0
        capsys.readouterr()
        assert len((tmp_path / "preds.csv").read_text().splitlines()) == 4

class TestReport:
    def test_emits_three_files(self, capsys, model_file, data_csv, tmp_path):
        prefix = tmp_path / "rep"
        code, _, _ = invoke(capsys, "report", "--model", str(model_file),
                            "--data", str(data_csv), "--out-prefix",
                            str(prefix))
        assert code == 0
        train_lines = (tmp_path / "rep_scatter_train.csv").read_text() \
            .splitlines()
        test_lines = (tmp_path / "rep_scatter_test.csv").read_text() \
            .splitlines()
        conv_lines = (tmp_path / "rep_convergence.csv").read_text() \
            .splitlines()
        assert train_lines[0] == "target,prediction"
        # partition sizes of the 240-row set at p = 0.70
        assert len(train_lines) - 1 == 168
        assert len(test_lines) - 1 == 72
        assert conv_lines[0] == "iteration,best_rmse"
        assert len(conv_lines) - 1 == 4  # model was trained with --iters 4
        rmse = [float(line.split(",")[1]) for line in conv_lines[1:]]
        assert all(a >= b for a, b in zip(rmse, rmse[1:]))

    def test_one_row_table_is_data_error(self, capsys, tmp_path, model_file):
        one = tmp_path / "one.csv"
        one.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.05\n")
        code, _, err = invoke(capsys, "report", "--model", str(model_file),
                              "--data", str(one), "--out-prefix",
                              str(tmp_path / "rep"))
        assert code == 2
        assert err.startswith("error: report: --data holds 1 row(s)")
        assert "training_partitions" not in err

    def test_non_finite_prediction_exit_2_naming_rows(self, capsys, data_csv,
                                                      overflow_model,
                                                      tmp_path):
        code, _, err = invoke_warning_free(capsys, "report", "--model",
                                           str(overflow_model), "--data",
                                           str(data_csv), "--out-prefix",
                                           str(tmp_path / "rep"))
        assert code == 2
        assert err.startswith("error: report: on the --data training share, "
                              "the predictions hold a non-finite value")
        assert list(tmp_path.iterdir()) == []

    @FAR_X
    def test_row_far_outside_training_range_exit_2_naming_rows(
            self, capsys, tmp_path, data_csv, model_file, far):
        data = with_far_row(data_csv, far, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = invoke_warning_free(capsys, "report", "--model",
                                           str(model_file), "--data",
                                           str(data), "--out-prefix",
                                           str(out / "rep"))
        assert code == 2
        assert err.startswith(tuple(f"error: report: on the --data {share} "
                                    "share, " for share in ("training",
                                                            "test")))
        assert FAR_MESSAGE in err
        assert list(out.iterdir()) == []

    def test_non_finite_convergence_exit_2_naming_section(self, capsys,
                                                          model_file,
                                                          data_csv, tmp_path):
        head, _, rmse = model_file.read_text().rpartition("rmse = ")
        bad = tmp_path / "bad.txt"
        bad.write_text(head + "rmse = nan,inf," + rmse.split(",", 2)[2])
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = invoke(capsys, "report", "--model", str(bad),
                              "--data", str(data_csv), "--out-prefix",
                              str(out / "rep"))
        assert code == 2
        assert err.startswith(f"error: {bad}: invalid model file")
        assert "[convergence]" in err
        assert list(out.iterdir()) == []

    def test_byte_identical_reruns(self, capsys, model_file, data_csv,
                                   tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            invoke(capsys, "report", "--model", str(model_file), "--data",
                   str(data_csv), "--out-prefix", str(prefix))
        for suffix in ("_scatter_train.csv", "_scatter_test.csv",
                       "_convergence.csv"):
            assert (tmp_path / f"a{suffix}").read_bytes() \
                == (tmp_path / f"b{suffix}").read_bytes()


class TestDefaults:
    def test_flag_defaults_match_canonical_experiment(self):
        from antfis.cli import build_parser
        parser = build_parser()
        gen = parser.parse_args(["gen-data", "--out", "x.csv"])
        assert gen.n == 1500 and gen.seed == 7
        tr = parser.parse_args(["train", "--data", "d.csv", "--out", "m.txt"])
        assert tr.p == 0.70 and tr.iters == 100 and tr.ants == 20
        assert tr.stage == 5 and tr.rules == 10 and tr.threads == 1
        assert tr.archive_size == 25 and tr.q == 0.1 and tr.xi == 0.85
        assert tr.seed == 7
        sw = parser.parse_args(["sweep", "--data", "d.csv", "--out", "s.csv"])
        assert sw.stages == "1-5" and sw.ants == "20,30,40"
        assert sw.p == 0.70 and sw.iters == 100 and sw.rules == 10
        assert sw.archive_size == 25 and sw.q == 0.1 and sw.xi == 0.85
        assert sw.seed == 7


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "gen-data", "--nope", "3")
        assert code == 1
        assert "error:" in err

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 1

    def test_help_for_every_subcommand(self, capsys):
        for cmd in ("gen-data", "train", "eval", "sweep", "predict", "report"):
            code, stdout, _ = invoke(capsys, cmd, "--help")
            assert code == 0
            assert stdout.startswith(f"usage: antfis {cmd}")
        # commands with tunable flags document their defaults
        for cmd in ("gen-data", "train", "sweep"):
            _, stdout, _ = invoke(capsys, cmd, "--help")
            assert "default" in stdout

    def test_corrupt_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code, _, err = invoke(capsys, "train", "--data", str(bad), "--out",
                              str(tmp_path / "m.txt"))
        assert code == 2
        assert "header" in err


# (argv, flag): each is a usage error (exit 1) whose message names the flag.
FLAG_FAULTS = [
    (["train", "--rules", "1"], "--rules"),
    (["train", "--p", "1.5"], "--p"),
    (["train", "--p", "nan"], "--p"),
    (["train", "--q", "nan"], "--q"),
    (["train", "--q", "inf"], "--q"),
    (["train", "--q", "1e308"], "--q"),
    (["train", "--xi=-inf"], "--xi"),
    (["train", "--threads", "0"], "--threads"),
    (["train", "--threads=-3"], "--threads"),
    (["train", "--ants", "0"], "--ants"),
    (["train", "--iters", "0"], "--iters"),
    (["train", "--archive-size", "1"], "--archive-size"),
    (["sweep", "--stages", "3-1"], "--stages"),
    (["sweep", "--stages", "1-9"], "--stages"),
    (["sweep", "--ants", "4,x"], "--ants"),
    # Unicode separators and digits that only an ASCII grammar rejects
    (["sweep", "--ants", "20\x1c,30"], "error: bad --ants"),
    (["sweep", "--stages", "1\x1c,3"], "error: bad --stages"),
    (["sweep", "--ants", "\u0662\u0660,\u0663\u0660"], "error: bad --ants"),
    (["sweep", "--stages", "\u0661-\u0665"], "error: bad --stages"),
    (["sweep", "--threads", "0"], "--threads"),
    # what int() and float() take beyond the number grammar of every file:
    # non-ASCII digits, `_`, and padding other than spaces and tabs
    (["train", "--iters", "\u0661\u0660\u0660"], "--iters"),
    (["train", "--p", "\u0660.\u0667"], "--p"),
    (["train", "--seed", "1_000"], "--seed"),
    (["train", "--q", "0.1\v"], "--q"),
    (["sweep", "--ants", "20,\v30"], "error: bad --ants"),
    (["sweep", "--stages", "1\f-5"], "error: bad --stages"),
    (["gen-data", "--n", "0"], "--n"),
    (["gen-data", "--n", "1_500"], "--n"),
    (["gen-data", "--noise-sd", "0.00_5"], "--noise-sd"),
    (["gen-data", "--noise-sd", "nan"], "--noise-sd"),
    (["gen-data", "--height", "inf"], "--height"),
    (["gen-data", "--g=-inf"], "--g"),
    (["gen-data", "--sparger-height", "3"], "--sparger-height"),
    (["gen-data", "--rho-liquid", "1e308"], "--rho-liquid"),
    (["gen-data", "--diameter", "1e308"], "--diameter"),
]
CONFIG_FAULTS = [case for case in FLAG_FAULTS
                 if case[0][0] in ("train", "sweep")]


class TestExitCodes:
    @pytest.mark.parametrize("argv, flag", FLAG_FAULTS,
                             ids=[" ".join(a) for a, _ in FLAG_FAULTS])
    def test_flag_fault_exits_1_naming_flag(self, capsys, data_csv, tmp_path,
                                            argv, flag):
        cmd, *fault = argv
        base = ["--out", str(tmp_path / "out")]
        if cmd != "gen-data":
            base += ["--data", str(data_csv), "--iters", "2", "--ants", "3",
                     "--rules", "3"]
        code, _, err = invoke(capsys, cmd, *base, *fault)
        assert code == 1
        assert flag in err

    @pytest.mark.parametrize("argv, flag", CONFIG_FAULTS,
                             ids=[" ".join(a) for a, _ in CONFIG_FAULTS])
    def test_flag_fault_reported_before_data_is_read(self, capsys, tmp_path,
                                                     argv, flag):
        cmd, *fault = argv
        code, _, err = invoke(capsys, cmd, "--data",
                              str(tmp_path / "missing.csv"), "--out",
                              str(tmp_path / "out"), *fault)
        assert code == 1
        assert flag in err

    def test_model_file_with_bad_p_exits_2(self, capsys, tmp_path, data_csv,
                                           model_file):
        bad = tmp_path / "bad-p.txt"
        text = model_file.read_text()
        assert "\np = 0.7\n" in text
        bad.write_text(text.replace("\np = 0.7\n", "\np = 1.5\n"))
        code, _, err = invoke(capsys, "report", "--model", str(bad),
                              "--data", str(data_csv), "--out-prefix",
                              str(tmp_path / "rep"))
        assert code == 2
        assert "p must be in" in err

    def test_model_file_with_out_of_range_report_exits_2(self, capsys,
                                                         tmp_path, data_csv,
                                                         model_file):
        head, key, rest = model_file.read_text().partition("pearson_r = ")
        bad = tmp_path / "bad-r.txt"
        bad.write_text(head + key + "7.0" + rest[rest.index("\n"):])
        code, _, err = invoke(capsys, "eval", "--model", str(bad),
                              "--data", str(data_csv))
        assert code == 2
        assert err.startswith(f"error: {bad}: invalid model file")
        assert "pearson_r=7.0" in err

    def test_sweep_cell_data_error_exits_2(self, capsys, tmp_path):
        data = tmp_path / "tiny.csv"
        assert run(["gen-data", "--n", "8", "--seed", "3",
                    "--out", str(data)]) == 0
        code, _, err = invoke(capsys, "sweep", "--data", str(data),
                              "--stages", "1", "--ants", "4", "--iters", "2",
                              "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "sweep cell (stage 1, ants 4) failed" in err

    def test_sweep_cell_numeric_error_exits_3(self, capsys, data_csv,
                                              tmp_path, monkeypatch):
        def fail(data, config, n_workers=1):
            raise NumericError("fis: all rule premises degenerate")
        monkeypatch.setattr(trainer, "train", fail)
        code, _, err = invoke(capsys, "sweep", "--data", str(data_csv),
                              "--stages", "1", "--ants", "4",
                              "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert "sweep cell (stage 1, ants 4) failed: fis" in err

    def test_internal_value_error_is_not_a_usage_error(self, data_csv,
                                                       model_file,
                                                       monkeypatch):
        def fault(model, data):
            raise ValueError("internal fault")
        monkeypatch.setattr(cli, "evaluate", fault)
        with pytest.raises(ValueError, match="internal fault"):
            run(["eval", "--model", str(model_file), "--data", str(data_csv)])

    def test_feature_overflowing_the_scaler_exits_2(self, capsys, tmp_path,
                                                    model_file):
        big = tmp_path / "big.csv"
        big.write_text(",".join(CSV_HEADER) + "\n0,0,1,1e5,0.1,0.05\n"
                       "1e308,0,1,1e5,0.1,0.05\n")
        code, _, err = invoke(capsys, "eval", "--model", str(model_file),
                              "--data", str(big))
        assert code == 2
        assert "overflows" in err

    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        # a count too large to allocate; raised directly, never allocated
        def fail(args):
            raise MemoryError("Unable to allocate 7.28 TiB")
        monkeypatch.setitem(cli._COMMANDS, "gen-data", fail)
        code, _, err = invoke(capsys, "gen-data", "--n", "100000000000000",
                              "--out", str(tmp_path / "d.csv"))
        assert code == 2
        assert err.startswith("error: out of memory (Unable to allocate")
        assert "--n" in err

    def test_huge_ant_count_exits_2_before_drawing(self, capsys, data_csv,
                                                   tmp_path, monkeypatch):
        # an allocation of 10^12 or more values raises as numpy would,
        # without being attempted; a draw before it fails the test, so
        # a per-ant loop cannot run on without end
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.prod(shape, dtype=object) >= 10**12:
                raise MemoryError("Unable to allocate 7.28 TiB")
            return real_empty(shape, *args, **kwargs)

        class NoDraws(np.random.Generator):
            # rng builds its generators from this class; the initial
            # archive draws uniforms only, and every ant draws normals
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("an ant drew before the block was sized")

        monkeypatch.setattr(aco.np, "empty", empty)
        monkeypatch.setattr(rng.np.random, "Generator", NoDraws)
        code, _, err = invoke(capsys, "train", "--data", str(data_csv),
                              "--ants", "1000000000000", "--iters", "1",
                              "--rules", "3", "--out", str(tmp_path / "m"))
        assert code == 2
        assert err.startswith("error: out of memory (Unable to allocate")
        assert "--ants" in err

    def test_params_file_faults_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "params.txt"
        bad.write_bytes(b"noise_sd = 0.\xff\n")
        for params in (bad, tmp_path / "missing.txt"):
            code, _, err = invoke(capsys, "gen-data", "--n", "10", "--out",
                                  str(tmp_path / "d.csv"), "--params",
                                  str(params))
            assert code == 2
            assert str(params) in err

    @pytest.mark.parametrize("content, message", [
        # str.splitlines ends a line at \x1c; a file line ends only at
        # \n, \r\n or \r
        (b"alpha_max=0.2\x1c5\n", "bad number '0.2\\x1c5'"),
        # spaces and tabs are the only padding, as in a model file
        (b"alpha_max=0.2\x0b\n", "bad number '0.2\\x0b'"),
        (b"\x0c\nalpha_max=0.2\n", "expected <name>=<value> with a known "
                                   "parameter, got '\\x0c'"),
        # a bad byte is named as a CSV names it, in a comment too
        (b"alpha_max=0.2\xff\n", "not UTF-8 text (byte 0xff)"),
        (b"alpha_max=0.2 # \xff\n", "not UTF-8 text (byte 0xff)")],
        ids=["separator", "padding", "form-feed", "byte", "byte-in-comment"])
    def test_params_file_fault_names_line_1(self, capsys, tmp_path, content,
                                            message):
        params = tmp_path / "params.txt"
        params.write_bytes(content)
        out = tmp_path / "d.csv"
        code, _, err = invoke(capsys, "gen-data", "--n", "10", "--out",
                              str(out), "--params", str(params))
        assert (code, err) == (2, f"error: {params}, line 1: {message}\n")
        assert not out.exists()

    def test_params_file_padding_and_comments(self, capsys, tmp_path):
        params = tmp_path / "params.txt"
        params.write_bytes(b" \t\r\n# alpha_max=0.9\r\n\talpha_max = 0.3 "
                           b"\t# peak\rnoise_sd=0\n")
        plain = tmp_path / "plain.txt"
        plain.write_text("alpha_max=0.3\nnoise_sd=0\n")
        for path, out in ((params, "a.csv"), (plain, "b.csv")):
            assert invoke(capsys, "gen-data", "--n", "20", "--out",
                          str(tmp_path / out), "--params", str(path))[0] == 0
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()


class TestEntry:
    """The package imports no numpy, and the command line pins BLAS to one
    thread unless the user chose a count."""

    PROBE = (
        "import os, sys\n"
        "import antfis.__main__ as entry\n"
        "assert 'numpy' not in sys.modules\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            sys.meta_path.remove(self)\n"
        "            print(','.join(os.environ.get(v, '-')\n"
        "                           for v in entry._BLAS_THREAD_VARS))\n"
        "sys.meta_path.insert(0, Probe())\n"
        "sys.argv = ['antfis', '--version']\n"
        "try:\n"
        "    entry._main()\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None)\n")

    @staticmethod
    def python(code, **env):
        clean = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**clean, **env, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_loads_no_numpy(self):
        out = self.python("import sys, antfis\n"
                          "print('numpy' in sys.modules)\n"
                          "antfis.TrainConfig\n"
                          "print('numpy' in sys.modules)\n")
        assert out.split() == ["False", "True"]

    def test_blas_threads_one_when_unset(self):
        assert self.python(self.PROBE).splitlines()[0] == "1,1,1"

    def test_user_blas_setting_wins(self):
        out = self.python(self.PROBE, OPENBLAS_NUM_THREADS="3",
                          MKL_NUM_THREADS="2")
        assert out.splitlines()[0] == "3,1,2"
