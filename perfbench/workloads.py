"""The benchmark's workloads, their correctness checks and metrics.

One process, one client, closed loop: each operation starts when the
previous one has ended. A run is

1. set-up, repeated `Sizes.setup_repeats` times: generate the 1500-node
   dataset, train the set-up model, save it and load it back;
2. the measured loop, until `seconds` have passed. It interleaves the
   workload's own step with two side steps that give every other
   end-to-end metric a value, each kind of step getting its share of
   the loop's time (`SHARES`), so every metric samples the whole run;
   each step starts from a collected heap, so when Python's cyclic
   collector runs inside it does not depend on the steps before;
3. on train-stage5, the command-line check, which needs the loop's
   model file.

While set-up and loop run, `speed.Monitor` samples how fast the CPU
under the benchmark runs; every timed operation is rescaled to
reference speed by the samples taken during it, and a metric is the
median of its rescaled samples. Every operation of any phase counts
as attempted; one whose check fails or which raises counts as failed.
README.md in this directory explains the choice of each workload and
metric.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from antfis import cli, dataset, synthfield, trainer
from antfis.aco import AcoConfig
from antfis.dataset import FeatureStage

from . import speed, tracing

STAGE5 = FeatureStage.XYZPV5
GRID_STAGES = tuple(FeatureStage)
GRID_ANTS = (20, 30, 40)
SIDE_STAGES = (FeatureStage.X1, FeatureStage.XYZPV5)
SIDE_ANTS = (20,)
# Sweeps run with one worker. With more, this program evaluates each ACO
# iteration's ants in a fresh thread pool, and on a shared 2-core box one
# 15-cell sweep then took anywhere from 6.6 to 15.2 s, against 8.2 to
# 8.7 s with one worker: too unsteady for any bound. README.md has the
# numbers.
SWEEP_WORKERS = 1
# Sweeps rotate over this many training seeds drawn from the run's seed.
# The stage gap of one sweep varies with its seed (quartile spread about
# 0.08 of the median over 10 seeds); the median over several seeds per
# run varies less, and a repeated seed still checks determinism.
SWEEP_SEEDS = 4

# Acceptance criterion 1 (stage-5 fidelity) and 2 (low-information gap).
MIN_TRAIN_R = 0.95
MIN_TEST_R = 0.90
MIN_STAGE_GAP = 0.3

# End-to-end metrics and units, as BENCHMARK.json lists them.
E2E_METRICS = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
    ("train_s", "s"),
    ("train_r", "R"),
    ("test_r", "R"),
    ("sweep_s", "s"),
    ("sweep_stage_gap", "R"),
    ("gen_s", "s"),
    ("write_s", "s"),
    ("ingest_s", "s"),
    ("predict_rows_per_s", "rows/s"),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts; fixed across commits."""

    nodes: int = 1500             # the paper's dataset
    train_iters: int = 100        # the paper's canonical run
    setup_iters: int = 10         # set-up model, used for prediction
    side_train_iters: int = 20    # enough that FCM's seed-dependent cost
                                  # stays a small share of the side train
    sweep_iters: int = 10         # per sweep cell
    side_nodes: int = 40_000      # data-plane side step: large enough
                                  # that one pass is not mostly jitter
    ingest_nodes: int = 200_000
    setup_repeats: int = 3
    predict_repeats: int = 5      # timed predict calls per data-plane pass


# Share of the measured loop's wall time given to the workload's own
# step and to each of its two side steps.
SHARES = (0.6, 0.2, 0.2)

WORKLOADS = ("train-stage5", "sweep-grid", "ingest-predict-200k")


class Run:
    """One run of one workload; `result()` gives what run.py prints."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, workdir: Path, nproc: int,
                 sizes: Sizes = Sizes()):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seconds = seconds
        self.sizes = sizes
        self.nproc = nproc
        self.workdir = workdir
        self.tracer = tracing.Tracer() if traced else None
        # The benchmark's own seed stream, independent of antfis.rng.
        state = [int(v) for v in
                 np.random.SeedSequence(seed).generate_state(3 + SWEEP_SEEDS)]
        self.data_seed, self.train_seed, self.ingest_seed = state[:3]
        self.sweep_seeds = state[3:]
        self.sweeps_run = 0
        # Rescaled samples per metric, and the same samples as wall time.
        self.samples: dict[str, list[float]] = {n: [] for n, _ in E2E_METRICS}
        self.raw: dict[str, list[float]] = {n: [] for n, _ in E2E_METRICS}
        self.speed_factors: list[float] = []
        # (metric, start, end, rows) per timed operation, rescaled once
        # the monitor has stopped; rows makes the metric rows per second.
        self.timings: list[tuple[str, float, float, int | None]] = []
        self.monitor = None
        self.attempted = 0
        self.failed = 0
        self.loop_times: dict[bool, list[float]] = {False: [], True: []}
        self._loop_steps: list[tuple[bool, float, float]] = []
        self._op_ok = True
        self.data = None
        self.model = None
        self.model_bytes = None
        self.sweep_cells: dict[int, dict] = {}  # sweep seed -> cells

    # --- bookkeeping ------------------------------------------------------

    @contextlib.contextmanager
    def _op(self, phase: str, traced: bool = True):
        """One operation: attempted once, failed on a failed check or error."""
        self.attempted += 1
        self._op_ok = True
        tracer = self.tracer if traced else None
        try:
            with tracer.operation(phase) if tracer else contextlib.nullcontext():
                yield
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._op_ok = False
        if not self._op_ok:
            self.failed += 1

    def _check(self, ok: bool, what: str) -> None:
        if not ok:
            print(f"check failed ({self.workload}): {what}", file=sys.stderr)
            self._op_ok = False

    def _time(self, name: str, t0: float, t1: float,
              rows: int | None = None) -> None:
        self.timings.append((name, t0, t1, rows))

    def _rescale(self) -> None:
        """Turn the recorded intervals into samples at reference speed."""
        for name, t0, t1, rows in self.timings:
            factor = self.monitor.factor(t0, t1)
            scaled = (t1 - t0) * factor
            self.samples[name].append(rows / scaled if rows else scaled)
            self.raw[name].append(rows / (t1 - t0) if rows else t1 - t0)
            self.speed_factors.append(factor)
        for traced, t0, t1 in self._loop_steps:
            self.loop_times[traced].append(
                (t1 - t0) * self.monitor.factor(t0, t1))

    def _config(self, iters: int, seed: int | None = None
                ) -> trainer.TrainConfig:
        return trainer.TrainConfig(stage=STAGE5, p=0.70, n_rules=10,
                                   aco=AcoConfig(n_ants=20, max_iter=iters),
                                   seed=self.train_seed if seed is None
                                   else seed)

    def _check_model(self, model) -> None:
        self._check(model.train_report.pearson_r >= MIN_TRAIN_R
                    and model.test_report.pearson_r >= MIN_TEST_R,
                    f"train R {model.train_report.pearson_r} / test R "
                    f"{model.test_report.pearson_r} below "
                    f"{MIN_TRAIN_R} / {MIN_TEST_R}")

    def _sample_model(self, t0: float, t1: float, model) -> None:
        self._time("train_s", t0, t1)
        self.samples["train_r"].append(model.train_report.pearson_r)
        self.samples["test_r"].append(model.test_report.pearson_r)

    # --- phases -----------------------------------------------------------

    def _setup_once(self) -> None:
        first = self.workdir / "setup-model.txt"
        again = self.workdir / "setup-model-again.txt"
        with self._op("setup"):
            t0 = time.perf_counter()
            data = synthfield.generate_dataset(
                synthfield.ReactorGeometry(), synthfield.PlumeParams(),
                self.sizes.nodes, seed=self.data_seed)
            model = trainer.train(data, self._config(self.sizes.setup_iters))
            trainer.save_model(model, first)
            loaded = trainer.load_model(first)
            self._time("setup_s", t0, time.perf_counter())
            self._check_model(model)
            trainer.save_model(loaded, again)
            self._check(again.read_bytes() == first.read_bytes(),
                        "save -> load -> save changed the model file")
            self.data, self.model = data, loaded

    def _setup(self) -> None:
        for _ in range(self.sizes.setup_repeats):
            gc.collect()
            self._setup_once()
        if self.model is None:
            raise RuntimeError("set-up failed; see the errors above")

    def _loop(self, main, *side) -> None:
        # Each pass picks, among the kinds of step that would still end
        # within `seconds`, the one furthest behind its share of the
        # loop's wall time, so all kinds spread over the whole run and
        # the run does not overshoot by a long step. Every kind runs at
        # least once. In the traced run the workload's own step
        # alternates untraced / traced, so tracing overhead is measured
        # inside the run itself; side steps are always traced there.
        steps = (main, *side)
        spent = [0.0] * len(steps)
        last = [0.0] * len(steps)
        runs = [0] * len(steps)
        min_main = 2 if self.tracer else 1
        start = time.perf_counter()
        while True:
            if runs[0] == 0 or (0 not in runs and runs[0] < min_main):
                k = 0
            elif 0 in runs:
                k = runs.index(0)
            else:
                left = self.seconds - (time.perf_counter() - start)
                fits = [j for j in range(len(steps)) if last[j] <= left]
                if not fits:
                    break
                k = min(fits, key=lambda j: spent[j] / SHARES[j])
            traced = self.tracer is not None and (k > 0 or runs[0] % 2 == 1)
            gc.collect()
            t0 = time.perf_counter()
            with self._op("loop" if k == 0 else "side", traced):
                steps[k]()
            t1 = time.perf_counter()
            if k == 0 and self._op_ok:
                self._loop_steps.append((traced, t0, t1))
            last[k] = t1 - t0
            spent[k] += last[k]
            runs[k] += 1

    def _train_step(self) -> None:
        t0 = time.perf_counter()
        model = trainer.train(self.data, self._config(self.sizes.train_iters),
                              n_workers=1)
        self._sample_model(t0, time.perf_counter(), model)
        self._check_model(model)
        path = self.workdir / "model.txt"
        trainer.save_model(model, path)
        if self.model_bytes is None:
            self.model_bytes = path.read_bytes()
        self._check(path.read_bytes() == self.model_bytes,
                    "two trains with one seed wrote different model files")

    def _sweep_step(self, stages, ants) -> None:
        seed = self.sweep_seeds[self.sweeps_run % SWEEP_SEEDS]
        self.sweeps_run += 1
        base = self._config(self.sizes.sweep_iters, seed)
        t0 = time.perf_counter()
        report = trainer.sweep(self.data, stages, ants, base,
                               n_workers=SWEEP_WORKERS)
        self._time("sweep_s", t0, time.perf_counter())
        cells = {(c.stage.n_features, c.n_ants): (c.train_r, c.test_r)
                 for c in report.cells}
        gap = report.best_test_r(STAGE5) - report.best_test_r(FeatureStage.X1)
        self.samples["sweep_stage_gap"].append(gap)
        self._check(len(report.cells) == len(stages) * len(ants) and
                    set(cells) == {(s.n_features, a)
                                   for s in stages for a in ants},
                    f"sweep returned cells {sorted(cells)}")
        self._check(gap >= MIN_STAGE_GAP,
                    f"stage gap {gap} below {MIN_STAGE_GAP}")
        self._check(cells == self.sweep_cells.setdefault(seed, cells),
                    "two sweeps with one seed gave different cells")

    def _data_plane_step(self, n: int, seed: int) -> None:
        csv = self.workdir / "nodes.csv"
        t0 = time.perf_counter()
        made = synthfield.generate_dataset(synthfield.ReactorGeometry(),
                                           synthfield.PlumeParams(), n, seed=seed)
        t1 = time.perf_counter()
        dataset.write_dataset_csv(made, csv)
        t2 = time.perf_counter()
        loaded = dataset.load_dataset(csv, STAGE5)
        X = loaded.features()
        t3 = time.perf_counter()
        self._time("gen_s", t0, t1)
        self._time("write_s", t1, t2)
        self._time("ingest_s", t2, t3)
        made_X = made.features()
        self._check(np.array_equal(X, made_X)
                    and np.array_equal(loaded.targets(), made.targets()),
                    "reloaded node table differs from the generated one")
        expected = trainer.predict_points(self.model, made_X)
        for _ in range(self.sizes.predict_repeats):
            t0 = time.perf_counter()
            preds = trainer.predict_points(self.model, X)
            self._time("predict_rows_per_s", t0, time.perf_counter(), n)
            self._check(bool(np.isfinite(preds).all()) and preds.min() >= 0.0
                        and preds.max() <= 1.0,
                        "predictions not finite or outside [0, 1]")
            self._check(np.array_equal(preds, expected),
                        "predictions on reloaded and in-memory features "
                        "differ")

    def _cli_train_check(self) -> None:
        # The CLI path must write the bytes the API path wrote, so the
        # API-driven workloads stand for the command line too.
        with self._op("side"):
            csv = self.workdir / "cli-nodes.csv"
            out = self.workdir / "cli-model.txt"
            dataset.write_dataset_csv(self.data, csv)
            argv = ["train", "--data", str(csv), "--stage", "5",
                    "--ants", "20", "--iters", str(self.sizes.train_iters),
                    "--p", "0.70", "--rules", "10",
                    "--seed", str(self.train_seed), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
            self._check(code == 0, f"antfis train exited {code}")
            self._check(code == 0 and out.read_bytes() == self.model_bytes,
                        "antfis train wrote other bytes than the API train")

    def _side_train(self) -> None:
        t0 = time.perf_counter()
        model = trainer.train(self.data,
                              self._config(self.sizes.side_train_iters))
        self._sample_model(t0, time.perf_counter(), model)
        self._check_model(model)

    def _side_sweep(self) -> None:
        self._sweep_step(SIDE_STAGES, SIDE_ANTS)

    def _side_data_plane(self) -> None:
        self._data_plane_step(self.sizes.side_nodes, self.ingest_seed)

    def execute(self) -> None:
        with speed.Monitor(self.workdir / "speed.txt") as self.monitor:
            self._setup()
            if self.workload == "train-stage5":
                self._loop(self._train_step, self._side_sweep,
                           self._side_data_plane)
            elif self.workload == "sweep-grid":
                self._loop(lambda: self._sweep_step(GRID_STAGES, GRID_ANTS),
                           self._side_train, self._side_data_plane)
            else:
                self._loop(lambda: self._data_plane_step(
                    self.sizes.ingest_nodes, self.ingest_seed),
                    self._side_train, self._side_sweep)
        self._rescale()
        if self.workload == "train-stage5":
            self._cli_train_check()

    # --- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Medians of the rescaled samples, peak RSS and the pass ratio."""
        samples = self.samples
        values = {}
        for name, _ in E2E_METRICS:
            if name in ("peak_rss_mb", "pass_ratio"):
                continue
            if not samples[name]:
                raise RuntimeError(f"no successful operation measured {name}")
            values[name] = float(statistics.median(samples[name]))
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        values["pass_ratio"] = (self.attempted - self.failed) / self.attempted
        return values

    def per_layer(self) -> dict[str, float]:
        values = tracing.layer_metrics(self.tracer, self.nproc)
        plain, traced = self.loop_times[False], self.loop_times[True]
        if plain and traced:
            overhead = statistics.median(traced) - statistics.median(plain)
            values["trace.overhead_s"] = overhead
            values["trace.overhead_share"] = overhead / statistics.median(plain)
        else:
            values["trace.overhead_s"] = values["trace.overhead_share"] = 0.0
        return values

    def result(self) -> dict:
        """The result object: correct, attempted, failed and metrics."""
        if self.tracer is None:
            values, units = self.end_to_end(), dict(E2E_METRICS)
        else:
            values, units = self.per_layer(), dict(tracing.LAYER_METRICS)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}

    def diagnostics(self) -> dict:
        """What the result file keeps beside the result: every sample,
        rescaled and as wall time, the wall-time medians, and the median
        speed factor the samples were rescaled by."""
        out = {"speed_factor_median": float(statistics.median(
            self.speed_factors)) if self.speed_factors else None,
            "timed_operations": len(self.speed_factors)}
        out["wall_metrics"] = {name: float(statistics.median(values))
                               for name, values in self.raw.items() if values}
        out["samples"] = {name: [float(v) for v in self.samples[name]]
                          for name, values in self.raw.items() if values}
        out["wall_samples"] = {name: [float(v) for v in values]
                               for name, values in self.raw.items() if values}
        return out
