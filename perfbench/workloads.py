"""The three benchmark workloads: input set-up, one measured iteration, and
the output checks that decide whether each operation succeeded.

An operation is one CLI command (`cli_chain`, `distill_grid`) or one
scoring chunk (`batch_score`). An operation fails on a non-zero exit, an
exception, or a failed output check. Each operation's outputs are hashed so
that repeated iterations with one seed can be compared byte for byte.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from mgkd import cli, data, metrics, modelio, pipeline

# Sizes per workload. "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests quick. Patience always equals the epoch count:
# early stopping would make the work per run depend on the seed.
SCALES = {
    "full": {
        "cli_chain": {"rows": 15_000, "batch": 8192, "epochs": 40},
        "distill_grid": {"rows": 10_000, "batch": 4096, "epochs": 20},
        "batch_score": {"rows": 10_000, "batch": 1024, "epochs": 10,
                        "score_rows": 1_000_000, "chunk_rows": 250_000},
    },
    "tiny": {
        "cli_chain": {"rows": 3_000, "batch": 512, "epochs": 3},
        "distill_grid": {"rows": 3_000, "batch": 512, "epochs": 4},
        "batch_score": {"rows": 3_000, "batch": 512, "epochs": 3,
                        "score_rows": 20_000, "chunk_rows": 5_000},
    },
}
HIDDEN_DIMS = (64, 64)
DROPOUT = 0.2
SWEEP_GRID = "0.0,0.2,0.4,0.8"
ABLATION_MODES = {"baseline_pre", "pretrain_only", "no_fine", "no_coarse",
                  "full", "oracle"}
# The oracle reads the in-service block, so it must beat the pre-service
# baseline by a clear margin on any seed.
ORACLE_MARGIN = 0.01


class OpFailed(Exception):
    """An operation ran but its exit code or outputs are wrong."""


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None
    digest: str | None = None  # hash of the operation's outputs


def run_op(name: str, action, check) -> Op:
    """Time `action()`, then check its outputs outside the timed window.

    `check(value)` returns the hash of the outputs or raises OpFailed.
    """
    t0 = perf_counter()
    try:
        value = action()
    except Exception:  # a failed operation is counted, the run goes on
        return Op(name, perf_counter() - t0, traceback.format_exc())
    seconds = perf_counter() - t0
    try:
        return Op(name, seconds, digest=check(value))
    except (OpFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return Op(name, seconds, f"output check: {exc!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def _check_auc(auc: float, what: str) -> None:
    _require(0.5 < auc <= 1.0, f"{what} AUC {auc} outside (0.5, 1]")


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _manifest(out: Path, command: str) -> dict:
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    _require(manifest.get("command") == command,
             f"{command} manifest names {manifest.get('command')!r}")
    return manifest


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    _require(code == 0, f"mgkd {argv[0]} exited with {code}")


def _write_config(path: Path, size: dict) -> None:
    train = {"hidden_dims": ",".join(map(str, HIDDEN_DIMS)),
             "dropout": str(DROPOUT), "batch_size": str(size["batch"]),
             "max_epochs": str(size["epochs"]),
             "patience": str(size["epochs"])}
    parser = configparser.ConfigParser()
    parser["dataset"] = {"n": str(size["rows"]), "d_pre": "20", "d_in": "20",
                         "frac_valid": "0.1", "frac_test": "0.1"}
    parser["teacher"] = train
    parser["student"] = train
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


class Workload:
    """Set-up runs in a fresh interpreter; `prepare` and `iterate` run in
    the measuring process."""

    name = ""
    stages: tuple[str, ...] = ()  # operations reported as `<stage>_s`

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.quality: dict = {}  # test_auc and recorded-only results

    def setup(self, inputs: Path) -> None:
        raise NotImplementedError

    def prepare(self, inputs: Path) -> None:
        raise NotImplementedError

    def iterate(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def finish_quality(self) -> None:
        """Compute what `quality` needs beyond the checks; run once."""

    def detail(self, wall_s: float) -> dict:
        return {}


class CliChain(Workload):
    """generate, train teacher, train full student, eval; via cli.main."""

    name = "cli_chain"
    stages = ("generate", "train_teacher", "train_student", "eval")

    def setup(self, inputs: Path) -> None:
        _write_config(inputs / "run.ini", self.size)

    def prepare(self, inputs: Path) -> None:
        self.config = str(inputs / "run.ini")

    def iterate(self, out: Path) -> list[Op]:
        common = ["--config", self.config, "--out", str(out)]
        seeded = [*common, "--seed", str(self.seed)]
        return [
            run_op("generate", lambda: _cli(["generate", *seeded]),
                   lambda _: self._check_generate(out)),
            run_op("train_teacher",
                   lambda: _cli(["train", *seeded, "--mode", "teacher"]),
                   lambda _: self._check_train(out, "teacher")),
            run_op("train_student",
                   lambda: _cli(["train", *seeded, "--mode", "full"]),
                   lambda _: self._check_train(out, "full")),
            run_op("eval",
                   lambda: _cli(["eval", *common,
                                 "--model", str(out / "student_full.mgkd"),
                                 "--data", str(out / "dataset.csv"),
                                 "--split", "test"]),
                   lambda _: self._check_eval(out)),
        ]

    def _check_generate(self, out: Path) -> str:
        _manifest(out, "generate")
        return _digest(out / "dataset.csv")

    def _check_train(self, out: Path, mode: str) -> str:
        _manifest(out, f"train_{mode}")
        model = out / ("teacher.mgkd" if mode == "teacher"
                       else f"student_{mode}.mgkd")
        trace = out / f"trace_{mode}.jsonl"
        records = _records(trace)
        _require(records and records[-1].get("record") == "summary",
                 f"{trace.name} has no summary record")
        return _digest(model, trace)

    def _check_eval(self, out: Path) -> str:
        _manifest(out, "eval")
        results = out / "eval_results.jsonl"
        records = _records(results)
        _require(len(records) == 1 and records[0]["record"] == "eval",
                 "eval_results.jsonl must hold one eval record")
        _check_auc(records[0]["auc"], "eval")
        self.quality["test_auc"] = records[0]["auc"]
        return _digest(results)


class DistillGrid(Workload):
    """alpha sweep, then the six-mode ablation, on a prepared dataset."""

    name = "distill_grid"
    stages = ("sweep", "ablate")

    def setup(self, inputs: Path) -> None:
        config = inputs / "grid.ini"
        _write_config(config, self.size)
        _cli(["generate", "--config", str(config), "--out", str(inputs),
              "--seed", str(self.seed)])

    def prepare(self, inputs: Path) -> None:
        self.config = str(inputs / "grid.ini")
        self.dataset = str(inputs / "dataset.csv")

    def iterate(self, out: Path) -> list[Op]:
        common = ["--config", self.config, "--out", str(out),
                  "--data", self.dataset, "--seeds", str(self.seed),
                  "--jobs", "1"]
        return [
            run_op("sweep",
                   lambda: _cli(["sweep", *common, "--param", "alpha",
                                 "--grid", SWEEP_GRID]),
                   lambda _: self._check_sweep(out)),
            run_op("ablate", lambda: _cli(["ablate", *common]),
                   lambda _: self._check_ablate(out)),
        ]

    def _check_sweep(self, out: Path) -> str:
        _manifest(out, "sweep")
        results = out / "sweep_alpha_results.jsonl"
        records = _records(results)
        grid = [float(v) for v in SWEEP_GRID.split(",")]
        _require([r["value"] for r in records] == grid,
                 f"sweep values {[r['value'] for r in records]} != {grid}")
        for r in records:
            _check_auc(r["auc"], f"sweep alpha={r['value']}")
        return _digest(results)

    def _check_ablate(self, out: Path) -> str:
        _manifest(out, "ablate")
        results = out / "ablation_results.jsonl"
        records = _records(results)
        runs = {r["mode"]: r["auc"] for r in records
                if r["record"] == "ablation_run"}
        _require(set(runs) == ABLATION_MODES,
                 f"ablation modes {sorted(runs)}")
        for mode, auc in runs.items():
            _check_auc(auc, f"ablation {mode}")
        _require(runs["oracle"] - runs["baseline_pre"] >= ORACLE_MARGIN,
                 f"oracle AUC {runs['oracle']} does not beat baseline_pre "
                 f"{runs['baseline_pre']} by {ORACLE_MARGIN}")
        ordering = [r for r in records if r["record"] == "ordering_check"]
        _require(len(ordering) == 1, "no ordering_check record")
        # One seed makes the ordering a statistical property: record it only.
        self.quality["ordering_check_passed"] = ordering[0]["passed"]
        self.quality["test_auc"] = runs["full"]
        return _digest(results)


class BatchScore(Workload):
    """Load a saved student and score held-out rows chunk by chunk."""

    name = "batch_score"

    def setup(self, inputs: Path) -> None:
        rows, scored = self.size["rows"], self.size["score_rows"]
        # One generator call for training and scored rows: the feature
        # loadings depend on both the seed and the row count.
        ds = data.generate_synthetic(
            data.SyntheticConfig(n=rows + scored, seed=self.seed))
        train = data.TwoPhaseDataset(ds.x_pre[:rows], ds.x_in[:rows],
                                     ds.y[:rows], ds.timestamp[:rows],
                                     ds.split[:rows])
        train = data.temporal_split(train, 0.1, 0.1)
        scaler = data.fit_standardize(train)
        train = data.apply_standardize(train, scaler)
        cfg = pipeline.DistillConfig(
            hidden_dims=HIDDEN_DIMS, dropout=DROPOUT,
            batch_size=self.size["batch"],
            max_epochs=self.size["epochs"], patience=self.size["epochs"],
            seed=self.seed)
        teacher, _ = pipeline.train_teacher(train, cfg)
        student, _ = pipeline.train_student(train, teacher, cfg)
        modelio.save_model(student, inputs / "student_full.mgkd", "pre")

        held = data.TwoPhaseDataset(ds.x_pre[rows:], np.empty((scored, 0)),
                                    ds.y[rows:], ds.timestamp[rows:],
                                    ds.split[rows:])
        held = data.apply_standardize(held, scaler)
        np.save(inputs / "score_x.npy", held.x_pre)
        np.save(inputs / "score_y.npy", held.y)

    def prepare(self, inputs: Path) -> None:
        self.model_path = inputs / "student_full.mgkd"
        self.x = np.load(inputs / "score_x.npy")
        self.y = np.load(inputs / "score_y.npy")
        self.scores = np.full(self.y.shape, np.nan)

    def iterate(self, out: Path) -> list[Op]:
        t0 = perf_counter()
        model, load_error = None, None
        try:
            model, block = modelio.load_model(self.model_path)
            if block != "pre":
                load_error = f"model reads the {block!r} block, not 'pre'"
        except Exception:  # every chunk fails; the run goes on
            load_error = traceback.format_exc()
        load_s = perf_counter() - t0

        ops = []
        chunk = self.size["chunk_rows"]
        for i, start in enumerate(range(0, self.y.size, chunk)):
            rows = slice(start, start + chunk)
            ops.append(run_op(
                f"chunk{i}",
                lambda: self._score(model, load_error, rows),
                lambda result: self._check_chunk(rows, *result)))
        ops[0].seconds += load_s
        return ops

    def _score(self, model, load_error, rows: slice):
        _require(load_error is None, f"load_model: {load_error}")
        p = pipeline.predict(model, self.x[rows])
        return p, metrics.evaluate(p, self.y[rows])

    def _check_chunk(self, rows: slice, p: np.ndarray, report) -> str:
        _require(p.shape == self.y[rows].shape, f"{p.shape[0]} scores")
        _require(bool(np.all((p >= 0.0) & (p <= 1.0))),
                 "scores outside [0, 1]")
        _require(report.auc > 0.5, f"chunk AUC {report.auc} <= 0.5")
        self.scores[rows] = p
        return hashlib.sha256(p.tobytes()).hexdigest()

    def finish_quality(self) -> None:
        self.quality["test_auc"] = metrics.auc(self.scores, self.y)

    def detail(self, wall_s: float) -> dict:
        return {"score_rows_per_s": {"value": self.y.size / wall_s,
                                     "unit": "1/s"}}


WORKLOADS = {w.name: w for w in (CliChain, DistillGrid, BatchScore)}
