"""Training orchestration: teacher, distilled student, ablation modes.

The teacher is fitted on in-service features with the hard loss only. The
student is fitted on pre-service features under the combined objective:
hard/soft label terms, representation alignment against the frozen
teacher, and a self-term against the student's own previous-epoch logits
(inactive during epoch 1). Early stopping watches the hard loss on the
validation split.

`MODE_TABLE` is the one definition of what each mode implies.
Ablations and sweeps share `run_grid`: one teacher per seed, then every
student point against it. `run_grid` keeps each model it trains in a
store directory under a key of the code, data, config and numerical
environment that decide its bits (`model_key`), and loads it instead of
training it again.

Each training step runs in STEP_DTYPE on a working copy of the model, and
Adam updates the float64 master, which validation scores and training
returns. The rng draws the same dropout flags in either precision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import losses, metrics, modelio, numcore
from .data import TwoPhaseDataset, check_finite
from .errors import ConfigError, DataError, TrainingError


@dataclass(frozen=True)
class ModeSpec:
    """What one mode implies for features, teacher and loss terms."""

    features: str                 # feature block the model reads
    needs_teacher: bool
    init_from_teacher: bool       # start from the teacher's weights
    zeroed: tuple[str, ...] = ()  # DistillConfig weights forced to 0
    ablated: bool = True          # a row of the ablation table


_ALL_TERMS = ("alpha", "beta", "lam")

# The teacher, then the students in ablation-table order, weakest to
# strongest. Columns: features, needs_teacher, init_from_teacher, zeroed.
MODE_TABLE = {
    "teacher": ModeSpec("in", False, False, _ALL_TERMS, ablated=False),
    "baseline_pre": ModeSpec("pre", False, False, _ALL_TERMS),
    "pretrain_only": ModeSpec("pre", True, True, _ALL_TERMS),
    "no_fine": ModeSpec("pre", True, False, ("alpha",)),
    "no_coarse": ModeSpec("pre", True, False, ("beta",)),
    "no_self": ModeSpec("pre", True, False, ("lam",), ablated=False),
    "full": ModeSpec("pre", True, False),
    "oracle": ModeSpec("both", False, False, _ALL_TERMS),
}
MODES = tuple(MODE_TABLE)
ABLATION_MODES = tuple(m for m, spec in MODE_TABLE.items() if spec.ablated)

# DistillConfig.hard_term: cross-entropy, plain or with `losses.reweight`.
HARD_TERMS = ("ce", "reweighted")


@dataclass
class DistillConfig:
    """All training/distillation hyperparameters with published defaults."""

    alpha: float = 0.2
    beta: float = 0.25
    lam: float = 0.1
    tau: float = 2.5
    feat_metric: str = "mse"
    hard_term: str = "ce"
    lr: float = 0.005
    weight_decay: float = 1e-7
    dropout: float = 0.4
    hidden_dims: tuple[int, ...] = (256, 256)
    batch_size: int = 100_000
    max_epochs: int = 100
    patience: int = 50
    seed: int = 0
    mode: str = "full"

    def __post_init__(self):
        check_finite(self)
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if self.beta < 0.0 or self.lam < 0.0:
            raise ConfigError("beta and lambda must be nonnegative")
        if self.tau < 1.0:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.feat_metric not in ("mse", "cosine"):
            raise ConfigError(f"unknown feat_metric {self.feat_metric!r}")
        if self.hard_term not in HARD_TERMS:
            raise ConfigError(f"unknown hard_term {self.hard_term!r}: "
                              f"choose {' or '.join(HARD_TERMS)}")
        if self.lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0.0:
            raise ConfigError("weight decay must be nonnegative")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0,1)")
        if min(self.hidden_dims, default=1) < 1 or self.batch_size < 1 \
                or min(self.max_epochs, self.patience, self.seed) < 0:
            raise ConfigError("hidden_dims/batch_size/max_epochs/patience/"
                              "seed out of range")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")

    def normalized(self) -> "DistillConfig":
        """The mode's loss weights zeroed, and what no term then reads at
        its default: `tau` at α = λ = 0, `feat_metric` at β = 0."""
        cfg = replace(self, **dict.fromkeys(MODE_TABLE[self.mode].zeroed,
                                            0.0))
        unread = {"tau": cfg.alpha == cfg.lam == 0.0,
                  "feat_metric": cfg.beta == 0.0}
        return replace(cfg, **{name: getattr(DistillConfig, name)
                               for name, reset in unread.items() if reset})


STEP_DTYPE = np.float32


@dataclass
class TrainTrace:
    """Per-epoch loss components and validation metrics for one run."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = ""


PREDICT_ROWS = 8192


def _tiles(n: int) -> list[tuple[int, int]]:
    """`(start, end)` of each eval tile of `n` rows: tiles start at
    multiples of PREDICT_ROWS, and a lone last row joins the tile before
    it."""
    starts = list(range(0, max(n - 1, 1), PREDICT_ROWS))
    return list(zip(starts, [*starts[1:], n]))


def _tile_rows(*lengths: int) -> int:
    """The most rows in one `_tiles` tile of passes of `lengths` rows."""
    return max(b - a for n in lengths for a, b in _tiles(n))


def worker_count(items: int, groups: int = 1) -> int:
    """The threads to run `items` items on while `groups` such groups run
    at once: the usable CPUs over the BLAS threads over `groups`, at least
    1 and at most `items`. The BLAS threads are the first positive integer
    in OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, as OpenBLAS reads them;
    without one the BLAS runs on every CPU, and this is 1."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            break
    else:
        return 1
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus // blas // groups, items))


def _in_order(run, items: list, workers: int) -> list:
    """`[run(item, k) for item in items]` on n = min(workers, len(items))
    threads, at least 1: thread k runs items k, k + n, ... in order.
    Thread 0 is the caller, and the others come from a pool that lives
    only inside the call. Once every thread has finished, the earliest
    failing item's error is raised unchanged.

    After a failure no thread starts an item above the lowest failing
    index so far; the items below it still run, so the error raised is
    the one a sequential run raises. A BaseException that is not an
    Exception, such as KeyboardInterrupt, stops every thread after its
    current item.
    """
    n = max(1, min(workers, len(items)))
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    stop = [len(items)]  # no thread starts an item at or above this

    def share(k):
        for i in range(k, len(items), n):
            if i >= stop[0]:
                return
            try:
                results[i] = run(items[i], k)
            except BaseException as exc:  # raised below, in item order
                with lock:
                    errors[i] = exc
                    stop[0] = min(stop[0], i) \
                        if isinstance(exc, Exception) else 0
                return

    if n == 1:
        share(0)
    else:
        with ThreadPoolExecutor(n - 1) as pool:
            for k in range(1, n):
                pool.submit(share, k)
            share(0)
    if errors:
        raise errors[min(errors)]
    return results


def _eval_pass(model: numcore.MlpModel, x, ws, keep_h: bool = False,
               workers: int = 1):
    """`(h, z, p)` of a float64 eval-mode pass, PREDICT_ROWS rows at a time.

    A row's encoder bits depend on its place in its block, and a 1-row
    product runs another kernel; so the tiles are `_tiles`, and the result
    equals one whole-array pass bit for bit. `h` is kept only with `keep_h`,
    as STEP_DTYPE. The tiles run `_in_order` on up to `workers` threads,
    thread k in `ws` or a workspace of its own; each tile writes only its
    rows, so the bits do not depend on `workers`.
    """
    x = numcore._as_matrix(np.asarray(x, dtype=np.float64), "x")
    h = np.empty((len(x), model.repr_dim), STEP_DTYPE) if keep_h else None
    z, p = np.empty(len(x)), np.empty(len(x))
    # Sized in this thread: grown in a worker, the buffers would come from
    # that thread's malloc arena, which holds on to its memory.
    spaces = [space.reserve(model.shapes, _tile_rows(len(x))) for space in
              (ws, *(numcore.Workspace() for _ in range(workers - 1)))]

    def run(tile, k):
        a, b = tile
        cache = numcore.forward(model, x[a:b], "eval", ws=spaces[k])
        z[a:b], p[a:b] = cache.z, cache.p
        if keep_h:
            h[a:b] = cache.h

    _in_order(run, _tiles(len(x)), workers)
    return h, z, p


def _reads_teacher(cfg: DistillConfig) -> bool:
    """Whether training normalized `cfg` reads the teacher pass."""
    return MODE_TABLE[cfg.mode].needs_teacher \
        and (cfg.alpha > 0.0 or cfg.beta > 0.0)


@dataclass(frozen=True)
class _Inputs:
    """What students read and never write: the train rows of each block
    they read, as STEP_DTYPE, and the teacher pass's `(h, z)`, or None."""

    rows: dict[str, np.ndarray]
    taught: tuple[np.ndarray | None, np.ndarray] | None


def _inputs(ds: TwoPhaseDataset, teacher: numcore.MlpModel | None,
            cfgs: list[DistillConfig]) -> _Inputs:
    """The `_Inputs` of normalized `cfgs`.

    The teacher pass is one eval pass over the train rows, in a workspace
    freed before training. It runs only if one of `cfgs` reads it, and
    keeps `h`, as STEP_DTYPE, only if such a one has β > 0. It and the
    validation passes run on one worker: more workers' tile buffers would
    add to the peak memory of the training run.
    """
    rows = {block: ds.features(block, "train").astype(STEP_DTYPE, copy=False)
            for block in dict.fromkeys(MODE_TABLE[cfg.mode].features
                                       for cfg in cfgs)}
    readers = [cfg for cfg in cfgs if _reads_teacher(cfg)]
    if not readers:
        return _Inputs(rows, None)
    h, z, _ = _eval_pass(
        teacher, ds.features(MODE_TABLE["teacher"].features, "train"),
        numcore.Workspace(), any(cfg.beta > 0.0 for cfg in readers))
    return _Inputs(rows, (h, z))


def _spaces(ds: TwoPhaseDataset, inputs: _Inputs,
            cfgs: list[DistillConfig],
            workers: int) -> list[numcore.Workspace]:
    """One workspace for each of the threads that `_in_order` runs `cfgs`
    on, reserved in this thread for the steps and validation passes of
    any of normalized `cfgs` on `ds` and `inputs`, and reused by every
    student its thread trains. Grown in a worker thread, the buffers
    would come from that thread's malloc arena, which keeps them resident
    after the thread ends."""
    valid_rows = _tile_rows(int(ds.mask("valid").sum()))
    spaces = [numcore.Workspace() for _ in range(min(workers, len(cfgs)))]
    for cfg in cfgs:
        n_tr, width = inputs.rows[MODE_TABLE[cfg.mode].features].shape
        dims = [width, *cfg.hidden_dims, 1]
        shapes = tuple(zip(dims[:-1], dims[1:]))
        rows = _tile_rows(min(cfg.batch_size, n_tr), n_tr % cfg.batch_size)
        for ws in spaces:
            ws.reserve(shapes, rows, STEP_DTYPE, step=True)
            ws.reserve(shapes, valid_rows)
    return spaces


def _train_model(ds: TwoPhaseDataset, teacher: numcore.MlpModel | None,
                 cfg: DistillConfig, inputs: _Inputs | None = None,
                 ws: numcore.Workspace | None = None,
                 ) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the model of `cfg.mode` as its `MODE_TABLE` row says.

    `inputs` is `_inputs` of a config list that holds `cfg`, normalized;
    by default it is made here for `cfg` alone. `ws` is the workspace the
    steps and validation passes run in, by default a new one.

    A batch runs as the row tiles `_eval_pass` uses, `_tiles(len(batch))`:
    forward, `losses.objective` (told the batch length) and backward run
    once per tile, the dropout flags are drawn tile by tile, and the
    parameter gradients are summed in tile order, the first tile's copied.
    Adam then takes one step. So a step's buffers hold one tile, and a
    batch of one tile (at most PREDICT_ROWS + 1 rows) runs as one
    whole-batch step, bit for bit.
    """
    cfg = cfg.normalized()
    spec = MODE_TABLE[cfg.mode]
    if spec.needs_teacher and teacher is None:
        raise ConfigError(f"mode {cfg.mode!r} requires a trained teacher")
    if (spec.needs_teacher or spec.features != "pre") and ds.d_in == 0:
        raise DataError(f"mode {cfg.mode!r} requires the in-service block")
    y_tr, y_va = ds.labels("train"), ds.labels("valid")
    x_va = ds.features(spec.features, "valid")
    n_tr = len(y_tr)

    rng = np.random.default_rng(cfg.seed)
    # pretrain_only draws a fresh first layer from a generator of its own,
    # leaving the training rng unused until the first epoch.
    model = numcore.init_mlp(
        x_va.shape[1], list(cfg.hidden_dims), cfg.dropout,
        np.random.default_rng(cfg.seed) if spec.init_from_teacher else rng)
    if spec.init_from_teacher:
        hidden = tuple(shape[1] for shape in teacher.shapes[:-1])
        if hidden != cfg.hidden_dims:
            raise ConfigError(f"hidden widths differ: teacher {hidden}, "
                              f"student {cfg.hidden_dims}")
        layers = teacher.layers()
        if teacher.input_dim != model.input_dim:
            layers[0] = model.layers()[0]  # widths differ: not transferred
        model = numcore.MlpModel.from_layers(layers, cfg.dropout)
    if cfg.beta > 0.0 and spec.needs_teacher \
            and teacher.repr_dim != model.repr_dim:
        raise ConfigError(
            f"representation widths differ: teacher {teacher.repr_dim}, "
            f"student {model.repr_dim}")

    state = numcore.init_adam(model)
    pi1 = np.count_nonzero(y_tr) / n_tr  # the train positive share
    w_tr, w_va = (losses.reweight(y, pi1)
                  if cfg.hard_term == "reweighted" else None
                  for y in (y_tr, y_va))

    inputs = inputs or _inputs(ds, teacher, [cfg])
    x_tr = inputs.rows[spec.features]
    teacher_h = teacher_z = None
    if _reads_teacher(cfg):
        h, z = inputs.taught
        teacher_h = h if cfg.beta > 0.0 else None
        teacher_z = z if cfg.alpha > 0.0 else None
    ws = ws or numcore.Workspace()

    work = numcore.MlpModel(model.flat.astype(STEP_DTYPE), model.shapes,
                            model.dropout_rate)
    snapshot = None
    trace = TrainTrace(stop_reason="max_epochs")
    best_val = np.inf
    best_model = model.copy()

    for epoch in range(cfg.max_epochs):
        new_snapshot = np.empty(n_tr) if cfg.lam > 0.0 else None
        perm = rng.permutation(n_tr)
        sums = defaultdict(float)  # term -> sum over rows, objective's order
        for start in range(0, n_tr, cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            np.copyto(work.flat, model.flat, casting="same_kind")
            grads = None
            for a, b in _tiles(len(batch)):
                idx = batch[a:b]
                cache = numcore.forward(work, ws.take("x", x_tr, idx),
                                        "train", rng, ws)
                # Gathered where feat_loss writes its gradient.
                rows_h = None if teacher_h is None \
                    else ws.take("grad1", teacher_h, idx)
                weights, rows_z, rows_snapshot = (
                    None if rows is None else rows[idx]
                    for rows in (w_tr, teacher_z, snapshot))
                total, terms = losses.objective(
                    cfg, cache, y_tr[idx], weights, rows_h, rows_z,
                    rows_snapshot, ws, len(batch))
                if not np.isfinite(total.value):
                    raise TrainingError(f"non-finite loss at epoch {epoch}")

                tile = numcore.backward(work, cache, total.grad_logit,
                                        total.grad_repr, ws)
                if grads is None:  # copied, not added to zeros: -0.0 stays
                    grads = numcore.FlatParams(tile.flat.copy(), tile.shapes)
                else:
                    grads.flat += tile.flat

                for term, value in terms.items():
                    sums[term] += value * len(batch)
                if new_snapshot is not None:
                    new_snapshot[idx] = cache.z
            numcore.adam_step(model, grads, state, cfg.lr, cfg.weight_decay)
        snapshot = new_snapshot

        p_va = _eval_pass(model, x_va, ws)[2]
        val_loss = losses.kl_hard(y_va, p_va, w_va).value
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        report = metrics.evaluate(p_va, y_va, split="valid",
                                  seed=cfg.seed, mode=cfg.mode)
        trace.epochs.append({
            "epoch": epoch,
            **{term: value / n_tr for term, value in sums.items()},
            "val_loss": val_loss,
            "val_auc": report.auc,
            "val_ks": report.ks,
            "val_recall": report.recall_at_k,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_model = model.copy()
            trace.best_epoch = epoch
        if epoch - trace.best_epoch > cfg.patience:
            trace.stop_reason = "early_stop"
            break

    return best_model, trace


def train_teacher(ds: TwoPhaseDataset,
                  cfg: DistillConfig) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the in-service model: `cfg` in mode "teacher"."""
    return _train_model(ds, None, replace(cfg, mode="teacher"))


def train_student(ds: TwoPhaseDataset, teacher: numcore.MlpModel | None,
                  cfg: DistillConfig, inputs: _Inputs | None = None,
                  ws=None) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the pre-service model under the mode-resolved objective;
    `inputs` and `ws` are `_train_model`'s."""
    return _train_model(ds, teacher, cfg, inputs, ws)


def predict(model: numcore.MlpModel, x) -> np.ndarray:
    """Eval-mode probabilities: `_eval_pass` on `worker_count` threads."""
    x = numcore._as_matrix(np.asarray(x, dtype=np.float64), "x")
    return _eval_pass(model, x, numcore.Workspace(),
                      workers=worker_count(len(_tiles(len(x)))))[2]


def evaluate_split(model: numcore.MlpModel, ds: TwoPhaseDataset, split: str,
                   features: str, seed: int | None = None,
                   mode: str = "") -> metrics.EvalReport:
    y = ds.labels(split)
    return metrics.evaluate(predict(model, ds.features(features, split)), y,
                            split=split, seed=seed, mode=mode)


def environment() -> dict:
    """The numerical environment: the numpy version, numpy's BLAS build
    (name, version, OpenBLAS configuration) and the BLAS thread
    variables as set, or None."""
    blas = (np.show_config(mode="dicts") or {}) \
        .get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                             "openblas configuration")},
            **{var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")}}


def data_sha256(ds: TwoPhaseDataset) -> str:
    """The sha256 of the arrays training reads: x_pre, x_in, y, split."""
    h = hashlib.sha256()
    for name in ("x_pre", "x_in", "y", "split"):
        a = np.ascontiguousarray(getattr(ds, name))
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def model_key(data_key: str, cfg: DistillConfig,
              teacher_key: str | None) -> str:
    """The store key of the model `cfg` trains on data `data_key`: the
    sha256 of the package sources, the data, the mode's `MODE_TABLE` row
    but not its name, the normalized config, the teacher's key and the
    `environment()` record less the BLAS thread variables. The CPU kernel
    the BLAS picks at run time is not in it.
    """
    cfg = cfg.normalized()
    spec = MODE_TABLE[cfg.mode]
    doc = {
        "sources": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in Path(__file__).parent.glob("*.py")},
        "data": data_key, "features": spec.features,
        "needs_teacher": spec.needs_teacher,
        "init_from_teacher": spec.init_from_teacher,
        "config": {k: v for k, v in dataclasses.asdict(cfg).items()
                   if k != "mode"},
        "teacher": teacher_key, "environment": {
            k: v for k, v in environment().items() if "THREADS" not in k}}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()) \
        .hexdigest()


def _load_stored(path: Path, features: str) -> numcore.MlpModel:
    """The model stored at `path`, which must read block `features`."""
    model, block = modelio.load_model(path)
    if block != features:
        raise DataError(f"{path}: the stored model reads block {block!r}, "
                        f"its mode reads {features!r}")
    return model


def _run_seed(ds: TwoPhaseDataset, data_key: str, base_cfg: DistillConfig,
              teacher_cfg: DistillConfig, points: list[tuple[str, dict]],
              store: Path, workers: int, seed: int,
              ) -> tuple[list[metrics.EvalReport], list[dict]]:
    """The teacher, then the missing students on up to `workers` threads,
    then each point in order: load and score its model."""
    models = []

    def record(label, cfg, teacher_key=None) -> dict:
        """`cfg`'s model record; the first model of a key trains, unless
        the store has a file for it."""
        key = model_key(data_key, cfg, teacher_key)
        path = Path(store, f"model_{key}.mgkd")
        trained = not path.exists() and all(m["key"] != key for m in models)
        models.append({"seed": seed, "label": label, "key": key,
                       "path": str(path),
                       "status": "trained" if trained else "reused"})
        return models[-1]

    cfgs = [replace(base_cfg, seed=seed, **overrides).normalized()
            for _, overrides in points]
    teacher = teacher_key = None
    if any(MODE_TABLE[cfg.mode].needs_teacher for cfg in cfgs):
        # The overrides never reach the teacher, so one teacher per seed
        # serves every point.
        t_cfg = replace(teacher_cfg, seed=seed, mode="teacher")
        rec = record("teacher", t_cfg)
        path, block = Path(rec["path"]), MODE_TABLE["teacher"].features
        if rec["status"] == "trained":
            modelio.save_model(train_teacher(ds, t_cfg)[0], path, block)
        teacher, teacher_key = _load_stored(path, block), rec["key"]
    students = [record(label, cfg, teacher_key
                       if MODE_TABLE[cfg.mode].needs_teacher else None)
                for (label, _), cfg in zip(points, cfgs)]
    todo = [i for i, rec in enumerate(students) if rec["status"] == "trained"]
    inputs = _inputs(ds, teacher, [cfgs[i] for i in todo])
    spaces = _spaces(ds, inputs, [cfgs[i] for i in todo], workers)

    def train(i, k):
        """Train and store point `i` in thread k's workspace."""
        model, _ = train_student(ds, teacher, cfgs[i], inputs, spaces[k])
        modelio.save_model(model, Path(students[i]["path"]),
                           MODE_TABLE[cfgs[i].mode].features)

    _in_order(train, todo, workers)
    reports = []
    for rec, cfg in zip(students, cfgs):
        block = MODE_TABLE[cfg.mode].features
        model = _load_stored(Path(rec["path"]), block)
        reports.append(evaluate_split(model, ds, "test", block, seed=seed,
                                      mode=rec["label"]))
    return reports, models


def run_grid(ds: TwoPhaseDataset, base_cfg: DistillConfig, seeds: list[int],
             points: list[tuple[str, dict]], store: Path, jobs: int = 1,
             teacher_cfg: DistillConfig | None = None,
             ) -> tuple[list[list[metrics.EvalReport]], list[dict]]:
    """Test reports for every (seed, point), one list per seed, and one
    `{seed, label, key, path, status}` record per model.

    Each point is a `(label, overrides)` pair: its student is `base_cfg`
    with `overrides` applied, and its report carries `label` as the mode.
    The per-seed teacher is trained from `teacher_cfg` (default
    `base_cfg`). Each model is kept in the `store` directory as
    `model_<key>.mgkd`; a model whose key has a file there is loaded, not
    trained, and its status is "reused", as is a point whose key an
    earlier point of its seed has. The seeds run `_in_order` on `jobs`
    threads, at most one per seed, in one copy of `ds`; a seed may not
    repeat. Within a seed, the students train on `worker_count` threads.
    Each model trains in one thread, so its bits depend on neither count.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"seed {seed} is repeated")
    workers = worker_count(len(points), min(jobs, len(seeds)))
    ds.labels("test")  # a one-class test split fails before any training
    data_key = data_sha256(ds)
    per_seed = _in_order(lambda seed, _: _run_seed(
        ds, data_key, base_cfg, teacher_cfg or base_cfg, points, store,
        workers, seed), seeds, jobs)
    return ([reports for reports, _ in per_seed],
            [model for _, models in per_seed for model in models])


def run_ablation(ds: TwoPhaseDataset, base_cfg: DistillConfig,
                 seeds: list[int], store: Path,
                 modes: tuple[str, ...] = ABLATION_MODES,
                 jobs: int = 1, teacher_cfg: DistillConfig | None = None,
                 ) -> tuple[list[metrics.EvalReport], list[dict]]:
    """Every ablation mode on a shared seed set: the test reports, seed by
    seed, and `run_grid`'s model records."""
    per_seed, models = run_grid(ds, base_cfg, seeds,
                                [(mode, {"mode": mode}) for mode in modes],
                                store, jobs, teacher_cfg)
    return [report for reports in per_seed for report in reports], models


def aggregate_reports(reports: list[metrics.EvalReport]) -> dict[str, dict]:
    """Per-mode mean and std of each metric, modes in first-seen order."""
    out: dict[str, dict] = {}
    for mode in dict.fromkeys(r.mode for r in reports):
        rows = [r for r in reports if r.mode == mode]
        out[mode] = {"n_runs": len(rows)}
        for name, attr in (("auc", "auc"), ("ks", "ks"),
                           ("recall", "recall_at_k")):
            values = [getattr(r, attr) for r in rows]
            out[mode][f"{name}_mean"] = float(np.mean(values))
            out[mode][f"{name}_std"] = float(np.std(values))
    return out
