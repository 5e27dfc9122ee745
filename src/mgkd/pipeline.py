"""Training orchestration: teacher, distilled student, ablation modes.

The teacher is fitted on in-service features with the hard loss only. The
student is fitted on pre-service features under the combined objective:
hard/soft label terms, representation alignment against the frozen
teacher, and a self-term against the student's own previous-epoch logits
(inactive during epoch 1). Early stopping watches the hard loss on the
validation split.

`MODE_TABLE` is the one definition of what each mode implies.
Ablations and sweeps share `run_grid`: one teacher per seed, then every
student point against it.

Each training step runs in STEP_DTYPE on a working copy of the model, and
Adam updates the float64 master, which validation scores and training
returns. The rng draws the same dropout flags in either precision.
"""

from __future__ import annotations

import multiprocessing
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import losses, metrics, numcore
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


@dataclass
class DistillConfig:
    """All training/distillation hyperparameters with published defaults."""

    alpha: float = 0.2
    beta: float = 0.25
    lam: float = 0.1
    tau: float = 2.5
    feat_metric: str = "mse"
    hard_term: str = "ce"
    gamma: float = 2.0
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
        if self.hard_term not in losses.HARD_TERMS:
            raise ConfigError(f"unknown hard_term {self.hard_term!r}")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be nonnegative")
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
        """Apply the loss-term constraints implied by the ablation mode."""
        return replace(self, **dict.fromkeys(MODE_TABLE[self.mode].zeroed,
                                             0.0))


STEP_DTYPE = np.float32


@dataclass
class TrainTrace:
    """Per-epoch loss components and validation metrics for one run."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = ""


PREDICT_ROWS = 8192


def _eval_pass(model: numcore.MlpModel, x, ws, keep_h: bool = False):
    """`(h, z, p)` of a float64 eval-mode pass, PREDICT_ROWS rows at a time.

    A row's encoder bits depend on its place in its block, and a 1-row
    product runs another kernel; so tiles start at multiples of
    PREDICT_ROWS, a lone last row joins the tile before it, and the result
    equals one whole-array pass bit for bit. `h` is kept only with `keep_h`,
    as STEP_DTYPE.
    """
    x = numcore._as_matrix(np.asarray(x, dtype=np.float64), "x")
    h = np.empty((len(x), model.repr_dim), STEP_DTYPE) if keep_h else None
    z, p = np.empty(len(x)), np.empty(len(x))
    starts = list(range(0, max(len(x) - 1, 1), PREDICT_ROWS))
    for a, b in zip(starts, [*starts[1:], len(x)]):
        cache = numcore.forward(model, x[a:b], "eval", ws=ws)
        z[a:b], p[a:b] = cache.z, cache.p
        if keep_h:
            h[a:b] = cache.h
    return h, z, p


def _train_model(ds: TwoPhaseDataset, teacher: numcore.MlpModel | None,
                 cfg: DistillConfig) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the model of `cfg.mode` as its `MODE_TABLE` row says."""
    cfg = cfg.normalized()
    spec = MODE_TABLE[cfg.mode]
    if spec.needs_teacher and teacher is None:
        raise ConfigError(f"mode {cfg.mode!r} requires a trained teacher")
    if (spec.needs_teacher or spec.features != "pre") and ds.d_in == 0:
        raise DataError(f"mode {cfg.mode!r} requires the in-service block")
    tr, va = ds.mask("train"), ds.mask("valid")
    x_tr = _features(ds, spec.features, tr).astype(STEP_DTYPE, copy=False)
    y_tr, x_va, y_va = ds.y[tr], _features(ds, spec.features, va), ds.y[va]
    n_tr = len(y_tr)

    rng = np.random.default_rng(cfg.seed)
    # pretrain_only draws a fresh first layer from a generator of its own,
    # leaving the training rng unused until the first epoch.
    model = numcore.init_mlp(
        x_tr.shape[1], list(cfg.hidden_dims), cfg.dropout,
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

    n_pos = int(np.count_nonzero(y_tr))
    if n_pos in (0, n_tr):
        raise DataError(f"the train split has {n_pos} positive and "
                        f"{n_tr - n_pos} negative rows; training needs both")
    state = numcore.init_adam(model)
    priors = losses.ClassPriors.from_labels(y_tr)
    reweighted, _ = losses.HARD_TERMS[cfg.hard_term]
    w_tr, w_va = (losses.reweight(y, priors) if reweighted else None
                  for y in (y_tr, y_va))

    # Teacher pass once, eval mode, in a workspace freed before training.
    teacher_h = teacher_z = None
    if spec.needs_teacher and (cfg.alpha > 0.0 or cfg.beta > 0.0):
        teacher_h, z, _ = _eval_pass(
            teacher, _features(ds, MODE_TABLE["teacher"].features, tr),
            numcore.Workspace(), keep_h=cfg.beta > 0.0)
        teacher_z = z if cfg.alpha > 0.0 else None
    ws, eval_ws = numcore.Workspace(), numcore.Workspace()  # by dtype

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
            idx = perm[start:start + cfg.batch_size]
            np.copyto(work.flat, model.flat, casting="same_kind")
            cache = numcore.forward(work, ws.take("x", x_tr, idx), "train",
                                    rng, ws)
            rows_h = None if teacher_h is None \
                else ws.take("teacher_h", teacher_h, idx)
            weights, rows_z, rows_snapshot = (
                None if rows is None else rows[idx]
                for rows in (w_tr, teacher_z, snapshot))
            total, terms = losses.objective(
                cfg, cache, y_tr[idx], weights, rows_h, rows_z,
                rows_snapshot, ws)
            if not np.isfinite(total.value):
                raise TrainingError(f"non-finite loss at epoch {epoch}")

            grads = numcore.backward(work, cache, total.grad_logit,
                                     total.grad_repr, ws)
            numcore.adam_step(model, grads, state, cfg.lr, cfg.weight_decay)

            for term, value in terms.items():
                sums[term] += value * len(idx)
            if new_snapshot is not None:
                new_snapshot[idx] = cache.z
        snapshot = new_snapshot

        p_va = _eval_pass(model, x_va, eval_ws)[2]
        val_loss = losses.hard_loss(cfg, y_va, p_va, w_va).value
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


def _features(ds: TwoPhaseDataset, block: str, rows) -> np.ndarray:
    """The given rows of feature block "pre", "in" or "both" (pre then in)."""
    if block == "both":
        return np.hstack([ds.x_pre[rows], ds.x_in[rows]])
    if block in ("pre", "in"):
        return getattr(ds, f"x_{block}")[rows]
    raise ConfigError(f"unknown feature block {block!r}")


def train_teacher(ds: TwoPhaseDataset,
                  cfg: DistillConfig) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the in-service model: `cfg` in mode "teacher"."""
    return _train_model(ds, None, replace(cfg, mode="teacher"))


def train_student(ds: TwoPhaseDataset, teacher: numcore.MlpModel | None,
                  cfg: DistillConfig) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the pre-service model under the mode-resolved objective."""
    return _train_model(ds, teacher, cfg)


def predict(model: numcore.MlpModel, x) -> np.ndarray:
    """Eval-mode probabilities, tiled in one workspace by `_eval_pass`."""
    return _eval_pass(model, x, numcore.Workspace())[2]


def evaluate_split(model: numcore.MlpModel, ds: TwoPhaseDataset, split: str,
                   features: str = "pre", seed: int | None = None,
                   mode: str = "") -> metrics.EvalReport:
    mask = ds.mask(split)
    return metrics.evaluate(predict(model, _features(ds, features, mask)),
                            ds.y[mask], split=split, seed=seed, mode=mode)


def _run_seed(ds: TwoPhaseDataset, base_cfg: DistillConfig,
              teacher_cfg: DistillConfig, points: list[tuple[str, dict]],
              seed: int) -> list[metrics.EvalReport]:
    cfgs = [replace(base_cfg, seed=seed, **overrides)
            for _, overrides in points]
    teacher = None
    if any(MODE_TABLE[cfg.mode].needs_teacher for cfg in cfgs):
        # The overrides never reach the teacher, so one teacher per seed
        # serves every point.
        teacher, _ = train_teacher(ds, replace(teacher_cfg, seed=seed))
    reports = []
    for (label, _), cfg in zip(points, cfgs):
        model, _ = train_student(ds, teacher, cfg)
        reports.append(evaluate_split(model, ds, "test",
                                      MODE_TABLE[cfg.mode].features,
                                      seed=seed, mode=label))
    return reports


def run_grid(ds: TwoPhaseDataset, base_cfg: DistillConfig, seeds: list[int],
             points: list[tuple[str, dict]], jobs: int = 1,
             teacher_cfg: DistillConfig | None = None,
             ) -> list[list[metrics.EvalReport]]:
    """Test reports for every (seed, point), one list per seed.

    Each point is a `(label, overrides)` pair: its student is `base_cfg`
    with `overrides` applied, and its report carries `label` as the mode.
    The per-seed teacher is trained from `teacher_cfg` (default
    `base_cfg`). With `jobs > 1` the seeds run in that many worker
    processes, at most one per seed.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, len(seeds))
    run = partial(_run_seed, ds, base_cfg, teacher_cfg or base_cfg, points)
    if jobs > 1:
        # Fork is unsafe once BLAS has started threads.
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(jobs, mp_context=ctx) as pool:
            return list(pool.map(run, seeds))
    return [run(seed) for seed in seeds]


def run_ablation(ds: TwoPhaseDataset, base_cfg: DistillConfig,
                 seeds: list[int],
                 modes: tuple[str, ...] = ABLATION_MODES,
                 jobs: int = 1, teacher_cfg: DistillConfig | None = None,
                 ) -> list[metrics.EvalReport]:
    """Train every ablation mode on a shared seed set; report test metrics."""
    per_seed = run_grid(ds, base_cfg, seeds,
                        [(mode, {"mode": mode}) for mode in modes], jobs,
                        teacher_cfg)
    return [report for reports in per_seed for report in reports]


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
