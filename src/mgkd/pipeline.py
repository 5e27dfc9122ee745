"""Training orchestration: teacher, distilled student, ablation modes.

The teacher is fitted on in-service features with the hard loss only. The
student is fitted on pre-service features under the combined objective:
hard/soft label terms, representation alignment against the frozen
teacher, and a self-term against the student's own previous-epoch logits
(inactive during epoch 1). Early stopping watches the hard loss on the
validation split.

`MODE_TABLE` is the one definition of what each student mode implies.
Ablations and sweeps share `run_grid`: one teacher per seed, then every
student point against it.
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
    """What one student mode implies for features, teacher and loss terms."""

    features: str                 # feature block the student reads
    needs_teacher: bool
    init_from_teacher: bool       # start from the teacher's weights
    zeroed: tuple[str, ...] = ()  # DistillConfig weights forced to 0
    ablated: bool = True          # a row of the ablation table


_ALL_TERMS = ("alpha", "beta", "lam")

# Rows in ablation-table order, weakest to strongest. Columns: features,
# needs_teacher, init_from_teacher, zeroed.
MODE_TABLE = {
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


@dataclass
class TrainTrace:
    """Per-epoch loss components and validation metrics for one run."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = ""


def _train_model(x_tr, y_tr, x_va, y_va, cfg: DistillConfig, *,
                 teacher: numcore.MlpModel | None = None,
                 teacher_x=None,
                 init_from: numcore.MlpModel | None = None,
                 ) -> tuple[numcore.MlpModel, TrainTrace]:
    """Core loop shared by teacher, student, and baseline training."""
    n_tr = x_tr.shape[0]
    rng = np.random.default_rng(cfg.seed)
    if init_from is not None:
        model = init_from
    else:
        model = numcore.init_mlp(x_tr.shape[1], list(cfg.hidden_dims),
                                 cfg.dropout, rng)
    if cfg.beta > 0.0 and teacher is not None \
            and teacher.repr_dim != model.repr_dim:
        raise ConfigError(
            f"representation widths differ: teacher {teacher.repr_dim}, "
            f"student {model.repr_dim}")

    state = numcore.init_adam(model)
    priors = losses.ClassPriors.from_labels(y_tr)
    reweighted, _ = losses.HARD_TERMS[cfg.hard_term]
    w_tr, w_va = (losses.reweight(y, priors) if reweighted else None
                  for y in (y_tr, y_va))

    # Teacher pass once over the full train set, eval mode (frozen, rng-free).
    teacher_h = teacher_z = None
    if teacher is not None and (cfg.alpha > 0.0 or cfg.beta > 0.0):
        t_cache = numcore.forward(teacher, teacher_x, "eval")
        teacher_h = t_cache.h if cfg.beta > 0.0 else None
        teacher_z = t_cache.z if cfg.alpha > 0.0 else None
        del t_cache  # frees every other layer's train-set activations

    hard_only = replace(cfg, alpha=0.0, beta=0.0, lam=0.0)
    batch_size = min(cfg.batch_size, n_tr)
    ws = numcore.Workspace(model, batch_size)
    snapshot = None
    trace = TrainTrace(stop_reason="max_epochs")
    best_val = np.inf
    best_model = model.copy()

    for epoch in range(cfg.max_epochs):
        new_snapshot = np.empty(n_tr) if cfg.lam > 0.0 else None
        perm = rng.permutation(n_tr)
        sums = defaultdict(float)  # term -> sum over rows, objective's order
        for start in range(0, n_tr, batch_size):
            idx = perm[start:start + batch_size]
            cache = numcore.forward(model, ws.take("x", x_tr, idx), "train",
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

            grads = numcore.backward(model, cache, total.grad_logit,
                                     total.grad_repr, ws)
            numcore.adam_step(model, grads, state, cfg.lr, cfg.weight_decay)

            for term, value in terms.items():
                sums[term] += value * len(idx)
            if new_snapshot is not None:
                new_snapshot[idx] = cache.z
        snapshot = new_snapshot

        va_cache = numcore.forward(model, x_va, "eval")
        val_loss = losses.objective(hard_only, va_cache, y_va,
                                    w_va)[0].value
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        report = metrics.evaluate(va_cache.p, y_va, split="valid",
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


def _split_xy(ds: TwoPhaseDataset, block: str):
    tr, va = ds.mask("train"), ds.mask("valid")
    return (_features(ds, block, tr), ds.y[tr],
            _features(ds, block, va), ds.y[va])


def train_teacher(ds: TwoPhaseDataset,
                  cfg: DistillConfig) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the in-service model with the hard loss only."""
    if ds.d_in == 0:
        raise DataError("teacher training requires the in-service block")
    cfg = replace(cfg, alpha=0.0, beta=0.0, lam=0.0, mode="full")
    return _train_model(*_split_xy(ds, "in"), cfg)


def train_student(ds: TwoPhaseDataset, teacher: numcore.MlpModel | None,
                  cfg: DistillConfig) -> tuple[numcore.MlpModel, TrainTrace]:
    """Fit the pre-service model under the mode-resolved objective."""
    cfg = cfg.normalized()
    spec = MODE_TABLE[cfg.mode]
    if spec.needs_teacher and teacher is None:
        raise ConfigError(f"mode {cfg.mode!r} requires a trained teacher")
    if (spec.needs_teacher or spec.features != "pre") and ds.d_in == 0:
        raise DataError(f"mode {cfg.mode!r} requires the in-service block")

    init_from = None
    if spec.init_from_teacher:
        layers = teacher.layers()
        if teacher.input_dim != ds.d_pre:
            # Feature widths differ: the first layer cannot be transferred.
            rng = np.random.default_rng(cfg.seed)
            layers[0] = numcore.init_mlp(ds.d_pre, list(cfg.hidden_dims),
                                         cfg.dropout, rng).layers()[0]
        init_from = numcore.MlpModel.from_layers(layers,
                                                 teacher.dropout_rate)

    teacher_x = _features(ds, "in", ds.mask("train")) \
        if spec.needs_teacher else None
    return _train_model(*_split_xy(ds, spec.features), cfg,
                        teacher=teacher if spec.needs_teacher else None,
                        teacher_x=teacher_x, init_from=init_from)


def predict(model: numcore.MlpModel, x) -> np.ndarray:
    """Deterministic eval-mode probabilities."""
    return numcore.forward(model, x, "eval").p


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
    processes.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
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
