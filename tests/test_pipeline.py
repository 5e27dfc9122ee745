import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mgkd
from mgkd import data, losses, metrics, modelio, numcore, pipeline
from mgkd.errors import ConfigError, DataError, TrainingError
from mgkd.pipeline import (PREDICT_ROWS, DistillConfig, evaluate_split,
                           predict, train_student, train_teacher)

from conftest import ablation, peak_bytes


@pytest.fixture(scope="module")
def small_ds():
    cfg = data.SyntheticConfig(n=4000, d_pre=5, d_in=5, positive_rate=0.12,
                               snr_pre=0.08, snr_in_base=0.6,
                               window_days=30, window_gain=0.5, seed=11)
    ds = data.temporal_split(data.generate_synthetic(cfg), 0.15, 0.15)
    return data.apply_standardize(ds, data.fit_standardize(ds))


@pytest.fixture(scope="module")
def uneven_ds():
    """A dataset whose pre-service block is narrower than its in block."""
    cfg = data.SyntheticConfig(n=1500, d_pre=3, d_in=6, positive_rate=0.12,
                               snr_pre=0.08, snr_in_base=0.6,
                               window_days=30, window_gain=0.5, seed=5)
    ds = data.temporal_split(data.generate_synthetic(cfg), 0.15, 0.15)
    return data.apply_standardize(ds, data.fit_standardize(ds))


def small_cfg(**kw):
    base = dict(hidden_dims=(16, 16), dropout=0.1, lr=0.005,
                weight_decay=1e-7, batch_size=1024, max_epochs=6,
                patience=3, seed=0)
    base.update(kw)
    return DistillConfig(**base)


def model_bytes(model):
    return b"".join(a.tobytes() for _, a in model.param_arrays())


class TestConfig:
    def test_mode_constraints(self):
        cfg = DistillConfig(alpha=0.3, beta=0.4, lam=0.2, mode="no_coarse")
        assert cfg.normalized().beta == 0.0
        assert DistillConfig(mode="no_fine").normalized().alpha == 0.0
        assert DistillConfig(mode="no_self").normalized().lam == 0.0
        base = DistillConfig(mode="baseline_pre").normalized()
        assert (base.alpha, base.beta, base.lam) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("mode, tau, feat_metric", [
        ("teacher", 2.5, "mse"), ("baseline_pre", 2.5, "mse"),
        ("no_fine", 3.0, "cosine"), ("no_coarse", 3.0, "mse"),
        ("no_self", 3.0, "cosine"), ("full", 3.0, "cosine")])
    def test_unread_settings_reset(self, mode, tau, feat_metric):
        # tau is read by the soft (α) and self (λ) terms, feat_metric by the
        # feat (β) term; a setting no term reads keeps its default.
        out = DistillConfig(tau=3.0, feat_metric="cosine",
                            mode=mode).normalized()
        assert (out.tau, out.feat_metric) == (tau, feat_metric)
        assert replace(out, alpha=0.0, lam=0.0).normalized().tau == 2.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            DistillConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            DistillConfig(tau=0.5)
        with pytest.raises(ConfigError, match="nonnegative"):
            DistillConfig(beta=-0.1)
        with pytest.raises(ConfigError, match="nonnegative"):
            DistillConfig(lam=-0.1)
        with pytest.raises(ConfigError):
            DistillConfig(mode="bogus")
        with pytest.raises(ConfigError):
            DistillConfig(hard_term="hinge")
        with pytest.raises(ConfigError, match="^unknown feat_metric 'bogus'$"):
            DistillConfig(feat_metric="bogus")


@pytest.mark.parametrize("hard_term", pipeline.HARD_TERMS)
def test_validation_loss_is_the_named_hard_term(small_ds, hard_term):
    cfg = small_cfg(mode="baseline_pre", hard_term=hard_term, max_epochs=1)
    model, trace = train_student(small_ds, None, cfg)
    va = small_ds.mask("valid")
    y_va, p = small_ds.y[va], predict(model, small_ds.x_pre[va])
    weights = None
    if hard_term == "reweighted":
        y_tr = small_ds.y[small_ds.mask("train")]
        weights = losses.reweight(y_va, float(np.mean(y_tr == 1)))
    ref = losses.kl_hard(y_va, p, weights)
    assert trace.epochs[0]["val_loss"] == ref.value


def parent_train_model(x_tr, y_tr, x_va, y_va, cfg, teacher=None,
                       teacher_x=None, dtype=np.float64, init=None):
    """The training loop from before the workspace: allocating passes,
    `x_tr[idx]` gathers, a zeros `grad_repr` and a snapshot every epoch.

    A frozen reference: training must match it bit for bit. `dtype`
    is the step's precision. Its casts are no-ops at float64: the train
    rows and the teacher representation are cast once, each step runs on
    a `dtype` copy of the model, and the gradients are cast back for Adam.
    An `init` model is trained instead of one drawn from the rng.
    """
    from collections import defaultdict
    from mgkd import numcore
    n_tr = x_tr.shape[0]
    rng = np.random.default_rng(cfg.seed)
    model = init or numcore.init_mlp(x_tr.shape[1], list(cfg.hidden_dims),
                                     cfg.dropout, rng)
    state = numcore.init_adam(model)
    pi1 = float(np.mean(y_tr == 1))
    reweighted = cfg.hard_term == "reweighted"
    w_tr, w_va = (losses.reweight(y, pi1) if reweighted else None
                  for y in (y_tr, y_va))
    teacher_h = teacher_z = None
    if teacher is not None and (cfg.alpha > 0.0 or cfg.beta > 0.0):
        t_cache = numcore.forward(teacher, teacher_x, "eval")
        teacher_h = t_cache.h.astype(dtype) if cfg.beta > 0.0 else None
        teacher_z = t_cache.z if cfg.alpha > 0.0 else None
    x_step = x_tr.astype(dtype)
    hard_only = replace(cfg, alpha=0.0, beta=0.0, lam=0.0)
    batch_size = min(cfg.batch_size, n_tr)
    snapshot = None
    trace = pipeline.TrainTrace(stop_reason="max_epochs")
    best_val = np.inf
    best_model = model.copy()
    for epoch in range(cfg.max_epochs):
        new_snapshot = np.empty(n_tr)
        perm = rng.permutation(n_tr)
        sums = defaultdict(float)
        for start in range(0, n_tr, batch_size):
            idx = perm[start:start + batch_size]
            work = numcore.MlpModel(model.flat.astype(dtype), model.shapes,
                                    model.dropout_rate)
            cache = numcore.forward(work, x_step[idx], "train", rng)
            total, terms = losses.objective(
                cfg, cache, y_tr[idx],
                *(None if rows is None else rows[idx]
                  for rows in (w_tr, teacher_h, teacher_z, snapshot)))
            grad_repr = total.grad_repr
            if grad_repr is None:
                grad_repr = np.zeros_like(cache.h)
            grads = numcore.backward(work, cache, total.grad_logit,
                                     grad_repr)
            grads = numcore.FlatParams(grads.flat.astype(np.float64),
                                       grads.shapes)
            numcore.adam_step(model, grads, state, cfg.lr, cfg.weight_decay)
            for term, value in terms.items():
                sums[term] += value * len(idx)
            new_snapshot[idx] = cache.z
        snapshot = new_snapshot if cfg.lam > 0.0 else None
        va_cache = numcore.forward(model, x_va, "eval")
        val_loss = losses.objective(hard_only, va_cache, y_va,
                                    w_va)[0].value
        report = metrics.evaluate(va_cache.p, y_va, split="valid",
                                  seed=cfg.seed, mode=cfg.mode)
        trace.epochs.append({
            "epoch": epoch,
            **{term: value / n_tr for term, value in sums.items()},
            "val_loss": val_loss, "val_auc": report.auc,
            "val_ks": report.ks, "val_recall": report.recall_at_k})
        if val_loss < best_val:
            best_val = val_loss
            best_model = model.copy()
            trace.best_epoch = epoch
        if epoch - trace.best_epoch > cfg.patience:
            trace.stop_reason = "early_stop"
            break
    return best_model, trace


def _parent_loop_cases(test):
    test = pytest.mark.parametrize("terms, feat_metric", [
        ((0.0, 0.0, 0.0), "mse"), ((0.2, 0.25, 0.1), "mse"),
        ((0.0, 0.25, 0.0), "cosine"), ((1.0, 0.0, 0.3), "mse")])(test)
    return pytest.mark.parametrize("dropout", [0.0, 0.2])(test)


@_parent_loop_cases
def test_train_model_matches_parent_loop(small_ds, monkeypatch, dropout,
                                         terms, feat_metric):
    # With a float64 step the loop is the parent's, bit for bit.
    monkeypatch.setattr(pipeline, "STEP_DTYPE", np.float64)
    _check_against_parent_loop(small_ds, dropout, terms, feat_metric,
                               np.float64)


@_parent_loop_cases
def test_float32_step_matches_cast_parent_loop(small_ds, dropout, terms,
                                               feat_metric):
    # The default float32 step is the parent loop with its casts, bit for
    # bit, and still returns a float64 model.
    assert pipeline.STEP_DTYPE is np.float32
    model = _check_against_parent_loop(small_ds, dropout, terms,
                                       feat_metric, np.float32)
    assert model.flat.dtype == np.float64


def _check_against_parent_loop(small_ds, dropout, terms, feat_metric, dtype):
    # 3 epochs of batches 1024, 1024 and a short 752.
    alpha, beta, lam = terms
    cfg = small_cfg(alpha=alpha, beta=beta, lam=lam, dropout=dropout,
                    feat_metric=feat_metric, hard_term="reweighted",
                    max_epochs=3)
    teacher, _ = train_teacher(small_ds, small_cfg(max_epochs=2))
    tr, va = small_ds.mask("train"), small_ds.mask("valid")
    x_tr, y_tr = small_ds.x_pre[tr], small_ds.y[tr]
    x_va, y_va = small_ds.x_pre[va], small_ds.y[va]
    assert x_tr.shape[0] % cfg.batch_size > 0
    teacher_x = small_ds.x_in[tr]
    model, trace = train_student(small_ds, teacher, cfg)
    ref_model, ref_trace = parent_train_model(x_tr, y_tr, x_va, y_va, cfg,
                                              teacher, teacher_x, dtype)
    assert model_bytes(model) == model_bytes(ref_model)
    assert trace == ref_trace
    assert len(trace.epochs) == 3
    return model


class TestModeTable:
    def test_one_record_per_mode(self):
        assert list(pipeline.MODE_TABLE) == list(pipeline.MODES)
        assert len(set(pipeline.MODES)) == len(pipeline.MODES)
        assert set(pipeline.ABLATION_MODES) <= set(pipeline.MODES)
        for mode, spec in pipeline.MODE_TABLE.items():
            assert spec.features in (("in",) if mode == "teacher"
                                     else ("pre", "both"))
            assert set(spec.zeroed) <= {"alpha", "beta", "lam"}
            assert spec.needs_teacher or not spec.init_from_teacher

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_normalized_zeroes_exactly_the_table_terms(self, mode):
        cfg = DistillConfig(alpha=0.3, beta=0.4, lam=0.2, mode=mode)
        out = cfg.normalized()
        for term in ("alpha", "beta", "lam"):
            zeroed = term in pipeline.MODE_TABLE[mode].zeroed
            assert getattr(out, term) == (0.0 if zeroed
                                          else getattr(cfg, term))

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_teacher_required_exactly_where_marked(self, small_ds, mode):
        cfg = small_cfg(mode=mode, max_epochs=0)
        if pipeline.MODE_TABLE[mode].needs_teacher:
            with pytest.raises(ConfigError, match="teacher"):
                train_student(small_ds, None, cfg)
        else:
            model, _ = train_student(small_ds, None, cfg)
            width = {"pre": small_ds.d_pre, "in": small_ds.d_in,
                     "both": small_ds.d_pre + small_ds.d_in}
            assert model.input_dim \
                == width[pipeline.MODE_TABLE[mode].features]


class TestTeacher:
    def test_zero_epochs(self, small_ds):
        model, trace = train_teacher(small_ds, small_cfg(max_epochs=0))
        assert trace.epochs == []
        assert trace.stop_reason == "max_epochs"
        assert model.input_dim == small_ds.d_in

    def test_deterministic(self, small_ds):
        _, a = train_teacher(small_ds, small_cfg())
        _, b = train_teacher(small_ds, small_cfg())
        assert a.epochs == b.epochs

    def test_beats_pre_features(self, small_ds):
        # The in-service block has the higher SNR by construction.
        diffs = []
        for seed in (0, 1, 2):
            cfg = small_cfg(seed=seed, max_epochs=10)
            teacher, tt = train_teacher(small_ds, cfg)
            _, bt = train_student(small_ds, None,
                                  replace(cfg, mode="baseline_pre"))
            diffs.append(max(e["val_auc"] for e in tt.epochs)
                         - max(e["val_auc"] for e in bt.epochs))
        assert np.mean(diffs) > 0

    def test_requires_in_block(self, small_ds):
        ds = replace(small_ds, x_in=np.zeros((small_ds.n, 0)))
        with pytest.raises(DataError, match="in-service block"):
            train_teacher(ds, small_cfg())

    def test_is_the_teacher_mode(self, small_ds):
        cfg = small_cfg(max_epochs=2)
        model, trace = train_teacher(small_ds, cfg)
        ref_model, ref_trace = train_student(small_ds, None,
                                             replace(cfg, mode="teacher"))
        assert model_bytes(model) == model_bytes(ref_model)
        assert trace == ref_trace

    def test_model_file_keeps_requested_rate(self, small_ds, tmp_path):
        # Training uses 13107/65536, but the file stores the rate asked for.
        model, _ = train_teacher(small_ds, small_cfg(dropout=0.2,
                                                     max_epochs=1))
        modelio.save_model(model, tmp_path / "t.mgkd", "in")
        assert modelio.load_model(tmp_path / "t.mgkd")[0].dropout_rate == 0.2


class TestStudent:
    def test_inert_distillation_bitwise(self, small_ds):
        # full mode with all coefficients zero must reproduce baseline_pre.
        teacher, _ = train_teacher(small_ds, small_cfg())
        cfg_full = small_cfg(alpha=0.0, beta=0.0, lam=0.0, mode="full")
        cfg_base = small_cfg(mode="baseline_pre")
        m_full, _ = train_student(small_ds, teacher, cfg_full)
        m_base, _ = train_student(small_ds, None, cfg_base)
        assert model_bytes(m_full) == model_bytes(m_base)

    def test_teacher_frozen(self, small_ds):
        teacher, _ = train_teacher(small_ds, small_cfg())
        before = model_bytes(teacher)
        train_student(small_ds, teacher, small_cfg(mode="full"))
        assert model_bytes(teacher) == before

    def test_snapshot_gating(self, small_ds):
        teacher, _ = train_teacher(small_ds, small_cfg())
        _, trace = train_student(small_ds, teacher,
                                 small_cfg(mode="full", lam=0.5))
        assert trace.epochs[0]["self"] == 0.0
        assert trace.epochs[1]["self"] > 0.0

    def test_missing_teacher(self, small_ds):
        with pytest.raises(ConfigError):
            train_student(small_ds, None, small_cfg(mode="full"))

    def test_repr_width_mismatch(self, small_ds):
        teacher, _ = train_teacher(small_ds, small_cfg(hidden_dims=(16, 8)))
        with pytest.raises(ConfigError):
            train_student(small_ds, teacher,
                          small_cfg(mode="full", beta=0.25))

    def test_early_stopping_halts(self, small_ds):
        _, trace = train_teacher(
            small_ds, small_cfg(max_epochs=40, patience=2, lr=0.05))
        if trace.stop_reason == "early_stop":
            last = trace.epochs[-1]["epoch"]
            assert last - trace.best_epoch == 3
            assert last < 39
        else:
            assert len(trace.epochs) == 40

    def test_best_epoch_is_min_val_loss(self, small_ds):
        _, trace = train_teacher(small_ds, small_cfg(max_epochs=8))
        val = [e["val_loss"] for e in trace.epochs]
        assert trace.best_epoch == int(np.argmin(val))

    def test_pretrain_only_initializes_from_teacher(self, small_ds):
        teacher, _ = train_teacher(small_ds, small_cfg())
        cfg = small_cfg(mode="pretrain_only", max_epochs=0)
        model, _ = train_student(small_ds, teacher, cfg)
        assert model_bytes(model) == model_bytes(teacher)

    def test_pretrain_only_uses_student_dropout(self, small_ds):
        teacher, _ = train_teacher(small_ds, small_cfg(dropout=0.1))
        model, _ = train_student(small_ds, teacher,
                                 small_cfg(mode="pretrain_only", dropout=0.3,
                                           max_epochs=1))
        assert model.dropout_rate == 0.3

    @pytest.mark.parametrize("dataset", ["small_ds", "uneven_ds"])
    def test_pretrain_only_needs_teacher_hidden_dims(self, request, dataset):
        ds = request.getfixturevalue(dataset)
        teacher, _ = train_teacher(ds, small_cfg(max_epochs=1))
        with pytest.raises(ConfigError, match=r"teacher \(16, 16\), "
                           r"student \(8, 8\)"):
            train_student(ds, teacher, small_cfg(mode="pretrain_only",
                                                 hidden_dims=(8, 8)))

    def test_pretrain_only_reinits_mismatched_first_layer(self, uneven_ds):
        teacher, _ = train_teacher(uneven_ds, small_cfg())
        model, _ = train_student(uneven_ds, teacher,
                                 small_cfg(mode="pretrain_only",
                                           max_epochs=0))
        assert model.input_dim == 3
        assert np.array_equal(model.encoder[1].weights,
                              teacher.encoder[1].weights)

    @pytest.mark.parametrize("dataset", ["small_ds", "uneven_ds"])
    def test_pretrain_only_matches_parent_loop(self, request, dataset):
        # The parent loop from the teacher's layers, with a first layer of
        # its own seed where the blocks differ in width: the
        # re-initialisation leaves the training rng untouched.
        ds = request.getfixturevalue(dataset)
        teacher, _ = train_teacher(ds, small_cfg(max_epochs=2))
        cfg = small_cfg(mode="pretrain_only", dropout=0.2, max_epochs=3)
        model, trace = train_student(ds, teacher, cfg)
        layers = teacher.layers()
        if ds.d_pre != ds.d_in:
            layers[0] = numcore.init_mlp(
                ds.d_pre, list(cfg.hidden_dims), cfg.dropout,
                np.random.default_rng(cfg.seed)).layers()[0]
        tr, va = ds.mask("train"), ds.mask("valid")
        ref_model, ref_trace = parent_train_model(
            ds.x_pre[tr], ds.y[tr], ds.x_pre[va], ds.y[va], cfg.normalized(),
            dtype=np.float32,
            init=numcore.MlpModel.from_layers(layers, cfg.dropout))
        assert model_bytes(model) == model_bytes(ref_model)
        assert trace == ref_trace


class TestPredict:
    def test_zero_weight_model(self, small_ds):
        model, _ = train_teacher(small_ds, small_cfg(max_epochs=0))
        for _, arr in model.param_arrays():
            arr[...] = 0.0
        p = predict(model, small_ds.x_in[:7])
        assert np.array_equal(p, np.full(7, 0.5))

    def test_row_permutation(self, small_ds):
        model, _ = train_teacher(small_ds, small_cfg())
        x = small_ds.x_in[:50]
        perm = np.random.default_rng(0).permutation(50)
        assert np.array_equal(predict(model, x)[perm], predict(model, x[perm]))

    def test_rejects_bad_shapes(self):
        model = numcore.init_mlp(20, [8], 0.0, np.random.default_rng(0))
        for x in (np.zeros(20), np.zeros((3, 19)), np.zeros((0, 19)),
                  np.zeros((PREDICT_ROWS + 2, 21)), 0.5):
            with pytest.raises(DataError, match=r"must be 2-D|input has "
                               r"(19|21) columns, model expects 20"):
                predict(model, x)

    def test_tiles_allocate_less_than_one_layer_output(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        rows, width = 100_000, 64
        model = numcore.init_mlp(20, [width, width], 0.2,
                                 np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((rows, 20))
        # One tile's activations and masks plus `p`: about 10 MB. A
        # workspace that also held the training buffers peaked at 36.5 MB.
        assert peak_bytes(lambda: predict(model, x)) < 16 * 10**6
        # A second worker adds its own tile activations, about 8.4 MB.
        monkeypatch.setattr(pipeline, "worker_count", lambda *args: 2)
        assert peak_bytes(lambda: predict(model, x)) < 25 * 10**6
        one_output = rows * width * 8
        assert peak_bytes(lambda: numcore.forward(model, x, "eval")) \
            > one_output

    def test_student_ignores_in_service(self, small_ds):
        teacher, _ = train_teacher(small_ds, small_cfg())
        model, _ = train_student(small_ds, teacher, small_cfg(mode="full"))
        garbage = replace(small_ds, x_in=np.random.default_rng(9)
                          .standard_normal(small_ds.x_in.shape) * 1e6)
        a = evaluate_split(model, small_ds, "test", "pre")
        b = evaluate_split(model, garbage, "test", "pre")
        assert (a.auc, a.ks, a.recall_at_k) == (b.auc, b.ks, b.recall_at_k)


def _child_json(script: str, blas_threads: str, file: Path | None = None):
    """The JSON that `script` prints, run in a child with that many BLAS
    threads: from `file`, if given, else with `-c`."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "OMP_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(
               [str(Path(mgkd.__file__).parents[1]),
                os.environ.get("PYTHONPATH", "")])}
    args = ["-c", script]
    if file:
        file.write_text(script)
        args = [file]
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# The tiled pass on 1, 2 and 3 workers against one whole-array pass:
# `predict`'s p, and the pass's p, z and kept h (as STEP_DTYPE), over one
# workspace per model.
WHOLE_PASS_SCRIPT = """
import itertools
import json
import numpy as np
from mgkd import numcore, pipeline
R = pipeline.PREDICT_ROWS
x = np.random.default_rng(0).standard_normal((40000, 20))
bad = []
for rate in (0.0, 0.3):
    for width, sizes in ((64, (0, 1, 2, R - 1, R, R + 1, R + 2, 3 * R + 7,
                               12000)), (256, (40000,))):
        model = numcore.init_mlp(20, [width, width], rate,
                                 np.random.default_rng(1))
        ws = numcore.Workspace()
        for n, workers in itertools.product(sizes, (1, 2, 3)):
            whole = numcore.forward(model, x[:n], "eval")
            h, z, p = pipeline._eval_pass(model, x[:n], ws, keep_h=True,
                                          workers=workers)
            pairs = ((pipeline.predict(model, x[:n]), whole.p), (p, whole.p),
                     (z, whole.z), (h, whole.h.astype(pipeline.STEP_DTYPE)))
            if any(a.tobytes() != b.tobytes() for a, b in pairs):
                bad.append([rate, width, n, workers])
print(json.dumps(bad))
"""


def test_tiled_predict_matches_whole_pass():
    for blas_threads in ("1", "2"):
        # (dropout, width, rows, workers) that differ
        assert _child_json(WHOLE_PASS_SCRIPT, blas_threads) == [], \
            blas_threads


# Prints, for each row count, the sha256 of an eval pass's z and p bytes.
EVAL_PASS_SCRIPT = """
import hashlib, json
import numpy as np
from mgkd import numcore
x = np.random.default_rng(0).standard_normal((22317, 20))
model = numcore.init_mlp(20, [64, 64], 0.2, np.random.default_rng(1))
digests = {}
for n in (9969, 22317):
    cache = numcore.forward(model, x[:n], "eval")
    zp = cache.z.tobytes() + cache.p.tobytes()
    digests[n] = hashlib.sha256(zp).hexdigest()
print(json.dumps(digests))
"""


def test_eval_pass_does_not_depend_on_blas_threads():
    assert _child_json(EVAL_PASS_SCRIPT, "1") == \
        _child_json(EVAL_PASS_SCRIPT, "2")


# Trains a teacher and a full student in 1,000-row batches, which are not
# multiples of 32 rows; prints both models' sha256 and both traces.
TRAINING_SCRIPT = """
import hashlib, json
from mgkd import data, pipeline
ds = data.temporal_split(data.generate_synthetic(data.SyntheticConfig(
    n=5000, seed=3)), 0.1, 0.1)
ds = data.apply_standardize(ds, data.fit_standardize(ds))
cfg = pipeline.DistillConfig(hidden_dims=(64, 64), dropout=0.2,
                             batch_size=1000, max_epochs=3, patience=3,
                             seed=3)
teacher, teacher_trace = pipeline.train_teacher(ds, cfg)
student, student_trace = pipeline.train_student(ds, teacher, cfg)
print(json.dumps([hashlib.sha256(teacher.flat.tobytes()).hexdigest(),
                  hashlib.sha256(student.flat.tobytes()).hexdigest(),
                  teacher_trace.epochs, student_trace.epochs]))
"""


def test_training_does_not_depend_on_blas_threads():
    # The weight gradients sum their rows in two products split at a
    # multiple of 32, so the bits do not depend on the thread count.
    assert _child_json(TRAINING_SCRIPT, "1") == \
        _child_json(TRAINING_SCRIPT, "2")


def test_model_key_does_not_depend_on_blas_threads(monkeypatch):
    # Training bits do not depend on the thread count, so a store stays
    # valid when the thread variables change; the manifests record them.
    cfg = DistillConfig(mode="full")
    keys = set()
    for blas_threads in (None, "1", "2"):
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        assert pipeline.environment()["OPENBLAS_NUM_THREADS"] == blas_threads
        keys.add(pipeline.model_key("data", cfg, "teacher"))
    assert len(keys) == 1


@pytest.fixture(scope="module")
def tiled_ds():
    """A dataset whose train and valid splits each span several tiles."""
    ds = data.temporal_split(data.generate_synthetic(data.SyntheticConfig(
        n=20_000, d_pre=5, d_in=5, seed=2)), 0.45, 0.1)
    assert min(ds.mask("train").sum(), ds.mask("valid").sum()) \
        > PREDICT_ROWS + 1
    return ds


def test_training_eval_passes_are_tiled(tiled_ds, monkeypatch):
    # The teacher pass covers every train row and validation every valid
    # row; whole-array passes would run forwards over 9,000 rows each.
    ds = tiled_ds
    teacher, _ = train_teacher(ds, small_cfg(max_epochs=1))
    eval_rows, forward = [], numcore.forward

    def recording_forward(model, x, mode="eval", *args, **kwargs):
        if mode == "eval":
            eval_rows.append(len(x))
        return forward(model, x, mode, *args, **kwargs)

    monkeypatch.setattr(numcore, "forward", recording_forward)
    train_student(ds, teacher, small_cfg(mode="full", max_epochs=2))
    assert sum(eval_rows) == ds.mask("train").sum() \
        + 2 * ds.mask("valid").sum()
    assert max(eval_rows) <= PREDICT_ROWS + 1


R = PREDICT_ROWS


@pytest.mark.parametrize("batch_size", [R - 1, R, R + 1])
def test_one_tile_batches_match_the_parent_step(tiled_ds, batch_size):
    # A batch of at most one tile (R + 1 rows: a lone row joins its tile)
    # runs as one whole-batch step, bit for bit.
    ds = tiled_ds
    cfg = small_cfg(mode="full", dropout=0.2, batch_size=batch_size,
                    max_epochs=2)
    teacher, _ = train_teacher(ds, small_cfg(max_epochs=1))
    model, trace = train_student(ds, teacher, cfg)
    ref_model, ref_trace = parent_train_model(
        ds.features("pre", "train"), ds.labels("train"),
        ds.features("pre", "valid"), ds.labels("valid"), cfg, teacher,
        ds.features("in", "train"), np.float32)
    assert model_bytes(model) == model_bytes(ref_model)
    assert trace == ref_trace


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tiled_batch_gradient_matches_whole_batch(monkeypatch, dtype):
    # One batch of every train row, about 2.5 tiles, at dropout 0: the
    # summed tile gradients that Adam receives against a float64
    # whole-batch step on the same weights.
    ds = data.temporal_split(data.generate_synthetic(data.SyntheticConfig(
        n=25_600, d_pre=5, d_in=5, seed=2)), 0.1, 0.1)
    x, y = ds.features("pre", "train"), ds.labels("train")
    assert 2 * R < len(y) < 3 * R
    teacher = numcore.init_mlp(5, [16, 16], 0.0, np.random.default_rng(1))
    cfg = small_cfg(mode="full", dropout=0.0, batch_size=len(y),
                    max_epochs=1, hard_term="reweighted")
    steps = []
    monkeypatch.setattr(pipeline, "STEP_DTYPE", dtype)
    monkeypatch.setattr(numcore, "adam_step", lambda model, grads, *args:
                        steps.append((model.copy(), grads.flat.copy())))
    train_student(ds, teacher, cfg)
    [(model, summed)] = steps
    assert summed.dtype == dtype
    taught = numcore.forward(teacher, ds.features("in", "train"))
    cache = numcore.forward(model, x, "train")
    total, _ = losses.objective(
        cfg, cache, y, losses.reweight(y, np.count_nonzero(y) / len(y)),
        taught.h, taught.z)
    ref = numcore.backward(model, cache, total.grad_logit, total.grad_repr)
    np.testing.assert_allclose(summed, ref.flat, rtol=1e-5)


def test_multi_tile_grid_bits_do_not_depend_on_workers(tiled_ds, tmp_path,
                                                       monkeypatch):
    # One batch of every train row, two tiles: a re-run and runs on 2 and
    # 3 grid threads give the same bytes as the first run.
    cfg = small_cfg(max_epochs=2, batch_size=100_000)
    outputs = [_grid_outputs(tiled_ds, tmp_path / str(run), [0], cfg,
                             monkeypatch, workers)
               for run, workers in enumerate((1, 1, 2, 3))]
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("keep_h", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_eval_pass_bits_do_not_depend_on_workers(workers, keep_h, dropout):
    x = np.random.default_rng(0).standard_normal((3 * R + 7, 20))
    model = numcore.init_mlp(20, [64, 64], dropout, np.random.default_rng(1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many thread switches inside each pass
    try:
        for n in (0, 1, 2, R - 1, R, R + 1, R + 2, 3 * R + 7):
            one = pipeline._eval_pass(model, x[:n], numcore.Workspace(),
                                      keep_h)
            threads = threading.active_count()
            many = pipeline._eval_pass(model, x[:n], numcore.Workspace(),
                                       keep_h, workers)
            assert threading.active_count() == threads
            assert [None if a is None else a.tobytes() for a in one] == \
                [None if a is None else a.tobytes() for a in many], n
    finally:
        sys.setswitchinterval(interval)


def test_worker_error_reaches_the_caller():
    x = np.random.default_rng(0).standard_normal((3 * R + 7, 20))
    x[2 * R + 5, 3] = np.nan  # in the third tile
    model = numcore.init_mlp(20, [16], 0.0, np.random.default_rng(1))
    threads = threading.active_count()
    with pytest.raises(TrainingError, match="^forward pass produced "
                       "non-finite activations$"):
        pipeline._eval_pass(model, x, numcore.Workspace(), workers=2)
    assert threading.active_count() == threads


@pytest.mark.parametrize("env, cpus, rows, workers", [
    ({}, 4, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 10 * R, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 7, 10 * R, 7),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 10 * R, 4),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 4, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 4, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": "two"}, 4, 10 * R, 1),
    ({"OMP_NUM_THREADS": "1"}, 4, 10 * R, 4),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, 10 * R, 2),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 10 * R, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 0, 1),       # one tile
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, R + 1, 1),   # still one tile
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3 * R, 3),   # three tiles
])
def test_worker_rule(monkeypatch, env, cpus, rows, workers):
    # `predict` and the `eval` manifest: one item per tile, one group.
    _set_cpus(monkeypatch, env, cpus)
    assert pipeline.worker_count(len(pipeline._tiles(rows))) == workers


def _set_cpus(monkeypatch, env, cpus):
    """Only the thread variables in `env` set, and `cpus` usable CPUs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_training_passes_start_no_threads(tiled_ds, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(pipeline, "worker_count", lambda *args: 2)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    teacher, _ = train_teacher(tiled_ds, small_cfg(max_epochs=1))
    model, _ = train_student(tiled_ds, teacher,
                             small_cfg(mode="full", max_epochs=1))
    with pytest.raises(AssertionError, match="thread pool"):
        predict(model, tiled_ds.features("pre", "train"))


def test_one_seed_grid_starts_no_workers(small_ds, monkeypatch, tmp_path):
    # One seed runs in the calling thread, whatever --jobs says.
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    reports, _ = pipeline.run_grid(
        small_ds, small_cfg(max_epochs=1), [0],
        [("baseline_pre", {"mode": "baseline_pre"})], tmp_path, jobs=2)
    assert [[r.mode for r in seed] for seed in reports] == [["baseline_pre"]]


def _grid_outputs(ds, store: Path, seeds, cfg, monkeypatch, workers):
    """Store files, model records and reports of an ablation on `workers`
    grid and tile threads."""
    monkeypatch.setattr(pipeline, "worker_count", lambda *args: workers)
    threads = threading.active_count()
    reports, models = ablation(ds, cfg, seeds, store)
    assert threading.active_count() == threads
    return (sorted((p.name, p.read_bytes()) for p in store.iterdir()),
            [{**m, "path": Path(m["path"]).name} for m in models],
            [dataclasses.asdict(r) for r in reports])


@pytest.mark.parametrize("workers", [2, 3])
def test_grid_bits_do_not_depend_on_workers(small_ds, tmp_path, monkeypatch,
                                            workers):
    # At beta = 0, no_coarse and full share a key: full reuses that model.
    cfg = small_cfg(max_epochs=3, beta=0.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches inside each step
    try:
        outputs = [_grid_outputs(small_ds, tmp_path / str(n), [0, 1], cfg,
                                 monkeypatch, n) for n in (1, workers)]
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1]
    statuses = {(m["seed"], m["label"]): m["status"] for m in outputs[0][1]}
    assert {label for (_, label), status in statuses.items()
            if status == "reused"} == {"full"}
    assert len(outputs[0][0]) == 2 * 6  # teacher and 5 students per seed


def test_grid_worker_error_reaches_the_caller(small_ds, tmp_path,
                                              monkeypatch):
    # With 2 threads the caller trains points 0, 2, 4 and the worker
    # 1, 3, 5: no_coarse (3) fails in the worker, full (4) in the caller.
    # no_coarse waits until full has started, so both fail, the later
    # point first, and the earlier point's error still wins.
    raised, real = {}, pipeline.train_student
    full_started = threading.Event()

    def failing(ds, teacher, cfg, *args):
        if cfg.mode in ("no_coarse", "full"):
            if cfg.mode == "full":
                full_started.set()
            else:
                assert full_started.wait(60)
            raised[cfg.mode] = TrainingError(f"{cfg.mode} failed")
            raise raised[cfg.mode]
        return real(ds, teacher, cfg, *args)

    monkeypatch.setattr(pipeline, "train_student", failing)
    monkeypatch.setattr(pipeline, "worker_count", lambda *args: 2)
    threads = threading.active_count()
    with pytest.raises(TrainingError) as exc:
        ablation(small_ds, small_cfg(max_epochs=2), [0], tmp_path)
    assert exc.value is raised["no_coarse"]
    assert set(raised) == {"no_coarse", "full"}
    assert threading.active_count() == threads
    assert not list(tmp_path.glob("*.tmp"))


def test_repeated_seed_rejected_before_training(small_ds, tmp_path):
    with pytest.raises(ConfigError, match="^seed 0 is repeated$"):
        pipeline.run_grid(small_ds, small_cfg(max_epochs=1), [0, 1, 0],
                          [("baseline_pre", {"mode": "baseline_pre"})],
                          tmp_path, jobs=2)
    assert not list(tmp_path.iterdir())


def test_seed_thread_error_reaches_the_caller(small_ds, tmp_path,
                                              monkeypatch):
    # With 2 seed threads the caller runs seed 0 and a pool thread seed 1.
    error, real = TrainingError("seed 1 failed"), pipeline.train_teacher

    def failing(ds, cfg):
        if cfg.seed == 1:
            raise error
        return real(ds, cfg)

    monkeypatch.setattr(pipeline, "train_teacher", failing)
    threads = threading.active_count()
    with pytest.raises(TrainingError) as exc:
        ablation(small_ds, small_cfg(max_epochs=1), [0, 1], tmp_path,
                 jobs=2)
    assert exc.value is error
    assert threading.active_count() == threads


class Stop(BaseException):
    """Not an Exception, as KeyboardInterrupt is not."""


@pytest.mark.parametrize("failing, error", [
    (0, ValueError("item 0")), (5, ValueError("item 5")), (1, Stop())])
def test_in_order_starts_nothing_above_a_failure(failing, error):
    # Two threads: items 0, 2, 4, ... in the caller and 1, 3, 5, ... in
    # the other. Every item but the failing one sleeps.
    started = []

    def run(item, k):
        started.append(item)
        if item == failing:
            raise error
        time.sleep(0.1)

    with pytest.raises(type(error)) as exc:
        pipeline._in_order(run, list(range(10)), 2)
    assert exc.value is error
    below = set(range(failing + 1 if isinstance(error, Exception) else 0))
    # What ran beyond the items below the failure: the failing item, and
    # at most one item in flight in the other thread.
    assert below <= set(started)
    assert len(set(started) - below - {failing}) <= 1
    assert len(started) == len(set(started))


def test_grid_stops_at_a_failing_seed(small_ds, tmp_path, monkeypatch):
    # Two seed threads: the caller runs seeds 0 and 2, a pool thread 1
    # and 3. Seed 0's teacher fails, so neither thread starts another.
    trained, error, real = [], TrainingError("seed 0 failed"), \
        pipeline.train_teacher

    def failing(ds, cfg):
        trained.append(cfg.seed)
        if cfg.seed == 0:
            raise error
        return real(ds, cfg)

    monkeypatch.setattr(pipeline, "train_teacher", failing)
    with pytest.raises(TrainingError) as exc:
        ablation(small_ds, small_cfg(max_epochs=1), [0, 1, 2, 3],
                 tmp_path, jobs=2)
    assert exc.value is error
    assert 3 not in trained and 2 not in trained
    assert not list(tmp_path.glob("*.tmp"))


def test_grid_buffers_are_made_in_the_calling_thread(small_ds, tmp_path,
                                                     monkeypatch):
    # Every workspace buffer of an ablation on 2 grid threads, the
    # students' included, is made or regrown in the calling thread.
    makers, room = set(), numcore._room

    def recording_room(ws, name, shape, dtype=np.float64):
        key = name, np.dtype(dtype)
        before = None if ws is None else ws.buffers.get(key)
        out = room(ws, name, shape, dtype)
        if ws is not None and ws.buffers[key] is not before:
            makers.add(threading.current_thread().name)
        return out

    for module in (numcore, losses):
        monkeypatch.setattr(module, "_room", recording_room)
    monkeypatch.setattr(pipeline, "worker_count", lambda *args: 2)
    ablation(small_ds, small_cfg(max_epochs=2), [0], tmp_path)
    assert makers == {threading.current_thread().name}


def test_full_step_workspace_holds_no_feature_loss_buffer(small_ds):
    # The teacher rows and the MSE squares share backward's gradient
    # buffers; the float64 validation passes add only their activations.
    teacher, _ = train_teacher(small_ds, small_cfg(max_epochs=1))
    ws = numcore.Workspace()
    train_student(small_ds, teacher, small_cfg(mode="full", max_epochs=2),
                  ws=ws)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert set(ws.buffers) == {
        *((name, f32) for name in ("x", "grads", "act0", "act1", "grad0",
                                   "grad1")),
        ("bool", np.dtype(bool)), ("act0", f64), ("act1", f64)}


def test_one_workspace_serves_steps_and_validation(tiled_ds, monkeypatch):
    # Multi-tile batches and a multi-tile validation split: after the
    # first epoch no buffer is made again, so each epoch ends with the
    # same buffer objects.
    teacher, _ = train_teacher(tiled_ds, small_cfg(max_epochs=1))
    ws, seen, evaluate = numcore.Workspace(), [], metrics.evaluate

    def recording_evaluate(*args, **kwargs):  # once per epoch
        seen.append(dict(ws.buffers))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(metrics, "evaluate", recording_evaluate)
    train_student(tiled_ds, teacher, small_cfg(mode="full", max_epochs=3,
                                               batch_size=100_000), ws=ws)
    assert len(seen) == 3
    assert {dtype.name for _, dtype in seen[0]} == \
        {"float32", "float64", "bool"}
    for later in seen[1:]:
        assert later.keys() == seen[0].keys()
        assert all(later[key] is seen[0][key] for key in later)


@pytest.mark.parametrize("workers, points, spaces", [
    (1, 3, 1), (2, 3, 2), (3, 2, 2), (2, 0, 0)])
def test_spaces_reserve_one_workspace_per_thread(small_ds, workers, points,
                                                 spaces):
    cfgs = [small_cfg(mode="baseline_pre", seed=seed).normalized()
            for seed in range(points)]
    inputs = pipeline._inputs(small_ds, None, cfgs)
    out = pipeline._spaces(small_ds, inputs, cfgs, workers)
    assert len(out) == spaces
    assert all(type(ws) is numcore.Workspace for ws in out)
    assert len({id(ws) for ws in out}) == spaces
    for ws in out:  # the step's and the validation pass's, in one
        assert {("x", np.dtype(np.float32)),
                ("act0", np.dtype(np.float64))} <= set(ws.buffers)


# Two seeds on one and on two seed threads, from a script with no
# `if __name__ == "__main__"` guard: prints each run's test AUCs.
UNGUARDED_GRID_SCRIPT = """
import json, tempfile
from pathlib import Path
from mgkd import data, pipeline
ds = data.temporal_split(data.generate_synthetic(data.SyntheticConfig(
    n=1500, d_pre=3, d_in=3, seed=5)), 0.15, 0.15)
cfg = pipeline.DistillConfig(hidden_dims=(8,), batch_size=512, max_epochs=2)
aucs = []
for jobs in (1, 2):
    with tempfile.TemporaryDirectory() as store:
        per_seed, _ = pipeline.run_grid(ds, cfg, [0, 1], [("full", {})],
                                        Path(store), jobs)
    aucs.append([[r.auc for r in reports] for reports in per_seed])
print(json.dumps(aucs))
"""


def test_seed_threads_run_from_an_unguarded_script(tmp_path):
    one, two = _child_json(UNGUARDED_GRID_SCRIPT, "1", tmp_path / "grid.py")
    assert one == two


def test_one_grid_worker_starts_no_threads(small_ds, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    reports, models = ablation(small_ds, small_cfg(max_epochs=1), [0],
                               tmp_path)
    assert len(reports) == 6
    assert {m["status"] for m in models} == {"trained"}


@pytest.mark.parametrize("env, cpus, seeds, points, jobs, workers", [
    ({}, 4, 1, 6, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 6, 1, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2, 6, 2, 1),    # 1 per seed thread
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 3, 6, 3, 1),    # at least 1
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 2, 6, 2, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 2, 6, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 1, 6, 4, 6),    # jobs cut to seeds
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 5, 3, 1, 3),    # at most the points
    ({"OPENBLAS_NUM_THREADS": "two"}, 8, 1, 6, 1, 1),
])
def test_grid_worker_rule(monkeypatch, env, cpus, seeds, points, jobs,
                          workers):
    # `run_grid` and the `ablate`/`sweep` manifests: one item per point,
    # one group per seed running at once.
    _set_cpus(monkeypatch, env, cpus)
    assert pipeline.worker_count(points, min(jobs, seeds)) == workers


class TestAblation:
    def test_modes_and_metadata(self, small_ds, tmp_path):
        cfg = small_cfg(max_epochs=3)
        reports, models = ablation(small_ds, cfg, [0, 1], tmp_path)
        assert [(m["seed"], m["label"]) for m in models] == [
            (seed, label) for seed in (0, 1)
            for label in ("teacher", *pipeline.ABLATION_MODES)]
        assert {m["status"] for m in models} == {"trained"}
        assert len(reports) == 12
        assert {r.mode for r in reports} == set(pipeline.ABLATION_MODES)
        assert all(r.split == "test" for r in reports)
        agg = pipeline.aggregate_reports(reports)
        assert set(agg) == set(pipeline.ABLATION_MODES)
        assert all(agg[m]["n_runs"] == 2 for m in agg)

    def test_aggregate_keeps_first_seen_mode_order(self):
        labels = [f"m{i}" for i in (5, 2, 9, 0, 7, 3, 8, 1, 6, 4)]
        reports = [metrics.EvalReport(auc=0.5 + 0.01 * seed, ks=0.1,
                                      recall_at_k=0.2, seed=seed, mode=label)
                   for seed in (0, 1) for label in labels]
        agg = pipeline.aggregate_reports(reports)
        assert list(agg) == labels
        assert all(agg[m]["n_runs"] == 2 for m in labels)

    def test_mode_config_diff_is_flags_only(self):
        full = DistillConfig(mode="full").normalized()
        base = DistillConfig(mode="baseline_pre").normalized()
        diff = {f: (getattr(full, f), getattr(base, f))
                for f in ("alpha", "beta", "lam", "tau", "lr", "dropout",
                          "hidden_dims", "batch_size", "mode")
                if getattr(full, f) != getattr(base, f)}
        assert set(diff) == {"alpha", "beta", "lam", "mode"}

