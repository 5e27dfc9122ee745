import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mgkd
from mgkd import data, losses, metrics, modelio, numcore, pipeline
from mgkd.errors import ConfigError, DataError, DimensionError
from mgkd.pipeline import (PREDICT_ROWS, DistillConfig, evaluate_split,
                           predict, run_ablation, train_student,
                           train_teacher)


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

    def test_validation(self):
        with pytest.raises(ConfigError):
            DistillConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            DistillConfig(tau=0.5)
        with pytest.raises(ConfigError):
            DistillConfig(mode="bogus")
        with pytest.raises(ConfigError):
            DistillConfig(hard_term="hinge")


@pytest.mark.parametrize("hard_term", ["ce", "reweighted", "focal",
                                       "reweighted_focal"])
def test_validation_loss_is_the_named_hard_term(small_ds, hard_term):
    cfg = small_cfg(mode="baseline_pre", hard_term=hard_term, max_epochs=1)
    model, trace = train_student(small_ds, None, cfg)
    va = small_ds.mask("valid")
    y_va, p = small_ds.y[va], predict(model, small_ds.x_pre[va])
    weights = None
    if hard_term.startswith("reweighted"):
        y_tr = small_ds.y[small_ds.mask("train")]
        weights = losses.reweight(y_va, losses.ClassPriors.from_labels(y_tr))
    ref = losses.focal_loss(y_va, p, cfg.gamma, weights) \
        if hard_term.endswith("focal") else losses.kl_hard(y_va, p, weights)
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
    priors = losses.ClassPriors.from_labels(y_tr)
    reweighted, _ = losses.HARD_TERMS[cfg.hard_term]
    w_tr, w_va = (losses.reweight(y, priors) if reweighted else None
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
                    feat_metric=feat_metric, hard_term="reweighted_focal",
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
            with pytest.raises(DimensionError):
                predict(model, x)

    def test_tiles_allocate_less_than_one_layer_output(self):
        rows, width = 100_000, 64
        model = numcore.init_mlp(20, [width, width], 0.2,
                                 np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((rows, 20))

        def peak_bytes(score):
            tracemalloc.start()
            try:
                score()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # One tile's activations and masks plus `p`: about 10 MB. A
        # workspace that also held the training buffers peaked at 36.5 MB.
        assert peak_bytes(lambda: predict(model, x)) < 16 * 10**6
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


def _child_json(script: str, blas_threads: str):
    """The JSON that `script` prints, run in a child with that many BLAS
    threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "OMP_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(
               [str(Path(mgkd.__file__).parents[1]),
                os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# The tiled pass against one whole-array pass: `predict`'s p, and the
# kept h (as STEP_DTYPE) and z, over one workspace per model.
WHOLE_PASS_SCRIPT = """
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
        for n in sizes:
            whole = numcore.forward(model, x[:n], "eval")
            h, z, _ = pipeline._eval_pass(model, x[:n], ws, keep_h=True)
            pairs = ((pipeline.predict(model, x[:n]), whole.p), (z, whole.z),
                     (h, whole.h.astype(pipeline.STEP_DTYPE)))
            if any(a.tobytes() != b.tobytes() for a, b in pairs):
                bad.append([rate, width, n])
print(json.dumps(bad))
"""


def test_tiled_predict_matches_whole_pass():
    for blas_threads in ("1", "2"):
        # (dropout, width, rows) that differ
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
    # Training's weight-gradient reductions still do (see ROADMAP item 2).
    assert _child_json(EVAL_PASS_SCRIPT, "1") == \
        _child_json(EVAL_PASS_SCRIPT, "2")


def test_training_eval_passes_are_tiled(monkeypatch):
    # The teacher pass covers every train row and validation every valid
    # row; whole-array passes would run forwards over 9,000 rows each.
    ds = data.temporal_split(data.generate_synthetic(data.SyntheticConfig(
        n=20_000, d_pre=5, d_in=5, seed=2)), 0.45, 0.1)
    assert min(ds.mask("train").sum(), ds.mask("valid").sum()) \
        > PREDICT_ROWS + 1
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


def test_one_seed_grid_starts_no_workers(small_ds, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
    reports = pipeline.run_grid(small_ds, small_cfg(max_epochs=1), [0],
                                [("baseline_pre", {"mode": "baseline_pre"})],
                                jobs=2)
    assert [[r.mode for r in seed] for seed in reports] == [["baseline_pre"]]


class TestAblation:
    def test_modes_and_metadata(self, small_ds):
        cfg = small_cfg(max_epochs=3)
        reports = run_ablation(small_ds, cfg, seeds=[0, 1])
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

