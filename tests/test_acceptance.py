"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test ends by printing a single pass line (reaching it means every
assertion in the criterion held). Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete.
"""

import json
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mgkd import cli, data, numcore, pipeline
from mgkd.losses import feat_loss, kl_hard, kl_soft, objective, reweight
from mgkd.metrics import auc, ks, recall_at_k

from conftest import ablation
from test_metrics import naive_recall, pairwise_auc, recall_at, scan_ks

SEEDS = [0, 1, 2, 3, 4]

# Desk-scale training setup used by the directional criteria: dataset shape
# is fixed by the criteria, the network/epoch budget is sized for CPU runs.
DATA_CFG = data.SyntheticConfig(n=50_000, d_pre=20, d_in=20,
                                positive_rate=0.10, snr_pre=0.05,
                                snr_in_base=0.3, window_days=30,
                                window_gain=0.5, seed=100)
TRAIN_CFG = pipeline.DistillConfig(hidden_dims=(64, 64), dropout=0.2,
                                   lr=0.005, weight_decay=1e-7,
                                   batch_size=8192, max_epochs=40,
                                   patience=10)


def prepared(dcfg):
    ds = data.temporal_split(data.generate_synthetic(dcfg), 0.1, 0.1)
    return data.apply_standardize(ds, data.fit_standardize(ds))


@pytest.fixture(scope="module")
def ablation_agg(tmp_path_factory):
    """Shared 5-seed run over the modes needed by criteria 4 and 6."""
    ds = prepared(DATA_CFG)
    t0 = time.time()
    # An empty store: every model is trained, and the time counts it.
    reports, _ = ablation(
        ds, TRAIN_CFG, SEEDS, tmp_path_factory.mktemp("store"),
        modes=("baseline_pre", "pretrain_only", "full", "oracle"))
    elapsed = time.time() - t0
    return pipeline.aggregate_reports(reports), elapsed


@pytest.mark.slow
def test_criterion_1_gradient_suite(rng):
    model = numcore.init_mlp(20, [256, 256], 0.0, np.random.default_rng(1))
    x = rng.standard_normal((32, 20))
    y = rng.integers(0, 2, 32).astype(float)
    zt = rng.standard_normal(32)
    ht = rng.standard_normal((32, 256))
    snap = rng.standard_normal(32)
    w = reweight(y, np.count_nonzero(y) / (len(y) + 8))  # y and 8 negatives

    def total(hard_term, weights):
        cfg = pipeline.DistillConfig(alpha=0.2, beta=0.25, lam=0.1, tau=2.5,
                                     feat_metric="mse", hard_term=hard_term)
        return lambda c: objective(cfg, c, y, weights, ht, zt, snap)[0]

    cases = {
        "kl_hard": lambda c: kl_hard(y, c.p),
        "kl_hard_weighted": lambda c: kl_hard(y, c.p, w),
        "kl_soft_tau1": lambda c: kl_soft(zt, c.z, 1.0),
        "kl_soft_tau2.5": lambda c: kl_soft(zt, c.z, 2.5),
        "feat_mse": lambda c: feat_loss(ht, c.h, "mse"),
        "feat_cosine": lambda c: feat_loss(ht, c.h, "cosine"),
        "self": lambda c: kl_soft(snap, c.z, 2.5),
        "objective_ce": total("ce", None),
        "objective_reweighted": total("reweighted", w),
    }
    from conftest import grad_check, loss_fns_over_model
    t0 = time.time()
    worst = {}
    for name, loss_from_cache in cases.items():
        err = grad_check(*loss_fns_over_model(x, loss_from_cache), model,
                         rng=np.random.default_rng(2))
        worst[name] = err
        assert err < 1e-4, f"{name}: relative error {err}"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: gradient suite, worst error "
          f"{max(worst.values()):.2e} over {len(cases)} losses "
          f"in {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(7)
    t0 = time.time()
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        if rng.random() < 0.5:
            scores = rng.integers(0, 8, n).astype(float)  # heavy ties
        else:
            scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        k = float(rng.uniform(1.0, 100.0))
        assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12
        assert ks(scores, labels) == scan_ks(scores, labels)
        assert recall_at(scores, labels, k) == naive_recall(scores,
                                                            labels, k)
        assert recall_at_k(scores, labels) == naive_recall(scores,
                                                           labels, 10.0)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"metric oracles took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 2: 1000 scored sets vs oracles "
          f"in {elapsed:.1f}s")


def test_criterion_3_boundary_reductions(rng):
    y = rng.integers(0, 2, 64).astype(float)
    zs = rng.standard_normal(64)
    zt = rng.standard_normal(64)
    p = numcore.sigmoid(zs)

    inert = pipeline.DistillConfig(alpha=0.0, beta=0.0, lam=0.0, tau=2.5)
    a, _ = objective(inert, SimpleNamespace(p=p, z=zs, h=None), y,
                     teacher_z=zt)
    b = kl_hard(y, p)
    assert a.value == b.value
    assert np.array_equal(a.grad_logit, b.grad_logit)

    # Student training with all distillation coefficients zero must be
    # bit-identical to baseline training on the same seed.
    dcfg = replace(DATA_CFG, n=4000)
    ds = prepared(dcfg)
    cfg = replace(TRAIN_CFG, hidden_dims=(16, 16), max_epochs=4,
                  batch_size=1024, seed=3)
    teacher, _ = pipeline.train_teacher(ds, cfg)
    m_full, _ = pipeline.train_student(
        ds, teacher, replace(cfg, alpha=0.0, beta=0.0, lam=0.0, mode="full"))
    m_base, _ = pipeline.train_student(
        ds, None, replace(cfg, mode="baseline_pre"))
    for (_, pa), (_, pb) in zip(m_full.param_arrays(), m_base.param_arrays()):
        assert pa.tobytes() == pb.tobytes()
    print("\n[PASS] criterion 3: boundary reductions hold bitwise")


@pytest.mark.slow
def test_criterion_4_sandwich_ordering(ablation_agg):
    agg, elapsed = ablation_agg
    oracle = agg["oracle"]["auc_mean"]
    full = agg["full"]["auc_mean"]
    base = agg["baseline_pre"]["auc_mean"]
    assert oracle >= full >= base
    assert oracle - base >= 0.01
    assert elapsed < 600.0, f"5-seed run took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 4: oracle {oracle:.4f} >= full {full:.4f} "
          f">= baseline {base:.4f}, gap {oracle - base:.4f} "
          f"({elapsed:.0f}s for 5 seeds)")


@pytest.mark.slow
def test_criterion_5_window_trend():
    means = []
    for window in (30, 60, 90):
        aucs = []
        ds = prepared(replace(DATA_CFG, window_days=window))
        for seed in SEEDS:
            cfg = replace(TRAIN_CFG, mode="oracle", seed=seed)
            model, _ = pipeline.train_student(ds, None, cfg)
            aucs.append(pipeline.evaluate_split(model, ds, "test",
                                                "both").auc)
        means.append(float(np.mean(aucs)))
    assert means[1] >= means[0] - 0.002
    assert means[2] >= means[1] - 0.002
    print(f"\n[PASS] criterion 5: oracle AUC by window "
          f"30/60/90 = {means[0]:.4f}/{means[1]:.4f}/{means[2]:.4f}")


@pytest.mark.slow
def test_criterion_6_ablation_direction(ablation_agg):
    agg, _ = ablation_agg
    full = agg["full"]["auc_mean"]
    pretrain = agg["pretrain_only"]["auc_mean"]
    base = agg["baseline_pre"]["auc_mean"]
    assert full >= pretrain >= base
    # Report in ablation-table shape: one row per mode, mean +- std.
    print("\n        mode          AUC        KS   Recall@10")
    for mode in ("baseline_pre", "pretrain_only", "full", "oracle"):
        row = agg[mode]
        print(f"{mode:>14} {row['auc_mean']:.4f}±{row['auc_std']:.4f} "
              f"{row['ks_mean']:.4f} {row['recall_mean']:.4f}")
    print(f"[PASS] criterion 6: full {full:.4f} >= pretrain_only "
          f"{pretrain:.4f} >= baseline {base:.4f}")


@pytest.mark.slow
def test_criterion_7_imbalance_handling():
    w = reweight(np.array([1, 0]), 0.072)
    assert w[0] == pytest.approx(13.8889, abs=1e-3)

    ds = prepared(replace(DATA_CFG, positive_rate=0.05, seed=200))
    means = {}
    for hard in ("ce", "reweighted"):
        recalls = []
        for seed in SEEDS:
            cfg = replace(TRAIN_CFG, mode="baseline_pre", hard_term=hard,
                          seed=seed)
            model, _ = pipeline.train_student(ds, None, cfg)
            recalls.append(pipeline.evaluate_split(model, ds, "test",
                                                   "pre").recall_at_k)
        means[hard] = float(np.mean(recalls))
    assert means["reweighted"] >= means["ce"]
    print(f"\n[PASS] criterion 7: Recall@10 reweighted "
          f"{means['reweighted']:.4f} >= plain CE {means['ce']:.4f}; "
          f"w1(pi=0.072) = {w[0]:.4f}")


ACCEPT_CLI_CONFIG = """\
[dataset]
n = 3000
d_pre = 4
d_in = 4
positive_rate = 0.12
snr_pre = 0.08
snr_in_base = 0.6
window_gain = 0.5
seed = 17
frac_valid = 0.15
frac_test = 0.15

[teacher]
hidden_dims = 12,12
dropout = 0.1
batch_size = 1024
max_epochs = 5
patience = 2

[student]
hidden_dims = 12,12
dropout = 0.1
batch_size = 1024
max_epochs = 5
patience = 2
"""


def test_criterion_8_manifest_determinism(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(ACCEPT_CLI_CONFIG)

    def run_all(out: Path) -> dict:
        out.mkdir(exist_ok=True)
        assert cli.main(["generate", "--config", str(config),
                         "--out", str(out)]) == 0
        assert cli.main(["train", "--config", str(config), "--out", str(out),
                         "--mode", "teacher"]) == 0
        assert cli.main(["train", "--config", str(config), "--out", str(out),
                         "--mode", "full"]) == 0
        assert cli.main(["eval", "--model", str(out / "student_full.mgkd"),
                         "--data", str(out / "dataset.csv"),
                         "--config", str(config), "--split", "test",
                         "--out", str(out)]) == 0
        return {
            "dataset_sha": json.loads(
                (out / "generate_manifest.json").read_text())["dataset_sha256"],
            "teacher_trace": (out / "trace_teacher.jsonl").read_bytes(),
            "student_trace": (out / "trace_full.jsonl").read_bytes(),
            "eval": (out / "eval_results.jsonl").read_bytes(),
            "model": (out / "student_full.mgkd").read_bytes(),
            "sidecar": (out / "dataset.csv.sidecar").read_bytes(),
        }

    # Each run has its own --out, so b reads none of a's files: it parses
    # its own dataset and trains its own teacher and student.
    a = run_all(tmp_path / "a")
    b = run_all(tmp_path / "b")
    assert a == b
    print("\n[PASS] criterion 8: re-run reproduces dataset hash, sidecar, "
          "traces, model bytes and metrics bit-exactly")
