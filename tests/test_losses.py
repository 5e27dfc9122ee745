import math
from types import SimpleNamespace

import numpy as np
import pytest

from mgkd import losses, numcore
from mgkd.errors import ConfigError, DimensionError
from mgkd.losses import (ClassPriors, feat_loss, focal_loss, kl_hard,
                         kl_soft, objective, reweight)
from mgkd.numcore import grad_check
from mgkd.pipeline import DistillConfig

from conftest import loss_fn_over_model, small_model


def logit(p):
    return math.log(p / (1.0 - p))


class TestKlHard:
    def test_near_perfect(self):
        lv = kl_hard([1.0], [1.0])
        assert lv.value == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-6)

    def test_closed_form(self):
        lv = kl_hard([1.0], [0.8])
        assert lv.value == pytest.approx(-math.log(0.8))
        assert lv.value == pytest.approx(0.22314, abs=1e-5)

    def test_symmetry(self):
        lv = kl_hard([1.0, 0.0], [0.8, 0.2])
        assert lv.value == pytest.approx(-math.log(0.8))

    def test_gradient(self):
        y = np.array([1.0, 0.0, 1.0])
        p = np.array([0.8, 0.3, 0.6])
        w = np.array([2.0, 1.0, 0.5])
        lv = kl_hard(y, p, w)
        assert np.allclose(lv.grad_logit, w * (p - y) / 3)
        assert lv.grad_repr is None

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_hard([1.0, 0.0], [0.5])


class TestKlSoft:
    def test_identical_logits(self):
        z = np.array([0.3, -1.2, 2.0])
        lv = kl_soft(z, z, tau=2.0)
        assert lv.value == 0.0
        assert np.all(lv.grad_logit == 0.0)

    def test_closed_form(self):
        lv = kl_soft([logit(0.9)], [0.0], tau=1.0)
        expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert lv.value == pytest.approx(expected)
        assert lv.value == pytest.approx(0.36806, abs=1e-5)

    def test_large_tau_limit(self):
        # tau^2-scaled two-class KL tends to (zt - zs)^2 / 8.
        zt, zs = 1.7, -0.4
        limit = (zt - zs) ** 2 / 8.0
        errs = [abs(kl_soft([zt], [zs], tau).value - limit)
                for tau in (10.0, 100.0, 1000.0)]
        assert errs[0] < 0.05 and errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 1e-4

    def test_teacher_detached(self):
        # Perturbing the teacher changes the value, but the gradient is
        # still the student-side expression.
        zs = np.array([0.5, -0.5])
        a = kl_soft([1.0, 0.2], zs, tau=2.0)
        b = kl_soft([1.1, 0.2], zs, tau=2.0)
        assert a.value != b.value
        qs = numcore.sigmoid(zs / 2.0)
        qt = numcore.sigmoid(np.array([1.1, 0.2]) / 2.0)
        assert np.allclose(b.grad_logit, 2.0 * (qs - qt) / 2)

    def test_tau_below_one(self):
        with pytest.raises(ConfigError):
            kl_soft([0.0], [0.0], tau=0.5)


class TestLabelLoss:
    """The label part of `objective`, (1 - alpha) * hard + alpha * soft."""

    def setup_method(self):
        self.y = np.array([1.0, 0.0, 1.0, 0.0])
        self.zs = np.array([0.4, -0.6, 1.2, 0.1])
        self.zt = np.array([1.0, -1.0, 2.0, -0.2])
        self.p = numcore.sigmoid(self.zs)

    def label(self, alpha):
        cfg = DistillConfig(alpha=alpha, beta=0.0, lam=0.0, tau=2.0)
        return self.label_for(cfg)

    def label_for(self, cfg):
        cache = SimpleNamespace(p=self.p, z=self.zs, h=None)
        total, _ = objective(cfg, cache, self.y, teacher_z=self.zt)
        return total

    def test_alpha_zero_is_hard(self):
        lv = self.label(0.0)
        ref = kl_hard(self.y, self.p)
        assert lv.value == ref.value
        assert np.array_equal(lv.grad_logit, ref.grad_logit)

    def test_alpha_one_is_soft(self):
        lv = self.label(1.0)
        ref = kl_soft(self.zt, self.zs, 2.0)
        assert lv.value == ref.value
        assert np.array_equal(lv.grad_logit, ref.grad_logit)

    def test_linearity(self):
        hard = kl_hard(self.y, self.p)
        soft = kl_soft(self.zt, self.zs, 2.0)
        lv = self.label(0.5)
        assert lv.value == pytest.approx(0.5 * hard.value + 0.5 * soft.value)

    def test_alpha_range(self):
        cfg = DistillConfig(beta=0.0, lam=0.0, tau=2.0)
        cfg.alpha = 1.5  # past DistillConfig's own check
        with pytest.raises(ConfigError):
            self.label_for(cfg)


def parent_assembly(cfg, cache, y, weights, teacher_h, teacher_z, snapshot):
    """The trainer's inline per-batch loss from before `objective`, with the
    former `self_loss` and `distill_total` written out.

    A frozen reference: `objective` must match it bit for bit.
    """
    if cfg.hard_term in ("focal", "reweighted_focal"):
        hard = losses.focal_loss(y, cache.p, cfg.gamma, weights)
    else:
        hard = losses.kl_hard(y, cache.p, weights)
    soft = feat = self_part = None
    label = hard
    if cfg.alpha > 0.0:
        soft = losses.kl_soft(teacher_z, cache.z, cfg.tau)
        label = losses.LossValue(
            (1.0 - cfg.alpha) * hard.value + cfg.alpha * soft.value,
            (1.0 - cfg.alpha) * hard.grad_logit
            + cfg.alpha * soft.grad_logit)
    if cfg.beta > 0.0:
        feat = losses.feat_loss(teacher_h, cache.h, cfg.feat_metric)
    if cfg.lam > 0.0 and snapshot is not None:
        # self_loss: the softened KL from the snapshot to the student.
        self_part = losses.kl_soft(snapshot, cache.z, cfg.tau)
    # distill_total: label + beta * feat + lam * self, channel-wise, with
    # feat's gradient scaled in place.
    value, grad_logit, grad_repr = label.value, label.grad_logit, None
    if cfg.beta > 0.0 and feat is not None:
        value += cfg.beta * feat.value
        grad_repr = feat.grad_repr
        grad_repr *= cfg.beta
    if cfg.lam > 0.0 and self_part is not None:
        value += cfg.lam * self_part.value
        grad_logit = grad_logit + cfg.lam * self_part.grad_logit
    total = losses.LossValue(value, grad_logit, grad_repr)
    terms = {"hard": hard.value,
             "soft": soft.value if soft else 0.0,
             "feat": feat.value if feat else 0.0,
             "self": self_part.value if self_part else 0.0}
    return total, terms


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestObjectiveMatchesParentAssembly:
    @pytest.mark.parametrize("with_snapshot", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("feat_metric", ["mse", "cosine"])
    @pytest.mark.parametrize("hard_term", list(losses.HARD_TERMS))
    def test_bitwise(self, hard_term, feat_metric, alpha, with_snapshot):
        rng = np.random.default_rng(31)
        model = small_model(input_dim=5, hidden=(8, 8), dropout=0.2)
        cache = numcore.forward(model, rng.standard_normal((40, 5)),
                                "train", rng)
        y = rng.integers(0, 2, 40).astype(float)
        weights = None
        if hard_term in ("reweighted", "reweighted_focal"):
            weights = reweight(y, ClassPriors.from_labels(y))
        teacher_h = rng.standard_normal((40, 8))
        teacher_z = rng.standard_normal(40)
        snapshot = rng.standard_normal(40) if with_snapshot else None
        cfg = DistillConfig(alpha=alpha, beta=0.25, lam=0.1, tau=2.5,
                            feat_metric=feat_metric, hard_term=hard_term,
                            gamma=2.0)
        args = (cfg, cache, y, weights, teacher_h, teacher_z, snapshot)

        total, terms = objective(*args)
        ref, ref_terms = parent_assembly(*args)
        assert total.value == ref.value
        assert _same_bits(total.grad_logit, ref.grad_logit)
        assert _same_bits(total.grad_repr, ref.grad_repr)
        assert list(terms) == list(ref_terms)
        for name in ref_terms:
            assert terms[name] == ref_terms[name], name
        assert (terms["self"] != 0.0) == with_snapshot
        assert (terms["soft"] != 0.0) == (alpha > 0.0)


class TestFeatLoss:
    def test_aligned_is_zero(self):
        h = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert feat_loss(h, h, "mse").value == 0.0
        assert feat_loss(h, h, "cosine").value == pytest.approx(0.0)

    def test_mse_closed_form(self):
        lv = feat_loss([[1.0, 0.0]], [[0.0, 1.0]], "mse")
        assert lv.value == pytest.approx(1.0)
        assert np.allclose(lv.grad_repr, [[-1.0, 1.0]])

    def test_cosine_orthogonal(self):
        lv = feat_loss([[1.0, 0.0]], [[0.0, 1.0]], "cosine")
        assert lv.value == pytest.approx(1.0)

    @staticmethod
    def parent_cosine(ht, hs):
        """The cosine branch from before zero rows were allowed."""
        n = hs.shape[0]
        nt, ns = np.linalg.norm(ht, axis=1), np.linalg.norm(hs, axis=1)
        cos = np.sum(ht * hs, axis=1) / (nt * ns)
        grad = -(ht / (nt * ns)[:, None] - (cos / (ns * ns))[:, None] * hs) / n
        return 1.0 - cos, grad

    def test_cosine_zero_norm_row_is_distance_one(self, rng):
        ht, hs = rng.standard_normal((2, 6, 4))
        dist, ref = self.parent_cosine(ht, hs)
        lv = feat_loss(ht, hs, "cosine")
        assert lv.value == float(np.mean(dist))
        assert lv.grad_repr.tobytes() == ref.tobytes()
        # Student row 1 and teacher row 4 are zero; the other rows keep
        # their gradient bit for bit.
        hs[1] = 0.0
        ht[4] = 0.0
        with np.errstate(all="raise"):
            lv = feat_loss(ht, hs, "cosine")
        others = [0, 2, 3, 5]
        assert np.array_equal(lv.grad_repr[[1, 4]], np.zeros((2, 4)))
        assert lv.grad_repr[others].tobytes() == ref[others].tobytes()
        assert lv.value == pytest.approx((dist[others].sum() + 2.0) / 6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            feat_loss(np.ones((2, 3)), np.ones((2, 4)))

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            feat_loss(np.ones((1, 2)), np.ones((1, 2)), "l1")


class TestSelfLoss:
    """The self term, `kl_soft(snapshot, z, tau)`: the softened KL from the
    previous epoch's logits to the current ones."""

    def test_matching_snapshot_is_zero(self):
        z = np.array([0.7, -0.3])
        assert kl_soft(z, z, 2.0).value == 0.0

    def test_closed_form(self):
        lv = kl_soft([logit(0.9)], [0.0], tau=1.0)
        assert lv.value == pytest.approx(0.36806, abs=1e-5)

    def test_softened_divergence_shrinks_with_tau(self):
        # The un-scaled divergence between the softened distributions
        # decreases as tau grows (the tau^2 factor offsets it by design).
        zs, zsnap = np.array([0.0]), np.array([logit(0.9)])
        kl1 = kl_soft(zsnap, zs, 1.0).value / 1.0
        kl2 = kl_soft(zsnap, zs, 2.0).value / 4.0
        assert kl2 < kl1


class TestDistillTotal:
    """How `objective` adds beta * feat and lam * self to the label part,
    with the label, feat and self values fixed."""

    @pytest.fixture
    def total(self, monkeypatch):
        def total(label, feat, self_part, beta, lam):
            for name, part in (("hard_loss", label), ("feat_loss", feat),
                               ("kl_soft", self_part)):
                monkeypatch.setattr(losses, name, lambda *_, v=part: v)
            cfg = DistillConfig(alpha=0.0, beta=0.0, lam=0.0)
            cfg.beta, cfg.lam = beta, lam  # past DistillConfig's own check
            cache = SimpleNamespace(p=None, z=None, h=None)
            return objective(cfg, cache, None, snapshot=np.zeros(1))[0]
        return total

    def test_zero_weights_is_label(self, total):
        label = losses.LossValue(0.3, np.array([0.1, -0.2]))
        feat = losses.LossValue(0.2, None, np.ones((2, 2)))
        out = total(label, feat, None, 0.0, 0.0)
        assert out.value == label.value
        assert np.array_equal(out.grad_logit, label.grad_logit)
        assert out.grad_repr is None

    def test_arithmetic(self, total):
        label = losses.LossValue(0.3, np.zeros(1))
        feat = losses.LossValue(0.2, None, np.zeros((1, 1)))
        self_part = losses.LossValue(0.1, np.zeros(1))
        out = total(label, feat, self_part, 0.25, 0.1)
        assert out.value == pytest.approx(0.36)

    def test_linearity_in_weights(self, total):
        label = losses.LossValue(0.5, np.array([1.0]))
        feat = losses.LossValue(0.4, None, np.array([[2.0]]))
        self_part = losses.LossValue(0.3, np.array([-1.0]))
        v = lambda b, l: total(label, feat, self_part, b, l).value
        assert v(0.2, 0.3) - v(0.0, 0.3) == pytest.approx(0.2 * 0.4)
        assert v(0.2, 0.3) - v(0.2, 0.0) == pytest.approx(0.3 * 0.3)

    def test_negative_weights(self, total):
        label = losses.LossValue(0.5, np.zeros(1))
        for beta, lam in ((-0.1, 0.0), (0.0, -0.1)):
            with pytest.raises(ConfigError, match="nonnegative"):
                total(label, None, None, beta, lam)


class TestReweight:
    def test_inverse_priors(self):
        priors = ClassPriors(0.9, 0.1)
        w = reweight(np.array([1, 0]), priors)
        assert w[0] == pytest.approx(10.0)
        assert w[1] == pytest.approx(10.0 / 9.0)

    def test_balanced_doubles(self):
        priors = ClassPriors(0.5, 0.5)
        y = np.array([1.0, 0.0, 1.0])
        p = np.array([0.7, 0.4, 0.9])
        weighted = kl_hard(y, p, reweight(y, priors))
        plain = kl_hard(y, p)
        assert weighted.value == pytest.approx(2.0 * plain.value)

    def test_paper_rate(self):
        # Train-split positive rate 7.2% gives minority weight ~13.89.
        priors = ClassPriors(1.0 - 0.072, 0.072)
        w = reweight(np.array([1]), priors)
        assert w[0] == pytest.approx(13.888888, abs=1e-4)

    def test_prior_validation(self):
        with pytest.raises(ConfigError):
            ClassPriors(0.9, 0.2)
        with pytest.raises(ConfigError):
            ClassPriors(1.0, 0.0)


class TestFocalLoss:
    def test_gamma_zero_is_ce(self):
        y = np.array([1.0, 0.0])
        p = np.array([0.8, 0.3])
        a = focal_loss(y, p, gamma=0.0)
        b = kl_hard(y, p)
        assert a.value == b.value
        assert np.array_equal(a.grad_logit, b.grad_logit)

    def test_closed_form_confident(self):
        lv = focal_loss([1.0], [0.9], gamma=2.0)
        assert lv.value == pytest.approx(0.01 * -math.log(0.9), rel=1e-6)
        assert lv.value == pytest.approx(0.0010536, abs=1e-6)

    def test_closed_form_uncertain(self):
        lv = focal_loss([1.0], [0.5], gamma=2.0)
        assert lv.value == pytest.approx(0.25 * math.log(2.0), rel=1e-6)
        assert lv.value == pytest.approx(0.17329, abs=1e-5)

    def test_negative_gamma(self):
        with pytest.raises(ConfigError):
            focal_loss([1.0], [0.5], gamma=-1.0)


class TestNonNegativity:
    def test_kl_family_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 20))
            y = rng.integers(0, 2, n).astype(float)
            zs = rng.standard_normal(n) * 3
            zt = rng.standard_normal(n) * 3
            tau = float(rng.uniform(1.0, 4.0))
            assert kl_hard(y, numcore.sigmoid(zs)).value >= 0.0
            assert kl_soft(zt, zs, tau).value >= 0.0
            assert focal_loss(y, numcore.sigmoid(zs), 2.0).value >= 0.0


class TestGradientsAgainstFiniteDifferences:
    """Each loss, differentiated through a small MLP, matches central FD."""

    def _check(self, loss_from_cache, rng, dims=(8, 8)):
        model = small_model(input_dim=5, hidden=dims)
        x = rng.standard_normal((12, 5))
        err = grad_check(loss_fn_over_model(x, loss_from_cache), model)
        assert err < 1e-4, err

    def test_kl_soft_grad(self, rng):
        zt = rng.standard_normal(12)
        self._check(lambda c: kl_soft(zt, c.z, 2.5), rng)

    def test_feat_mse_grad(self, rng):
        ht = rng.standard_normal((12, 8))
        self._check(lambda c: feat_loss(ht, c.h, "mse"), rng)

    def test_feat_cosine_grad(self, rng):
        ht = rng.standard_normal((12, 8))
        self._check(lambda c: feat_loss(ht, c.h, "cosine"), rng)

    def test_focal_grad(self, rng):
        y = rng.integers(0, 2, 12).astype(float)
        self._check(lambda c: focal_loss(y, c.p, 2.0), rng)

    def test_total_grad(self, rng):
        y = rng.integers(0, 2, 12).astype(float)
        zt = rng.standard_normal(12)
        ht = rng.standard_normal((12, 8))
        snap = rng.standard_normal(12)

        cfg = DistillConfig(alpha=0.2, beta=0.25, lam=0.1, tau=2.5,
                            feat_metric="mse")
        self._check(lambda c: objective(cfg, c, y, None, ht, zt, snap)[0],
                    rng)

