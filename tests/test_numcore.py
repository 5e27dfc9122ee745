import math
import tracemalloc

import numpy as np
import pytest

from mgkd import modelio, numcore
from mgkd.errors import DimensionError, NumericError, StateError
from mgkd.numcore import (Layer, MlpModel, adam_step, backward, forward,
                          grad_check, init_adam, init_mlp)

from conftest import loss_fn_over_model, small_model


class TestForward:
    def test_zero_weights_give_half(self, rng):
        model = small_model()
        for _, arr in model.param_arrays():
            arr[...] = 0.0
        cache = forward(model, rng.standard_normal((5, 6)))
        assert np.array_equal(cache.p, np.full(5, 0.5))

    def test_eval_deterministic(self, rng):
        model = small_model(dropout=0.4)
        x = rng.standard_normal((10, 6))
        c1 = forward(model, x, "eval")
        c2 = forward(model, x, "eval")
        assert np.array_equal(c1.p, c2.p)
        assert np.array_equal(c1.h, c2.h)

    def test_linear_closed_form(self):
        # No hidden layers: classifier acts on the raw input.
        model = MlpModel.from_layers([Layer(np.array([[1.0]]), np.zeros(1))],
                                     0.0)
        assert forward(model, [[0.0]]).p[0] == 0.5
        assert forward(model, [[math.log(3.0)]]).p[0] == pytest.approx(0.75)

    def test_width_mismatch(self, rng):
        with pytest.raises(DimensionError):
            forward(small_model(), rng.standard_normal((3, 7)))

    def test_composition_contract(self, rng):
        # p must be exactly sigmoid(classifier(H)) for the cached H.
        model = small_model()
        cache = forward(model, rng.standard_normal((9, 6)))
        z = (cache.h @ model.classifier.weights).ravel() \
            + model.classifier.bias[0]
        assert np.array_equal(cache.p, numcore.sigmoid(z))
        assert cache.h.shape[1] == model.repr_dim

    def test_train_dropout_needs_rng(self):
        model = small_model(dropout=0.4)
        with pytest.raises(StateError):
            forward(model, np.ones((2, 6)), "train")


class TestDropout:
    def test_mask_fraction_and_rescale(self, rng):
        rate, keep = 0.3, 0.7
        model = small_model(input_dim=4, hidden=(400,), dropout=rate)
        x = np.abs(rng.standard_normal((50, 4))) + 0.5
        cache = forward(model, x, "train", np.random.default_rng(5))
        # Replay the draw: the mask is (draw >= rate) / keep.
        kept = np.random.default_rng(5).random((50, 400)) >= rate
        mask = kept / keep
        n = mask.size
        zero_frac = np.mean(mask == 0.0)
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(zero_frac - rate) < 3 * sigma
        # Survivors rescaled by 1/(1-rate): mask expectation is 1.
        assert np.mean(mask) == pytest.approx(1.0, abs=3 * sigma / (1 - rate))
        layer = model.encoder[0]
        pre = x @ layer.weights + layer.bias
        expected = np.maximum(pre, 0.0) * (1.0 / keep) * kept
        assert cache.post_acts[0].tobytes() == expected.tobytes()


class TestBackward:
    def test_zero_upstream(self, rng):
        model = small_model()
        cache = forward(model, rng.standard_normal((4, 6)))
        grads = backward(model, cache, np.zeros(4), np.zeros_like(cache.h))
        assert all(np.all(g == 0.0) for _, g in grads.param_arrays())

    def test_linear_closed_form(self, rng):
        model = MlpModel.from_layers(
            [Layer(np.array([[0.3], [-0.2]]), np.zeros(1))], 0.0)
        x = rng.standard_normal((8, 2))
        cache = forward(model, x)
        gl = rng.standard_normal(8)
        grads = backward(model, cache, gl, np.zeros_like(cache.h))
        assert np.allclose(grads.classifier.weights[:, 0], x.T @ gl)
        assert grads.classifier.bias[0] == pytest.approx(gl.sum())

    def test_matches_finite_differences(self, rng):
        model = small_model()
        x = rng.standard_normal((12, 6))
        y = rng.integers(0, 2, 12).astype(float)

        def loss_from_cache(cache):
            from mgkd.losses import kl_hard
            return kl_hard(y, cache.p)

        err = grad_check(loss_fn_over_model(x, loss_from_cache), model)
        assert err < 1e-4

    def test_shape_errors(self, rng):
        model = small_model()
        cache = forward(model, rng.standard_normal((4, 6)))
        with pytest.raises(DimensionError):
            backward(model, cache, np.zeros(3), np.zeros_like(cache.h))
        with pytest.raises(DimensionError):
            backward(model, cache, np.zeros(4), np.zeros((4, 99)))
        other = small_model(hidden=(8,))
        with pytest.raises(StateError):
            backward(other, cache, np.zeros(4), np.zeros_like(cache.h))


class TestAdam:
    def test_zero_grads_identity(self):
        model = small_model()
        before = [a.copy() for _, a in model.param_arrays()]
        grads = model.zeros_like()
        adam_step(model, grads, init_adam(model), lr=0.1, weight_decay=0.0)
        for (_, after), prev in zip(model.param_arrays(), before):
            assert np.array_equal(after, prev)

    def test_scalar_one_step(self):
        model = MlpModel.from_layers([Layer(np.array([[1.0]]), np.zeros(1))],
                                     0.0)
        grads = model.zeros_like()
        grads.classifier.weights[0, 0] = 1.0
        adam_step(model, grads, init_adam(model), lr=0.1)
        # m_hat = v_hat = 1 after bias correction at step 1.
        assert model.classifier.weights[0, 0] == pytest.approx(0.9, abs=1e-7)

    def test_momentum_keeps_moving(self):
        model = MlpModel.from_layers([Layer(np.array([[1.0]]), np.zeros(1))],
                                     0.0)
        state = init_adam(model)
        grads = model.zeros_like()
        grads.classifier.weights[0, 0] = 1.0
        adam_step(model, grads, state, lr=0.1)
        after_first = model.classifier.weights[0, 0]
        grads.classifier.weights[0, 0] = 0.0
        for _ in range(2):
            before = model.classifier.weights[0, 0]
            adam_step(model, grads, state, lr=0.1)
            assert model.classifier.weights[0, 0] != before
        assert model.classifier.weights[0, 0] < after_first

    def test_nonfinite_gradient_names_parameter(self):
        model = small_model()
        grads = model.zeros_like()
        grads.encoder[1].weights[0, 0] = np.nan
        with pytest.raises(NumericError, match=r"encoder\[1\].weights"):
            adam_step(model, grads, init_adam(model), lr=0.1)

    def test_step_counter(self):
        model = small_model()
        state = init_adam(model)
        grads = model.zeros_like()
        for expected in (1, 2, 3):
            adam_step(model, grads, state, lr=0.1)
            assert state.step == expected


class TestGradCheck:
    def test_quadratic_exact(self):
        model = small_model()

        def quad(m):
            value = 0.5 * sum(float(np.sum(a * a))
                              for _, a in m.param_arrays())
            grads = m.zeros_like()
            for (_, g), (_, theta) in zip(grads.param_arrays(),
                                          m.param_arrays()):
                g[...] = theta
            return value, grads

        assert grad_check(quad, model) < 1e-8

    def test_detects_corruption(self, rng):
        model = small_model()
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 2, 8).astype(float)

        def corrupted(m):
            from mgkd.losses import kl_hard
            cache = forward(m, x, "eval")
            lv = kl_hard(y, cache.p)
            grads = backward(m, cache, lv.grad_logit,
                             np.zeros_like(cache.h))
            grads.classifier.weights[0, 0] += 0.1
            return lv.value, grads

        assert grad_check(corrupted, model) > 1e-2

    def test_eps_validation(self):
        with pytest.raises(StateError):
            grad_check(lambda m: (0.0, None), small_model(), eps=0.0)


def _old_adam_step(arrays, grads, ms, vs, t, lr, weight_decay,
                   b1=0.9, b2=0.999, eps=1e-8):
    """The per-array Adam loop that the flat update replaced."""
    for theta, g, m, v in zip(arrays, grads, ms, vs):
        if weight_decay != 0.0:
            g = g + weight_decay * theta
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatLayout:
    def test_views_write_through_both_ways(self):
        model = small_model()
        for i, (name, arr) in enumerate(model.param_arrays()):
            arr.flat[-1] = 1000.0 + i
            assert (model.flat == 1000.0 + i).sum() == 1, name
        model.flat[:] = np.arange(model.flat.size)
        seen = np.concatenate([a.ravel() for _, a in model.param_arrays()])
        assert np.array_equal(seen, model.flat)

    def test_views_share_one_buffer(self):
        model = small_model()
        grads = model.zeros_like()
        for params in (model, grads):
            for _, arr in params.param_arrays():
                assert np.shares_memory(arr, params.flat)
        assert not np.shares_memory(model.flat, grads.flat)
        assert isinstance(model.encoder, tuple)

    def test_order_matches_layers_and_file(self, tmp_path):
        model = small_model()
        names = [name for name, _ in model.param_arrays()]
        assert names == ["encoder[0].weights", "encoder[0].bias",
                         "encoder[1].weights", "encoder[1].bias",
                         "classifier.weights", "classifier.bias"]
        arrays = [a for _, a in model.param_arrays()]
        layer_arrays = [a for layer in model.layers() for a in layer]
        assert all(a is b for a, b in zip(arrays, layer_arrays))
        path = tmp_path / "m.mgkd"
        modelio.save_model(model, path)
        raw, offset = path.read_bytes(), 4 + 13 + 4
        data = b""
        for rows, cols in model.shapes:
            offset += 8
            size = (rows * cols + cols) * 8
            data += raw[offset:offset + size]
            offset += size
        assert offset == len(raw)
        assert data == model.flat.astype("<f8").tobytes()

    def test_adam_matches_per_array_loop(self, rng):
        model = small_model()
        reference = [a.copy() for _, a in model.param_arrays()]
        ms = [np.zeros_like(a) for a in reference]
        vs = [np.zeros_like(a) for a in reference]
        state = init_adam(model)
        grads = model.zeros_like()
        for t in (1, 2, 3):
            grads.flat[:] = rng.standard_normal(grads.flat.size)
            adam_step(model, grads, state, lr=0.01, weight_decay=0.3)
            _old_adam_step(reference, [g for _, g in grads.param_arrays()],
                           ms, vs, t, lr=0.01, weight_decay=0.3)
        flat_ref = np.concatenate([a.ravel() for a in reference])
        assert model.flat.tobytes() == flat_ref.tobytes()
        assert state.m.tobytes() == np.concatenate(
            [m.ravel() for m in ms]).tobytes()
        assert state.v.tobytes() == np.concatenate(
            [v.ravel() for v in vs]).tobytes()

    @pytest.mark.parametrize("shapes", [
        [((5, 4), (4,)), ((6, 1), (1,))],   # fan-in 6 after fan-out 4
        [((5, 4), (3,)), ((4, 1), (1,))],   # bias shorter than fan-out
        [((5, 4), (4,)), ((4, 2), (2,))],   # two-output classifier
        [((5,), (5,))],                     # 1-D weights
        [],                                 # no layers at all
    ])
    def test_non_chaining_layers_rejected(self, shapes):
        layers = [(np.zeros(w), np.zeros(b)) for w, b in shapes]
        with pytest.raises(DimensionError, match="do not chain"):
            MlpModel.from_layers(layers, 0.0)


def _old_forward(model, x, mode, rng):
    """The forward pass that kept pre-activations and all-ones eval masks."""
    a = x
    pre_acts, post_acts, masks = [], [], []
    keep = 1.0 - model.dropout_rate
    for layer in model.encoder:
        s = a @ layer.weights + layer.bias
        r = np.maximum(s, 0.0)
        if mode == "train" and model.dropout_rate > 0.0:
            mask = (rng.random(r.shape) >= model.dropout_rate) / keep
        else:
            mask = np.ones_like(r)
        a = r * mask
        pre_acts.append(s)
        post_acts.append(a)
        masks.append(mask)
    z = (a @ model.classifier.weights).ravel() + model.classifier.bias[0]
    return numcore.ForwardCache(x, pre_acts, post_acts, masks, a, z,
                                numcore.sigmoid(z), mode)


def _old_backward(model, cache, grad_logit, grad_repr):
    """The backward pass that gated on the stored pre-activations."""
    grads = model.zeros_like()
    dz = grad_logit
    grads.classifier.weights[...] = cache.h.T @ dz[:, None]
    grads.classifier.bias[0] = dz.sum()
    da = dz[:, None] * model.classifier.weights[:, 0][None, :] + grad_repr
    for i in range(len(model.encoder) - 1, -1, -1):
        a_prev = cache.post_acts[i - 1] if i > 0 else cache.x
        ds = da * cache.masks[i] * (cache.pre_acts[i] > 0.0)
        grads.encoder[i].weights[...] = a_prev.T @ ds
        grads.encoder[i].bias[...] = ds.sum(axis=0)
        if i > 0:
            da = ds @ model.encoder[i].weights.T
    return grads


class TestLeanForward:
    @pytest.mark.parametrize("mode, dropout", [
        ("train", 0.3), ("train", 0.0), ("eval", 0.3)])
    def test_matches_old_passes_bitwise(self, rng, mode, dropout):
        model = small_model(hidden=(16, 12, 8), dropout=dropout)
        model.flat[:] = 0.5 * rng.standard_normal(model.flat.size)  # biases too
        x = rng.standard_normal((40, 6))
        grad_logit = rng.standard_normal(40)
        grad_repr = rng.standard_normal((40, 8))
        new = forward(model, x, mode, np.random.default_rng(3))
        old = _old_forward(model, x, mode, np.random.default_rng(3))
        for name in ("h", "z", "p"):
            assert getattr(new, name).tobytes() == \
                getattr(old, name).tobytes(), name
        # Some units are off, so the ReLU gate matters.
        assert 0.0 < np.mean(new.post_acts[0] == 0.0) < 1.0
        grads = backward(model, new, grad_logit, grad_repr)
        ref = _old_backward(model, old, grad_logit, grad_repr)
        for (name, g), (_, r) in zip(grads.param_arrays(),
                                     ref.param_arrays()):
            assert g.tobytes() == r.tobytes(), name

    @pytest.mark.parametrize("mode, dropout", [
        ("eval", 0.3), ("train", 0.0)])
    def test_no_mask_one_array_per_layer(self, rng, mode, dropout):
        model = small_model(hidden=(16, 12, 8), dropout=dropout)
        cache = forward(model, rng.standard_normal((5, 6)), mode,
                        np.random.default_rng(3))
        assert cache.masks == [] and cache.pre_acts == []
        assert len(cache.post_acts) == len(model.encoder)
        assert cache.h is cache.post_acts[-1]

    def test_train_mode_keeps_no_mask(self, rng):
        model = small_model(hidden=(16, 12, 8), dropout=0.3)
        cache = forward(model, rng.standard_normal((5, 6)), "train",
                        np.random.default_rng(3))
        assert cache.masks == [] and cache.pre_acts == []
        assert len(cache.post_acts) == 3


def _same_grads(grads, ref):
    for (name, g), (_, r) in zip(grads.param_arrays(), ref.param_arrays()):
        assert g.tobytes() == r.tobytes(), name


class TestWorkspace:
    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    def test_steps_match_old_passes_bitwise(self, rng, dropout):
        # Full, full, then a short last batch, as one epoch of training
        # runs them, with the model moving between steps.
        model = small_model(hidden=(16, 12, 8), dropout=dropout)
        ws = numcore.Workspace(model, 40)
        new_rng, old_rng = np.random.default_rng(3), np.random.default_rng(3)
        for step, n in enumerate((40, 40, 17)):
            model.flat[:] = 0.5 * rng.standard_normal(model.flat.size)
            x = rng.standard_normal((n, 6))
            # Step 1 has no grad_repr and a zero grad_logit.
            grad_logit = rng.standard_normal(n) if step != 1 else np.zeros(n)
            grad_repr = rng.standard_normal((n, 8)) if step != 1 else None
            new = forward(model, x, "train", new_rng, ws)
            old = _old_forward(model, x, "train", old_rng)
            for name in ("h", "z", "p"):
                assert getattr(new, name).tobytes() == \
                    getattr(old, name).tobytes(), (step, name)
            assert np.shares_memory(new.h, ws.buffers["act2"])
            grads = backward(model, new, grad_logit, grad_repr, ws)
            assert grads is ws.grads
            ref = _old_backward(model, old, grad_logit,
                                np.zeros((n, 8)) if grad_repr is None
                                else grad_repr)
            _same_grads(grads, ref)

    def test_backward_without_workspace_returns_fresh_grads(self, rng):
        model = small_model()
        cache = forward(model, rng.standard_normal((4, 6)))
        first = backward(model, cache, np.ones(4))
        before = first.flat.copy()
        second = backward(model, cache, np.ones(4))
        assert not np.shares_memory(first.flat, second.flat)
        assert first.flat.tobytes() == before.tobytes()

    def test_batch_larger_than_workspace(self, rng):
        model = small_model()
        with pytest.raises(StateError, match="workspace buffer"):
            forward(model, rng.standard_normal((9, 6)), "train", None,
                    numcore.Workspace(model, 8))

    def test_step_allocates_less_than_one_batch_array(self):
        from mgkd import losses
        from mgkd.pipeline import DistillConfig
        rows, width = 4096, 64
        # Three layers, so the backward pass uses both gradient buffers.
        cfg = DistillConfig(alpha=0.2, beta=0.25, lam=0.1, dropout=0.2,
                            hidden_dims=(width, width, width))
        data_rng = np.random.default_rng(0)
        x_tr = data_rng.standard_normal((2 * rows, 20))
        y_tr = (data_rng.random(2 * rows) < 0.2).astype(float)
        teacher_h = data_rng.standard_normal((2 * rows, width))
        teacher_z = data_rng.standard_normal(2 * rows)
        snapshot = data_rng.standard_normal(2 * rows)
        rng = np.random.default_rng(1)
        model = init_mlp(20, list(cfg.hidden_dims), cfg.dropout, rng)
        state = init_adam(model)

        def step(ws):
            idx = rng.permutation(2 * rows)[:rows]
            x, h = (x_tr[idx], teacher_h[idx]) if ws is None else \
                (ws.take("x", x_tr, idx), ws.take("teacher_h", teacher_h, idx))
            cache = forward(model, x, "train", rng, ws)
            total, _ = losses.objective(cfg, cache, y_tr[idx], None, h,
                                        teacher_z[idx], snapshot[idx], ws)
            grads = backward(model, cache, total.grad_logit,
                             total.grad_repr, ws)
            adam_step(model, grads, state, cfg.lr, cfg.weight_decay)

        def peak_bytes(ws):
            step(ws)  # warm-up
            tracemalloc.start()
            try:
                step(ws)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_array = rows * width * 8
        assert peak_bytes(numcore.Workspace(model, rows)) < one_array
        assert peak_bytes(None) > one_array  # numpy's buffers are traced
