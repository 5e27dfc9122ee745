import math

import numpy as np
import pytest

from mgkd import modelio, numcore
from mgkd.errors import DataError, TrainingError
from mgkd.numcore import (Layer, MlpModel, adam_step, backward, forward,
                          init_adam, init_mlp)

from conftest import grad_check, loss_fns_over_model, peak_bytes, small_model


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
        with pytest.raises(DataError,
                           match="input has 7 columns, model expects 6"):
            forward(small_model(), rng.standard_normal((3, 7)))

    def test_composition_contract(self, rng):
        # p must be exactly sigmoid(classifier(H)) for the cached H.
        model = small_model()
        cache = forward(model, rng.standard_normal((9, 6)))
        z = np.einsum("ij,j->i", cache.h, model.classifier.weights[:, 0]) \
            + model.classifier.bias[0]
        assert np.array_equal(cache.p, numcore.sigmoid(z))
        assert cache.h.shape[1] == model.repr_dim

    def test_train_dropout_needs_rng(self):
        model = small_model(dropout=0.4)
        with pytest.raises(TrainingError, match="needs an rng"):
            forward(model, np.ones((2, 6)), "train")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_unit_with_zero_weight_raises(self, mode, bad):
        # The bias makes hidden unit 0 inf or NaN on every row. Its
        # classifier weight is 0, so only the logit check, through inf * 0
        # or NaN, can see it.
        model = MlpModel.from_layers([(np.eye(2), np.array([bad, 0.0])),
                                      (np.array([[0.0], [1.0]]), np.zeros(1))])
        x = np.array([[0.5, 1.0], [2.0, 3.0]])
        with pytest.raises(TrainingError, match="non-finite activations"):
            forward(model, x, mode)


def _two_branch_sigmoid(z):
    """The masked two-branch sigmoid that the branch-free one replaced."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("z", [
        0.0, -0.0, 800.0, -800.0, 1e308, -1e308, 37.5,
        np.array([0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.2, -745.2]),
        np.linspace(-800.0, 800.0, 4001).reshape(-1, 1),
        np.random.default_rng(0).standard_normal((7, 9)) * 40.0,
        np.array([[1e308, -1e308], [5e-324, -5e-324]]),
    ], ids=["zero", "neg_zero", "800", "-800", "1e308", "-1e308", "0d_float",
            "edges", "sweep_2d", "random_2d", "extremes_2d"])
    def test_matches_two_branch_bitwise(self, z):
        got = numcore.sigmoid(z)
        ref = _two_branch_sigmoid(z)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == np.shape(z)
        assert got.tobytes() == ref.tobytes()

    def test_saturates_without_warnings(self):
        # The suite turns warnings into errors, so an overflowing exp fails.
        z = np.array([-1e308, -800.0, 800.0, 1e308])
        assert np.array_equal(numcore.sigmoid(z), [0.0, 0.0, 1.0, 1.0])


def _one_shot_flags(rng, shape):
    """The 16-bit keep flags of `shape` units from one `random_raw` draw."""
    n = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-n // 4))
    return raw.astype("<u8").view(np.uint16)[:n].reshape(shape)


class TestDropout:
    def test_mask_fraction_and_rescale(self, rng):
        rate, k = 0.3, 19660  # k = floor(0.3 * 65536)
        scale = 65536 / (65536 - k)
        model = small_model(input_dim=4, hidden=(400,), dropout=rate)
        x = np.abs(rng.standard_normal((50, 4))) + 0.5
        cache = forward(model, x, "train", np.random.default_rng(5))
        # Replay the flags: the mask is (flag >= k) * scale.
        kept = _one_shot_flags(np.random.default_rng(5), (50, 400)) >= k
        mask = kept * scale
        n = mask.size
        zero_frac = np.mean(mask == 0.0)
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(zero_frac - rate) < 3 * sigma
        # Survivors rescaled by 1/keep: mask expectation is 1.
        assert np.mean(mask) == pytest.approx(1.0, abs=3 * sigma / (1 - rate))
        layer = model.encoder[0]
        pre = x @ layer.weights + layer.bias
        expected = np.maximum(pre, 0.0) * scale * kept
        assert cache.post_acts[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (17, 9), (1000, 67),
                                       (65537, 1), (3, 65539)])
    @pytest.mark.parametrize("use_ws", [True, False])
    def test_chunked_flags_equal_one_draw(self, shape, use_ws):
        # Sizes that are not multiples of 4 or of FLAG_CHUNK; the rng must
        # also end in the same state.
        ws = numcore.Workspace() if use_ws else None
        chunked, one = np.random.default_rng(2), np.random.default_rng(2)
        got = numcore._keep_flags(chunked, 13107, shape, ws)
        assert got.dtype == bool and got.shape == shape
        assert np.array_equal(got, _one_shot_flags(one, shape) >= 13107)
        assert chunked.bit_generator.state == one.bit_generator.state

    @pytest.mark.parametrize("rate, k, scale", [
        (0.2, 13107, 65536 / 52429), (0.4, 26214, 65536 / 39322),
        (1e-6, 0, 1.0), (1 - 2.0 ** -53, 65535, 65536.0)])
    def test_quantised_rate(self, rate, k, scale):
        assert numcore._dropout_k(rate) == k
        assert numcore._dropout_scale(rate) == scale

    def test_zero_rate_draws_nothing(self, rng):
        model = small_model(dropout=0.0)
        x = rng.standard_normal((9, 6))
        draws = np.random.default_rng(4)
        before = draws.bit_generator.state
        cache = forward(model, x, "train", draws)
        assert draws.bit_generator.state == before
        assert cache.h.tobytes() == forward(model, x, "eval").h.tobytes()

    def test_rate_below_one_level_keeps_every_unit(self, rng):
        # k = 0: the flags are drawn, every unit is kept, the scale is 1.
        model = small_model(dropout=1e-6)
        x = rng.standard_normal((9, 6))
        grad_logit = rng.standard_normal(9)
        draws = np.random.default_rng(4)
        before = draws.bit_generator.state
        train = forward(model, x, "train", draws)
        assert draws.bit_generator.state != before
        ev = forward(model, x, "eval")
        for name in ("h", "z"):
            assert getattr(train, name).tobytes() == \
                getattr(ev, name).tobytes()
        assert backward(model, train, grad_logit).flat.tobytes() == \
            backward(model, ev, grad_logit).flat.tobytes()

    def test_rate_just_below_one_is_finite(self, rng):
        # k = 65535: a unit is kept only when its flag is 65535, and then
        # scaled by 65536.
        model = small_model(hidden=(4096,), dropout=1 - 2.0 ** -53)
        x = rng.standard_normal((64, 6))
        cache = forward(model, x, "train", np.random.default_rng(4))
        kept = _one_shot_flags(np.random.default_rng(4), (64, 4096)) == 65535
        layer = model.encoder[0]
        pre = x @ layer.weights + layer.bias
        expected = np.maximum(pre, 0.0) * 65536.0 * kept
        assert kept.any()
        assert cache.post_acts[0].tobytes() == expected.tobytes()
        assert np.all(np.isfinite(backward(model, cache, np.ones(64)).flat))


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

        err = grad_check(*loss_fns_over_model(x, loss_from_cache), model)
        assert err < 1e-4

    def test_shape_errors(self, rng):
        model = small_model()
        cache = forward(model, rng.standard_normal((4, 6)))
        with pytest.raises(DataError, match=r"grad_logit shape \(3,\)"):
            backward(model, cache, np.zeros(3), np.zeros_like(cache.h))
        with pytest.raises(DataError, match=r"grad_repr shape \(4, 99\)"):
            backward(model, cache, np.zeros(4), np.zeros((4, 99)))
        other = small_model(hidden=(8,))
        with pytest.raises(TrainingError, match="layer count"):
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
        with pytest.raises(TrainingError, match=r"encoder\[1\].weights"):
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

        def value(m):
            return 0.5 * sum(float(np.sum(a * a))
                             for _, a in m.param_arrays())

        def grad(m):
            grads = m.zeros_like()
            for (_, g), (_, theta) in zip(grads.param_arrays(),
                                          m.param_arrays()):
                g[...] = theta
            return grads

        assert grad_check(value, grad, model) < 1e-8

    def test_detects_corruption(self, rng):
        model = small_model()
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 2, 8).astype(float)

        from mgkd.losses import kl_hard
        value, grad = loss_fns_over_model(x, lambda c: kl_hard(y, c.p))

        def corrupted(m):
            grads = grad(m)
            grads.classifier.weights[0, 0] += 0.1
            return grads

        assert grad_check(value, corrupted, model) > 1e-2

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            grad_check(lambda m: 0.0, lambda m: None, small_model(), eps=0.0)


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
        modelio.save_model(model, path, "pre")
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
        with pytest.raises(DataError, match="do not chain"):
            MlpModel.from_layers(layers, 0.0)


def _old_forward(model, x, mode, rng):
    """The forward pass that kept pre-activations and all-ones eval masks."""
    a = x
    pre_acts, post_acts, masks = [], [], []
    k = int(model.dropout_rate * 65536)  # keep a unit when its flag >= k
    for layer in model.encoder:
        s = a @ layer.weights + layer.bias
        r = np.maximum(s, 0.0)
        if mode == "train" and model.dropout_rate > 0.0:
            mask = (_one_shot_flags(rng, r.shape) >= k) * (65536 / (65536 - k))
        else:
            mask = np.ones_like(r)
        a = r * mask
        pre_acts.append(s)
        post_acts.append(a)
        masks.append(mask)
    z = np.einsum("ij,j->i", a, model.classifier.weights[:, 0]) \
        + model.classifier.bias[0]
    return numcore.ForwardCache(x, pre_acts, post_acts, masks, a, z,
                                numcore.sigmoid(z), mode)


def _old_backward(model, cache, grad_logit, grad_repr):
    """The backward pass that gated on the stored pre-activations, with
    each weight gradient summed as `numcore.backward` sums it: over the
    first multiple of 32 rows, then the rest."""
    grads = model.zeros_like()
    dz = grad_logit
    grads.classifier.weights[...] = cache.h.T @ dz[:, None]
    grads.classifier.bias[0] = dz.sum()
    da = dz[:, None] * model.classifier.weights[:, 0][None, :] + grad_repr
    for i in range(len(model.encoder) - 1, -1, -1):
        a_prev = cache.post_acts[i - 1] if i > 0 else cache.x
        ds = da * cache.masks[i] * (cache.pre_acts[i] > 0.0)
        cut = len(ds) - len(ds) % 32 or len(ds)  # below 32 rows, all
        weights = grads.encoder[i].weights
        weights[...] = a_prev[:cut].T @ ds[:cut]
        if cut < len(ds):
            weights += a_prev[cut:].T @ ds[cut:]
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
        # A short batch, two full ones and a short last one, with the model
        # moving between steps: the second step grows every row-sized
        # buffer, and the last two reuse them.
        model = small_model(hidden=(16, 12, 8), dropout=dropout)
        ws = numcore.Workspace()
        new_rng, old_rng = np.random.default_rng(3), np.random.default_rng(3)
        for step, n in enumerate((17, 40, 40, 17)):
            before = dict(ws.buffers)
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
            f64 = np.dtype(np.float64)
            assert np.shares_memory(new.h, ws.buffers["act2", f64])
            grads = backward(model, new, grad_logit, grad_repr, ws)
            assert np.shares_memory(grads.flat,
                                    ws.buffers["grads", f64])
            ref = _old_backward(model, old, grad_logit,
                                np.zeros((n, 8)) if grad_repr is None
                                else grad_repr)
            _same_grads(grads, ref)
            grown = {key for key, buf in ws.buffers.items()
                     if before.get(key) is not buf}
            assert grown == [set(ws.buffers),
                             set(ws.buffers) - {("grads", f64)},
                             set(), set()][step], step
        assert ws.buffers["bool", np.dtype(bool)].dtype == bool

    def test_backward_without_workspace_returns_fresh_grads(self, rng):
        model = small_model()
        cache = forward(model, rng.standard_normal((4, 6)))
        first = backward(model, cache, np.ones(4))
        before = first.flat.copy()
        second = backward(model, cache, np.ones(4))
        assert not np.shares_memory(first.flat, second.flat)
        assert first.flat.tobytes() == before.tobytes()

    def test_reserve_sizes_every_eval_buffer(self, rng):
        model = small_model(hidden=(16, 12, 8), dropout=0.3)
        ws = numcore.Workspace().reserve(model.shapes, 40)
        reserved = dict(ws.buffers)
        for n in (40, 1, 0):
            forward(model, rng.standard_normal((n, 6)), "eval", ws=ws)
            # no buffer added or regrown
            assert list(ws.buffers) == list(reserved), n
            assert all(ws.buffers[k] is buf for k, buf in reserved.items())

    @pytest.mark.parametrize("hidden", [(16, 12, 8), (8,), ()])
    def test_reserve_sizes_every_step_buffer(self, rng, hidden):
        # A full-mode step as the trainer runs it: rows gathered into `x`
        # and the teacher's into `grad1`, a train-mode forward, objective
        # and backward.
        from mgkd import losses
        from mgkd.pipeline import DistillConfig
        model = small_model(hidden=hidden, dropout=0.3)
        work = MlpModel(model.flat.astype(np.float32), model.shapes,
                        model.dropout_rate)
        cfg = DistillConfig(alpha=0.2, beta=0.25, lam=0.1)
        x_tr = rng.standard_normal((60, 6)).astype(np.float32)
        teacher_h = rng.standard_normal((60, model.repr_dim)) \
            .astype(np.float32)
        ws = numcore.Workspace().reserve(model.shapes, 40, np.float32,
                                         step=True)
        reserved = dict(ws.buffers)
        for n in (40, 17, 1):
            idx = rng.permutation(60)[:n]
            cache = forward(work, ws.take("x", x_tr, idx), "train",
                            np.random.default_rng(3), ws)
            total, _ = losses.objective(
                cfg, cache, rng.integers(0, 2, n), None,
                ws.take("grad1", teacher_h, idx), rng.standard_normal(n),
                rng.standard_normal(n), ws)
            backward(work, cache, total.grad_logit, total.grad_repr, ws)
            # no buffer added or regrown
            assert list(ws.buffers) == list(reserved), n
            assert all(ws.buffers[k] is buf for k, buf in reserved.items())

    def test_step_allocates_less_than_one_batch_array(self):
        one_array = STEP_ROWS * STEP_WIDTH * 8
        assert _step_peak_bytes(np.float64, numcore.Workspace()) < one_array
        # numpy's buffers are traced
        assert _step_peak_bytes(np.float64, None) > one_array

    def test_float32_step_allocates_less_than_one_batch_array(self):
        one_array = STEP_ROWS * STEP_WIDTH * 4
        assert _step_peak_bytes(np.float32, numcore.Workspace()) < one_array
        assert _step_peak_bytes(np.float32, None) > one_array


STEP_ROWS, STEP_WIDTH = 4096, 64


def _step_peak_bytes(dtype, ws):
    """Peak traced bytes of the second of two training steps, run as
    `pipeline._train_model` runs them: a `dtype` copy of the model does
    forward, losses and backward, and Adam updates the float64 master."""
    from mgkd import losses
    from mgkd.pipeline import DistillConfig
    rows, width = STEP_ROWS, STEP_WIDTH
    # Three layers, so the backward pass uses both gradient buffers.
    cfg = DistillConfig(alpha=0.2, beta=0.25, lam=0.1, dropout=0.2,
                        hidden_dims=(width, width, width))
    data_rng = np.random.default_rng(0)
    x_tr = data_rng.standard_normal((2 * rows, 20)).astype(dtype)
    y_tr = (data_rng.random(2 * rows) < 0.2).astype(float)
    teacher_h = data_rng.standard_normal((2 * rows, width)).astype(dtype)
    teacher_z = data_rng.standard_normal(2 * rows)
    snapshot = data_rng.standard_normal(2 * rows)
    rng = np.random.default_rng(1)
    model = init_mlp(20, list(cfg.hidden_dims), cfg.dropout, rng)
    work = MlpModel(model.flat.astype(dtype), model.shapes, cfg.dropout)
    state = init_adam(model)

    def step():
        idx = rng.permutation(2 * rows)[:rows]
        x, h = (x_tr[idx], teacher_h[idx]) if ws is None else \
            (ws.take("x", x_tr, idx), ws.take("grad1", teacher_h, idx))
        np.copyto(work.flat, model.flat, casting="same_kind")
        cache = forward(work, x, "train", rng, ws)
        total, _ = losses.objective(cfg, cache, y_tr[idx], None, h,
                                    teacher_z[idx], snapshot[idx], ws)
        grads = backward(work, cache, total.grad_logit, total.grad_repr, ws)
        adam_step(model, grads, state, cfg.lr, cfg.weight_decay)

    step()  # warm-up
    return peak_bytes(step)


class TestFloat32:
    def _model_and_batch(self, rng, dropout=0.3):
        model = small_model(hidden=(16, 12, 8), dropout=dropout)
        model.flat[:] = 0.5 * rng.standard_normal(model.flat.size)
        return (model, rng.standard_normal((40, 6)),
                rng.standard_normal(40), rng.standard_normal((40, 8)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("use_ws", [True, False])
    def test_float32_pass_close_to_float64(self, rng, mode, use_ws):
        model, x, grad_logit, grad_repr = self._model_and_batch(rng)
        work = MlpModel(model.flat.astype(np.float32), model.shapes,
                        model.dropout_rate)
        ws = numcore.Workspace() if use_ws else None
        # The same rng stream, so the same dropout masks.
        ref = forward(model, x, mode, np.random.default_rng(3))
        ref_grads = backward(model, ref, grad_logit, grad_repr)
        cache = forward(work, x.astype(np.float32), mode,
                        np.random.default_rng(3), ws)
        for name in ("h", "z"):
            got = getattr(cache, name)
            assert got.dtype == np.float32, name
            np.testing.assert_allclose(got, getattr(ref, name), rtol=1e-4,
                                       atol=1e-6)
        assert all(a.dtype == np.float32 for a in cache.post_acts)
        assert cache.p.dtype == np.float64  # sigmoid upcasts
        np.testing.assert_allclose(cache.p, ref.p, rtol=1e-4)
        grads = backward(work, cache, grad_logit, grad_repr, ws)
        assert grads.flat.dtype == np.float32
        np.testing.assert_allclose(grads.flat, ref_grads.flat, rtol=1e-4,
                                   atol=1e-5)
        if use_ws:
            assert np.shares_memory(grads.flat,
                                    ws.buffers["grads", np.dtype(np.float32)])
            for (name, dtype), buf in ws.buffers.items():
                assert buf.dtype == dtype == \
                    ("bool" if name == "bool" else "float32"), name

    def test_dtype_change_reallocates_buffers(self, rng):
        # Each dtype gets buffers of its own: a float64 pass after a
        # float32 step leaves the float32 buffers as they are.
        model, x, grad_logit, _ = self._model_and_batch(rng, dropout=0.0)
        work = MlpModel(model.flat.astype(np.float32), model.shapes)
        ws = numcore.Workspace()
        backward(work, forward(work, x.astype(np.float32), ws=ws),
                 grad_logit, ws=ws)
        step_buffers = dict(ws.buffers)
        cache = forward(model, x, ws=ws)
        assert cache.h.dtype == np.float64
        assert ws.buffers["act0", np.dtype(np.float64)].dtype == np.float64
        grads = backward(model, cache, grad_logit, ws=ws)
        assert grads.flat.dtype == np.float64
        assert ws.buffers["grads", np.dtype(np.float64)].dtype == np.float64
        assert cache.h.tobytes() == forward(model, x).h.tobytes()
        assert all(ws.buffers[key] is buf
                   for key, buf in step_buffers.items())
        assert {dtype.name for _, dtype in step_buffers} == {"float32", "bool"}

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float16,
                                       np.float64, bool])
    def test_as_matrix_upcasts_all_but_float32(self, dtype):
        a = numcore._as_matrix(np.ones((2, 3), dtype=dtype), "a")
        assert a.dtype == np.float64
        assert numcore._as_matrix([[1, 2]], "a").dtype == np.float64
        f32 = np.ones((2, 3), dtype=np.float32)
        assert numcore._as_matrix(f32, "a") is f32

    @pytest.mark.parametrize("weight_decay", [0.0, 0.3])
    def test_adam_upcasts_float32_grads(self, rng, weight_decay):
        model, ref = small_model(), small_model()
        state, ref_state = init_adam(model), init_adam(ref)
        grads = numcore.FlatParams(np.empty(model.flat.size, np.float32),
                                   model.shapes)
        for _ in range(3):
            grads.flat[:] = rng.standard_normal(grads.flat.size)
            adam_step(model, grads, state, 0.01, weight_decay)
            adam_step(ref, numcore.FlatParams(grads.flat.astype(np.float64),
                                              ref.shapes),
                      ref_state, 0.01, weight_decay)
        for got, want in ((model.flat, ref.flat), (state.m, ref_state.m),
                          (state.v, ref_state.v)):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
