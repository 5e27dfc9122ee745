import threading
import tracemalloc

import numpy as np
import pytest

from mgkd import numcore, pipeline

GRAD_CHECK_MAX_PARAMS = 10_000


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more live Python threads than it began
    with: every thread pool must end inside the call that made it."""
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, \
        f"{threading.active_count() - threads} thread(s) outlived the test"


def peak_bytes(fn) -> int:
    """The peak of the memory `tracemalloc` traces while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ablation(ds, cfg, seeds, store, modes=pipeline.ABLATION_MODES, jobs=1):
    """`mgkd ablate`'s grid: one `run_grid` point per mode. Every test
    report, seed by seed, and the model records."""
    per_seed, models = pipeline.run_grid(
        ds, cfg, seeds, [(m, {"mode": m}) for m in modes], store, jobs)
    return [report for reports in per_seed for report in reports], models


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def small_model(input_dim=6, hidden=(8, 8), dropout=0.0, seed=7):
    return numcore.init_mlp(input_dim, list(hidden), dropout,
                            np.random.default_rng(seed))


def zero_grads(model) -> numcore.FlatParams:
    """A zero gradient in `model`'s flat layout."""
    return numcore.FlatParams(np.zeros_like(model.flat), model.shapes)


def grad_check(value_fn, grad_fn, model, eps=1e-5, rng=None,
               sample_size=1500) -> float:
    """Worst relative error between analytic and central-difference grads.

    `grad_fn(model)` returns the FlatParams gradient, taken once;
    `value_fn(model)` returns the loss, taken at every +-eps point. Above
    GRAD_CHECK_MAX_PARAMS parameters a random subsample of coordinates is
    checked to bound the runtime.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grads = grad_fn(model)
    flat, total = model.flat, model.flat.size

    if total > GRAD_CHECK_MAX_PARAMS:
        if rng is None:
            rng = np.random.default_rng(0)
        indices = rng.choice(total, size=min(sample_size, total),
                             replace=False)
    else:
        indices = np.arange(total)

    worst = 0.0
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + eps
        plus = value_fn(model)
        flat[idx] = orig - eps
        minus = value_fn(model)
        flat[idx] = orig
        numeric = (plus - minus) / (2.0 * eps)
        analytic = grads.flat[idx]
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst


def loss_fns_over_model(x, loss_from_cache):
    """`(value_fn, grad_fn)` for `grad_check` from a LossValue-producing
    `loss_from_cache(cache)` on an eval-mode pass over `x`.

    Only `grad_fn` runs backward().
    """
    def value_fn(model):
        return loss_from_cache(numcore.forward(model, x, "eval")).value

    def grad_fn(model):
        cache = numcore.forward(model, x, "eval")
        lv = loss_from_cache(cache)
        grad_logit = lv.grad_logit if lv.grad_logit is not None \
            else np.zeros_like(cache.z)
        grad_repr = lv.grad_repr if lv.grad_repr is not None \
            else np.zeros_like(cache.h)
        return numcore.backward(model, cache, grad_logit, grad_repr)
    return value_fn, grad_fn
