"""In-memory span tracer for mgkd, installed from outside the package.

The tracer replaces the public functions of mgkd's modules with wrappers
that record a span (name, start, end, parent) around each call. Every
internal call in mgkd goes through a module attribute (`numcore.forward`,
`metrics.auc` inside `metrics.evaluate`, ...), so replacing the attribute
traces internal calls too. Leaving the `with` block puts every original
function back.

Besides spans, a few hooks record counts where the work happens. Counts
marked "computed" in PER_LAYER are derived from shapes, file sizes or
parameter bytes, not timed.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time
from collections import defaultdict

TRACED_MODULES = ("data", "numcore", "losses", "metrics", "modelio",
                  "pipeline", "cli")

# (name, unit, better, how). "timed" values come from spans; "computed"
# values come from shapes, file sizes or parameter bytes; "derived" values
# combine the two.
PER_LAYER = (
    ("data.save_delimited.s", "s", "lower", "timed"),
    ("data.save_delimited.mb", "MB", "lower", "computed"),
    ("data.load_delimited.s", "s", "lower", "timed"),
    ("data.load_delimited.rows", "count", "lower", "computed"),
    ("data.generate_synthetic.s", "s", "lower", "timed"),
    ("data.temporal_split.s", "s", "lower", "timed"),
    ("data.fit_standardize.s", "s", "lower", "timed"),
    ("data.apply_standardize.s", "s", "lower", "timed"),
    ("numcore.forward_train.s", "s", "lower", "timed"),
    ("numcore.forward_train.calls", "count", "lower", "computed"),
    ("numcore.forward_train.rows", "count", "lower", "computed"),
    ("numcore.backward.s", "s", "lower", "timed"),
    ("numcore.adam_step.s", "s", "lower", "timed"),
    ("numcore.forward_eval.s", "s", "lower", "timed"),
    ("numcore.forward_eval.rows", "count", "lower", "computed"),
    ("numcore.forward_eval.cache_mb", "MB", "lower", "computed"),
    ("numcore.useful_gflop", "GFLOP", "lower", "computed"),
    ("numcore.useful_gflop_per_s", "GFLOP/s", "higher", "derived"),
    ("losses.kl_hard.s", "s", "lower", "timed"),
    ("losses.kl_soft.s", "s", "lower", "timed"),
    ("losses.feat_loss.s", "s", "lower", "timed"),
    ("losses.self_loss.s", "s", "lower", "timed"),
    ("losses.distill_total.s", "s", "lower", "timed"),
    ("metrics.auc.s", "s", "lower", "timed"),
    ("metrics.ks.s", "s", "lower", "timed"),
    ("metrics.recall_at_k.s", "s", "lower", "timed"),
    ("metrics.evaluate.calls", "count", "lower", "computed"),
    ("metrics.evaluate.rows", "count", "lower", "computed"),
    ("pipeline.train_teacher.calls", "count", "lower", "computed"),
    ("pipeline.train_teacher.s", "s", "lower", "timed"),
    ("pipeline.teacher_useful_ratio", "ratio", "higher", "computed"),
    ("pipeline.train_student.calls", "count", "lower", "computed"),
    ("pipeline.train_student.s", "s", "lower", "timed"),
    ("pipeline.self_s", "s", "lower", "timed"),
    ("pipeline.predict.s", "s", "lower", "timed"),
    ("modelio.save_model.s", "s", "lower", "timed"),
    ("modelio.load_model.s", "s", "lower", "timed"),
    ("modelio.bytes", "bytes", "lower", "computed"),
    ("cli.generate.s", "s", "lower", "timed"),
    ("cli.generate.self_s", "s", "lower", "timed"),
    ("cli.train_teacher.s", "s", "lower", "timed"),
    ("cli.train_teacher.self_s", "s", "lower", "timed"),
    ("cli.train_student.s", "s", "lower", "timed"),
    ("cli.train_student.self_s", "s", "lower", "timed"),
    ("cli.eval.s", "s", "lower", "timed"),
    ("cli.eval.self_s", "s", "lower", "timed"),
    ("cli.sweep.s", "s", "lower", "timed"),
    ("cli.sweep.self_s", "s", "lower", "timed"),
    ("cli.ablate.s", "s", "lower", "timed"),
    ("cli.ablate.self_s", "s", "lower", "timed"),
    ("trace.overhead_s", "s", "lower", "derived"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _span_name(module: str, attr: str, args, kwargs) -> str:
    if module == "numcore" and attr == "forward":
        return f"numcore.forward_{_arg(args, kwargs, 2, 'mode', 'eval')}"
    if module == "cli":
        command = attr[len("cmd_"):]
        if command == "train":
            is_teacher = _arg(args, kwargs, 0, "args").mode == "teacher"
            command = "train_teacher" if is_teacher else "train_student"
        return f"cli.{command}"
    return f"{module}.{attr}"


def _traceable(module_name: str, module, attr: str, obj) -> bool:
    if attr.startswith("_") or not inspect.isfunction(obj):
        return False
    if obj.__module__ != module.__name__:
        return False  # imported from elsewhere; traced where it is defined
    if module_name == "cli":
        return attr.startswith("cmd_")
    return True


def _weight_sizes(model) -> list[int]:
    return [layer.weights.size for layer in model.layers()]


# Hooks run after the call returns, outside its span. Each gets the tracer,
# the call's arguments and its result.

def _count_forward(tracer, args, kwargs, cache):
    n = cache.z.shape[0]
    tracer.counts[f"numcore.forward_{cache.mode}.rows"] += n
    tracer.counts["numcore.useful_gflop"] += \
        2.0 * n * sum(_weight_sizes(_arg(args, kwargs, 0, "model"))) / 1e9
    if cache.mode == "eval":
        arrays = [cache.x, *cache.pre_acts, *cache.post_acts, *cache.masks,
                  cache.h, cache.z, cache.p]
        unique = {id(a): a for a in arrays}.values()
        mb = sum(a.nbytes for a in unique) / 1e6
        key = "numcore.forward_eval.cache_mb"
        tracer.counts[key] = max(tracer.counts[key], mb)


def _count_backward(tracer, args, kwargs, grads):
    n = _arg(args, kwargs, 1, "cache").z.shape[0]
    sizes = _weight_sizes(_arg(args, kwargs, 0, "model"))
    # Weight gradients of every layer, plus input gradients of every layer
    # but encoder[0], whose input gradient nothing uses.
    tracer.counts["numcore.useful_gflop"] += \
        2.0 * n * (sum(sizes) + sum(sizes[1:])) / 1e9


def _count_save_delimited(tracer, args, kwargs, _):
    path = _arg(args, kwargs, 1, "path")
    tracer.counts["data.save_delimited.mb"] += os.path.getsize(path) / 1e6


def _count_load_delimited(tracer, args, kwargs, ds):
    tracer.counts["data.load_delimited.rows"] += ds.n


def _count_evaluate(tracer, args, kwargs, report):
    tracer.counts["metrics.evaluate.rows"] += len(_arg(args, kwargs, 0,
                                                       "scores"))


def _count_model_file(index):
    def hook(tracer, args, kwargs, _):
        tracer.counts["modelio.bytes"] += \
            os.path.getsize(_arg(args, kwargs, index, "path"))
    return hook


def _record_teacher(tracer, args, kwargs, result):
    model = result[0]
    digest = hashlib.sha256()
    for _, array in model.param_arrays():
        digest.update(array.tobytes())
    tracer.teacher_digests.add(digest.hexdigest())


HOOKS = {
    ("numcore", "forward"): _count_forward,
    ("numcore", "backward"): _count_backward,
    ("data", "save_delimited"): _count_save_delimited,
    ("data", "load_delimited"): _count_load_delimited,
    ("metrics", "evaluate"): _count_evaluate,
    ("modelio", "save_model"): _count_model_file(1),
    ("modelio", "load_model"): _count_model_file(0),
    ("pipeline", "train_teacher"): _record_teacher,
}


class Tracer:
    """Spans and counts for every traced call made inside a `with` block.

    `modules` maps a short name from TRACED_MODULES to the module object.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.teacher_digests: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, module in self.modules.items():
                for attr, obj in list(vars(module).items()):
                    if _traceable(name, module, attr, obj):
                        self._saved.append((module, attr, obj))
                        setattr(module, attr, self._wrap(name, attr, obj))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every replaced module attribute back."""
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def _wrap(self, module: str, attr: str, fn):
        hook = HOOKS.get((module, attr))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(module, attr, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for name, start, end, parent in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER value except trace.overhead_s."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1

        compute_s = sum(total[f"numcore.{name}"] for name in
                        ("forward_train", "forward_eval", "backward"))
        gflop = self.counts["numcore.useful_gflop"]
        teachers = calls["pipeline.train_teacher"]
        special = {
            "pipeline.self_s": self_time["pipeline.train_teacher"]
            + self_time["pipeline.train_student"],
            "numcore.useful_gflop_per_s":
                gflop / compute_s if compute_s else 0.0,
            # With no teacher trained, no teacher training was wasted.
            "pipeline.teacher_useful_ratio":
                len(self.teacher_digests) / teachers if teachers else 1.0,
        }
        out = {}
        for name, _, _, _ in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if name in special:
                out[name] = special[name]
            elif name.endswith(".self_s"):
                out[name] = self_time[name[:-len(".self_s")]]
            elif name.endswith(".s"):
                out[name] = total[name[:-len(".s")]]
            elif name.endswith(".calls"):
                out[name] = float(calls[name[:-len(".calls")]])
            else:
                out[name] = float(self.counts[name])
        return out
