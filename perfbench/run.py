#!/usr/bin/env python3
"""mgkd benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_chain --seed 0 \
        --seconds 30 --trace 0

Set-up runs at least three times, each in a fresh interpreter, and
`setup_s` is the median. The measured part then runs in this process: one
warm-up iteration, then timed iterations until `--seconds` is used up (at
least two). Every iteration must produce byte-identical outputs. With
`--trace 1` the timed iterations alternate untraced and traced, and the
per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it,
starting `ENV ` and `DETAIL `, hold the environment block and the
workload's stage times and recorded-only results. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up repeats at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_TOTAL_S, so that short set-ups get a steadier median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_TOTAL_S = 2.0
SETUP_TIMEOUT_S = 150
MIN_TIMED_ITERATIONS = 2

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("test_auc", "auc", "higher", 0.25),
)


def _pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    On a 2-CPU machine shared with other work, one thread was slower than
    two but gave steadier times (see README.md).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_chain", "distill_grid", "batch_score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    parser.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _tree_digest(directory: Path) -> str:
    """Hash of every file under `directory` except manifests, which hold
    timings and absolute paths."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and not path.name.endswith("_manifest.json"):
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _setups(args, work: Path) -> tuple[list[float], Path, bool]:
    """Time the repeated set-ups. Returns the times, the first set-up's
    inputs, and whether every repeat produced the same input files."""
    times, digests = [], set()
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_TOTAL_S and len(times) < SETUP_MAX_REPEATS):
        inputs = work / f"setup{len(times)}"
        inputs.mkdir(parents=True)
        command = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--scale", args.scale, "--setup-into", str(inputs)]
        t0 = perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        # A blocking wait: `wait(timeout=...)` polls in steps of up to 50 ms,
        # which would quantize set-up times.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}")
        digests.add(_tree_digest(inputs))
        if len(times) > 1:
            shutil.rmtree(inputs)
    return times, work / "setup0", len(digests) == 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(args, workload, out: Path):
    """Iteration 0 warms caches and allocators and is left out of every
    median; its outputs are still checked. Then, with `--trace 1`, untraced
    and traced iterations alternate."""
    from tracer import TRACED_MODULES, Tracer
    modules = {name: importlib.import_module(f"mgkd.{name}")
               for name in TRACED_MODULES}
    iterations = []  # (ops, tracer or None)
    start = perf_counter()
    while True:
        # Order: warm-up, untraced, traced, untraced, traced, ...
        n = len(iterations)
        traced = bool(args.trace) and n >= 2 and n % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if traced:
            with Tracer(modules) as tracer:
                ops = workload.iterate(out)
        else:
            tracer = None
            ops = workload.iterate(out)
        iterations.append((ops, tracer))
        if len(iterations) == 1:
            try:
                workload.finish_quality()
            except Exception:  # reported as an incorrect run below
                traceback.print_exc()
        walls = [sum(op.seconds for op in o) for o, _ in iterations[1:]]
        elapsed = perf_counter() - start
        if len(walls) >= MIN_TIMED_ITERATIONS \
                and elapsed + _median(walls) > args.seconds:
            return iterations


def _check_repeats(iterations) -> None:
    """Every iteration must reproduce the first one's outputs."""
    reference = {op.name: op.digest for op in iterations[0][0]}
    for ops, _ in iterations[1:]:
        for op in ops:
            if op.error is None and op.digest != reference.get(op.name):
                op.error = "outputs differ from the first iteration"


def _run(args, workload, work: Path) -> tuple[dict, dict, list]:
    from tracer import PER_LAYER
    setup_times, inputs, setups_identical = _setups(args, work)
    workload.prepare(inputs)
    iterations = _measure(args, workload, work / "out")
    _check_repeats(iterations)

    ops = [op for o, _ in iterations for op in o]
    failed = [op for op in ops if op.error is not None]
    for op in failed[:3]:
        print(f"operation {op.name} failed: {op.error}", file=sys.stderr)
    untraced = [o for o, t in iterations[1:] if t is None]
    traced = [(o, t) for o, t in iterations[1:] if t is not None]
    wall_s = _median([sum(op.seconds for op in o) for o in untraced])
    test_auc = workload.quality.get("test_auc")
    if not setups_identical:
        print("set-up outputs differ between repeats", file=sys.stderr)

    if args.trace:
        per_call = [t.layer_metrics() for _, t in traced]
        traced_wall = _median([sum(op.seconds for op in o) for o, _ in traced])
        values = {name: _median([m[name] for m in per_call])
                  for name in per_call[0]}
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
    else:
        values = {
            "setup_s": _median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "test_auc": test_auc or 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}

    detail = {
        "fail_rate": {"value": len(failed) / len(ops), "unit": "ratio"},
        **{f"{stage}_s": {"value": _median([sum(op.seconds for op in o
                                                if op.name == stage)
                                            for o in untraced]),
                          "unit": "s"}
           for stage in workload.stages},
        **workload.detail(wall_s),
        "iterations": {"warm_up": 1, "untraced": len(untraced),
                       "traced": len(traced)},
        "wall_s_samples": [sum(op.seconds for op in o) for o in untraced],
        "setup_s_samples": setup_times,
        "setups_identical": setups_identical,
        "quality": workload.quality,
    }
    if traced:
        detail["traced_outputs_identical"] = not any(
            op.error for o, _ in traced for op in o)
        detail["per_layer_how"] = {name: how for name, _, _, how in PER_LAYER}
    result = {
        "correct": not failed and setups_identical and test_auc is not None,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    spans = [t.span_records() for _, t in traced]
    return result, detail, spans


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mgkd" / "__init__.py").is_file():
        print(f"error: mgkd sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import mgkd
    if Path(mgkd.__file__).resolve().parent != (SRC / "mgkd").resolve():
        print(f"error: imported mgkd from {mgkd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    if args.setup_into:
        workload.setup(Path(args.setup_into))
        return 0

    from envinfo import environment
    tag = f"{args.workload}_seed{args.seed}"
    work = ROOT / ".perfbench_work" / f"{tag}_{os.getpid()}"
    try:
        result, detail, spans = _run(args, workload, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(ROOT, args.seed)
    results = ROOT / ".perfbench_out"
    results.mkdir(exist_ok=True)
    with open(results / f"result_{tag}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh,
                  indent=1)
    if spans:
        with open(results / f"spans_{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print("ENV " + json.dumps(env))
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
