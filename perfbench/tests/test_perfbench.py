"""Tests of the benchmark itself: run them with `python3 -m pytest perfbench`.

They use the tiny scale, so they check wiring and correctness, not timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from mgkd import (cli, data, losses, metrics, modelio,  # noqa: E402
                  numcore, pipeline)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = {"data": data, "numcore": numcore, "losses": losses,
           "metrics": metrics, "modelio": modelio, "pipeline": pipeline,
           "cli": cli}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAGE_DETAIL = {"cli_chain": ("generate_s", "train_teacher_s",
                              "train_student_s", "eval_s"),
                "distill_grid": ("sweep_s", "ablate_s"),
                "batch_score": ("score_rows_per_s",)}


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in tracer.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}

    detail = json.loads(lines[-2].removeprefix("DETAIL "))
    assert detail["fail_rate"] == {"value": 0.0, "unit": "ratio"}
    for name in STAGE_DETAIL[workload]:
        assert detail[name]["value"] > 0 and detail[name]["unit"]
    env = json.loads(lines[-3].removeprefix("ENV "))
    assert env["seed"] == 3 and env["numpy"] == np.__version__


def test_tracer_restores_every_wrapped_attribute():
    before = {name: dict(vars(m)) for name, m in MODULES.items()}
    with pytest.raises(RuntimeError):
        with tracer.Tracer(MODULES):
            assert numcore.forward is not before["numcore"]["forward"]
            assert cli.cmd_train is not before["cli"]["cmd_train"]
            assert cli.main is before["cli"]["main"]
            raise RuntimeError("leave the block early")
    for name, module in MODULES.items():
        after = vars(module)
        assert set(after) == set(before[name])
        for attr, obj in before[name].items():
            assert after[attr] is obj, f"{name}.{attr} not restored"


def test_useful_flop_count_skips_the_first_input_gradient():
    rng = np.random.default_rng(0)
    model = numcore.init_mlp(5, [7, 3], 0.0, rng)
    x = rng.standard_normal((11, 5))
    with tracer.Tracer(MODULES) as tr:
        cache = numcore.forward(model, x, "train", rng)
        numcore.backward(model, cache, np.ones(11), np.zeros((11, 3)))
    sizes = [5 * 7, 7 * 3, 3 * 1]
    expected = 2 * 11 * sum(sizes) + 2 * 11 * (sum(sizes) + sum(sizes[1:]))
    assert tr.counts["numcore.useful_gflop"] == pytest.approx(expected / 1e9)
    assert [s[0] for s in tr.spans if s[3] is None] == \
        ["numcore.forward_train", "numcore.backward"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=5, scale="tiny")
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    workload.setup(inputs)
    workload.prepare(inputs)
    digests = []
    for traced in (False, True):
        out.mkdir()
        if traced:
            with tracer.Tracer(MODULES) as tr:
                ops = workload.iterate(out)
            assert tr.spans
        else:
            ops = workload.iterate(out)
        assert [op.error for op in ops] == [None] * len(ops)
        digests.append([(op.name, op.digest) for op in ops])
        files = {p.name: p.read_bytes() for p in out.iterdir()
                 if not p.name.endswith("_manifest.json")}
        digests[-1].append(files)
        for p in out.iterdir():
            p.unlink()
        out.rmdir()
    assert digests[0] == digests[1]
