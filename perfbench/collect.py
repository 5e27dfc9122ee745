#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 0-9 --traced-seeds 0-1 \
        --out perfbench/results/baseline.json

Each (workload, seed) is one `run.py` invocation, run one after another.
For every metric the summary holds the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread: the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _run_once(workload: str, seed: int, trace: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-3].removeprefix("ENV "))
    detail = json.loads(lines[-2].removeprefix("DETAIL "))
    return env, detail, json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def _collect(workload, seeds, trace, seconds, env_out):
    runs = []
    for seed in seeds:
        env, detail, result = _run_once(workload, seed, trace, seconds)
        env_out.setdefault("env", env)
        runs.append((detail, result))
        print(f"{workload} seed={seed} trace={trace} "
              f"correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()
                         if trace == 0), flush=True)
    names = list(runs[0][1]["metrics"])
    stage_names = [k for k, v in runs[0][0].items()
                   if isinstance(v, dict) and "unit" in v]
    return {
        "seeds": seeds,
        "all_correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": {name: {"unit": runs[0][1]["metrics"][name]["unit"],
                           **_summary([r["metrics"][name]["value"]
                                       for _, r in runs])}
                    for name in names},
        "detail": {name: {"unit": runs[0][0][name]["unit"],
                          **_summary([d[name]["value"] for d, _ in runs])}
                   for name in stage_names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {"end_to_end": _collect(workload, _seeds(args.seeds), 0,
                                        args.seconds, report)}
        if args.traced_seeds:
            entry["per_layer"] = _collect(workload, _seeds(args.traced_seeds),
                                          1, args.seconds, report)
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"]["metrics"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
