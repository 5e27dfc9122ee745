"""Command-line surface: generate | train | eval | ablate | sweep.

Config files are INI-style with sections [dataset], [teacher], [student]
and [sweep]. Command-line flags override file values, which override the
built-in defaults. Every command writes a manifest (config snapshot,
dataset fingerprint, seeds, artifact paths, timings) and machine-readable
one-record-per-line results next to the human-readable output.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data, modelio, pipeline
from .errors import ConfigError, DataError, TrainingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_DATA = 4
EXIT_TRAINING = 5

SWEEP_PARAMS = ("alpha", "beta", "lambda", "tau")

# Config keys and sweep params name DistillConfig fields, except that the
# Python keyword `lambda` names the field `lam`.
_FIELD_FOR_KEY = {"lambda": "lam"}

DATASET_KEYS = {f.name for f in dataclasses.fields(data.SyntheticConfig)} \
    | {"file", "frac_valid", "frac_test"}
TRAIN_KEYS = {f.name for f in dataclasses.fields(pipeline.DistillConfig)} \
    - {"mode", *_FIELD_FOR_KEY.values()} | set(_FIELD_FOR_KEY)
SWEEP_KEYS = {"param", "grid", "seeds"}


def _field(key: str) -> str:
    return _FIELD_FOR_KEY.get(key, key)


def _parse_config(path: Path) -> configparser.ConfigParser:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # '%' is text, and no section header names the defaults section, so
    # [DEFAULT] is an unknown section like any other.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    allowed = {"dataset": DATASET_KEYS, "teacher": TRAIN_KEYS,
               "student": TRAIN_KEYS, "sweep": SWEEP_KEYS}
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in allowed[section]:
                raise ConfigError(f"unknown config key {key!r} in "
                                  f"[{section}]")
    return parser


def _section(parser: configparser.ConfigParser, name: str):
    return parser[name] if parser.has_section(name) else {}


def _coerce(key: str, value: str, target):
    """Config text `value` for `key`, parsed as the type of `target`."""
    try:
        if isinstance(target, tuple):
            return tuple(int(v) for v in value.split(",") if v.strip())
        return type(target)(value)
    except ValueError:
        raise ConfigError(f"bad value {value!r} for {key}") from None


def _config(cls, parser, section_name: str, **overrides):
    """`cls` built from a config section; overrides that are not None win."""
    defaults = cls()
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {_field(k): _coerce(k, v, getattr(defaults, _field(k)))
              for k, v in _section(parser, section_name).items()
              if _field(k) in names}
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    return cls(**kwargs)


def _split_fractions(parser) -> tuple[float, float]:
    section = _section(parser, "dataset")
    return tuple(_coerce(key, section.get(key, "0.1"), 0.1)
                 for key in ("frac_valid", "frac_test"))


def _write_manifest(out_dir: Path, command: str, config_snapshot: dict,
                    dataset_path: Path, dataset_sha256: str,
                    seeds: list[int], artifacts: list[str], timings: dict,
                    **extra) -> Path:
    """`dataset_sha256` is the digest of the bytes written or loaded;
    `extra` holds further top-level entries."""
    manifest = {
        "command": command,
        "config": config_snapshot,
        "dataset_path": str(dataset_path),
        "dataset_sha256": dataset_sha256,
        "seeds": seeds,
        "artifacts": artifacts,
        "timings": timings,
        "step_dtype": np.dtype(pipeline.STEP_DTYPE).name,
        **pipeline.environment(),
        **extra,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{command}_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _echo_config(cfg) -> None:
    print("CONFIG " + json.dumps(dataclasses.asdict(cfg), sort_keys=True))


def _write_records(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _report_record(report, extra: dict | None = None) -> dict:
    record = dataclasses.asdict(report)
    record["recall_at_10"] = record.pop("recall_at_k")
    return {**record, **(extra or {})}


def _load_split_dataset(parser, dataset_path: Path):
    if not dataset_path.exists():
        raise FileNotFoundError(f"dataset not found: {dataset_path}")
    ds = data.load_delimited(dataset_path)
    frac_valid, frac_test = _split_fractions(parser)
    ds = data.temporal_split(ds, frac_valid, frac_test)
    scaler = data.fit_standardize(ds)
    return data.apply_standardize(ds, scaler)


def _dataset_path(parser, args, out_dir: Path) -> Path:
    if getattr(args, "data", None):
        return Path(args.data)
    section = _section(parser, "dataset")
    if "file" in section:
        return Path(section["file"])
    return out_dir / "dataset.csv"


def cmd_generate(args) -> int:
    parser = _parse_config(Path(args.config))
    cfg = _config(data.SyntheticConfig, parser, "dataset", seed=args.seed)
    out_dir = Path(args.out)
    _echo_config(cfg)
    t0 = time.time()
    ds = data.generate_synthetic(cfg)
    dataset_path = _dataset_path(parser, args, out_dir)
    dataset_path.parent.mkdir(parents=True, exist_ok=True)
    digest = data.save_delimited(ds, dataset_path)
    timings = {"generate_s": time.time() - t0}
    manifest = _write_manifest(
        out_dir, "generate", dataclasses.asdict(cfg), dataset_path, digest,
        [cfg.seed], [str(dataset_path), str(data.sidecar_path(dataset_path))],
        timings)
    rate = float(np.mean(ds.y))
    print(f"wrote {ds.n} rows to {dataset_path} "
          f"(positive rate {rate:.4f})")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    parser = _parse_config(Path(args.config))
    mode = args.mode
    teacher_run = mode == "teacher"
    spec = pipeline.MODE_TABLE[mode]
    cfg = _config(pipeline.DistillConfig, parser,
                  "teacher" if teacher_run else "student", seed=args.seed,
                  mode=mode).normalized()
    out_dir = Path(args.out)
    dataset_path = _dataset_path(parser, args, out_dir)
    ds = _load_split_dataset(parser, dataset_path)
    _echo_config(cfg)

    t0 = time.time()
    teacher = None
    if spec.needs_teacher:
        teacher_path = Path(args.teacher or out_dir / "teacher.mgkd")
        if not teacher_path.exists():
            raise FileNotFoundError(
                f"mode {mode!r} needs a teacher model: {teacher_path}")
        teacher, teacher_feat = modelio.load_model(teacher_path)
        if teacher_feat != pipeline.MODE_TABLE["teacher"].features:
            raise DataError(f"{teacher_path} is not an in-service model")
        if teacher.input_dim != ds.d_in:
            raise DataError(
                f"teacher {teacher_path} reads {teacher.input_dim} "
                f"in-service columns, {dataset_path} has {ds.d_in}")
    model, trace = pipeline.train_teacher(ds, cfg) if teacher_run \
        else pipeline.train_student(ds, teacher, cfg)
    train_s = time.time() - t0
    model_path = out_dir / ("teacher.mgkd" if teacher_run
                            else f"student_{mode}.mgkd")

    trace_path = out_dir / f"trace_{mode}.jsonl"
    records = [{"record": "epoch", "mode": mode, "seed": cfg.seed, **row}
               for row in trace.epochs]
    records.append({"record": "summary", "mode": mode, "seed": cfg.seed,
                    "best_epoch": trace.best_epoch,
                    "stop_reason": trace.stop_reason,
                    "epochs_run": len(trace.epochs)})
    _write_records(trace_path, records)  # the first write: makes out_dir
    modelio.save_model(model, model_path, spec.features)

    manifest = _write_manifest(out_dir, f"train_{mode}",
                               dataclasses.asdict(cfg), dataset_path,
                               ds.sha256, [cfg.seed],
                               [str(model_path), str(trace_path)],
                               {"train_s": train_s})
    print(f"mode={mode} best_epoch={trace.best_epoch} "
          f"stop={trace.stop_reason} epochs={len(trace.epochs)}")
    print(f"model: {model_path}")
    print(f"trace: {trace_path}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_eval(args) -> int:
    parser = _parse_config(Path(args.config))
    model_path = Path(args.model)
    if not model_path.exists():
        raise FileNotFoundError(f"model not found: {model_path}")
    out_dir = Path(args.out)
    dataset_path = _dataset_path(parser, args, out_dir)
    ds = _load_split_dataset(parser, dataset_path)
    model, feature_mode = modelio.load_model(model_path)

    # A model file records its feature block, not its student mode. A
    # one-class split is reported ahead of a width mismatch.
    ds.labels(args.split)
    rows, width = ds.features(feature_mode, args.split).shape
    if width != model.input_dim:
        raise DataError(f"{dataset_path}: block {feature_mode!r} does not "
                        f"fit {model_path}: input has {width} columns, "
                        f"model expects {model.input_dim}")
    report = pipeline.evaluate_split(model, ds, args.split, feature_mode)
    record = _report_record(report, {
        "record": "eval", "features": feature_mode,
        "model_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest()})
    results_path = out_dir / "eval_results.jsonl"
    _write_records(results_path, [record])
    fractions = dict(zip(("frac_valid", "frac_test"),
                         _split_fractions(parser)))
    _write_manifest(out_dir, "eval", {"split": args.split,
                                      "model": str(model_path), **fractions},
                    dataset_path, ds.sha256, [], [str(results_path)], {},
                    tile_workers=pipeline.worker_count(
                        len(pipeline._tiles(rows))))
    print(f"{'split':>10} {'AUC':>8} {'KS':>8} {'Recall@10':>10}")
    print(f"{report.split:>10} {report.auc:8.4f} {report.ks:8.4f} "
          f"{report.recall_at_k:10.4f}")
    print(f"results: {results_path}")
    return EXIT_OK


def _parse_list(text: str, cast, what: str) -> list:
    """Comma-separated `text` as a non-empty list of distinct `cast`
    values."""
    try:
        values = [cast(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"bad {what} {text!r}: need one or more "
                          "comma-separated numbers")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"bad {what} {text!r}: {value} is repeated")
    return values


def cmd_ablate(args) -> int:
    parser = _parse_config(Path(args.config))
    cfg = _config(pipeline.DistillConfig, parser, "student")
    teacher_cfg = _config(pipeline.DistillConfig, parser, "teacher",
                          mode="teacher").normalized()
    seeds = _parse_list(args.seeds or "0,1,2,3,4", int, "seed list")
    out_dir = Path(args.out)
    dataset_path = _dataset_path(parser, args, out_dir)
    ds = _load_split_dataset(parser, dataset_path)
    _echo_config(cfg)

    t0 = time.time()
    modes = pipeline.ABLATION_MODES
    per_seed, models = pipeline.run_grid(ds, cfg, seeds,
                                         [(m, {"mode": m}) for m in modes],
                                         out_dir, args.jobs, teacher_cfg)
    reports = [report for seed_reports in per_seed for report in seed_reports]
    elapsed = time.time() - t0

    agg = pipeline.aggregate_reports(reports)
    records = [_report_record(r, {"record": "ablation_run"})
               for r in reports]
    for mode in modes:
        records.append({"record": "ablation_mode", "mode": mode,
                        **agg[mode]})
    ordering_ok = (agg["full"]["auc_mean"]
                   >= agg["pretrain_only"]["auc_mean"]
                   >= agg["baseline_pre"]["auc_mean"])
    records.append({"record": "ordering_check",
                    "check": "full >= pretrain_only >= baseline_pre",
                    "passed": bool(ordering_ok)})
    results_path = out_dir / "ablation_results.jsonl"
    _write_records(results_path, records)
    _write_manifest(out_dir, "ablate", dataclasses.asdict(cfg), dataset_path,
                    ds.sha256, seeds, [str(results_path)],
                    {"ablate_s": elapsed},
                    teacher_config=dataclasses.asdict(teacher_cfg),
                    models=models, grid_workers=pipeline.worker_count(
                        len(modes), min(args.jobs, len(seeds))))

    print(f"{'mode':>14} {'AUC':>8} {'±':>7} {'KS':>8} {'Recall@10':>10}")
    for mode in sorted(modes, key=lambda m: -agg[m]["auc_mean"]):
        row = agg[mode]
        print(f"{mode:>14} {row['auc_mean']:8.4f} {row['auc_std']:7.4f} "
              f"{row['ks_mean']:8.4f} {row['recall_mean']:10.4f}")
    print("ordering check (full >= pretrain_only >= baseline_pre): "
          + ("PASS" if ordering_ok else "FAIL"))
    print(f"results: {results_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    parser = _parse_config(Path(args.config))
    section = _section(parser, "sweep")
    param = args.param or section.get("param")
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, "
                          f"got {param!r}")
    grid = _parse_list(args.grid or section.get("grid", ""), float,
                       "sweep grid (--grid or [sweep] grid)")
    cfg = _config(pipeline.DistillConfig, parser, "student", mode="full")
    teacher_cfg = _config(pipeline.DistillConfig, parser, "teacher",
                          mode="teacher").normalized()
    points = [(f"{param}={value}", {_field(param): value}) for value in grid]
    for _, overrides in points:
        replace(cfg, **overrides)  # validates the grid value

    seeds = _parse_list(args.seeds or section.get("seeds", "0,1,2,3,4"),
                        int, "seed list")
    out_dir = Path(args.out)
    dataset_path = _dataset_path(parser, args, out_dir)
    ds = _load_split_dataset(parser, dataset_path)
    _echo_config(cfg)

    t0 = time.time()
    per_seed, models = pipeline.run_grid(ds, cfg, seeds, points, out_dir,
                                         args.jobs, teacher_cfg)
    # Value-major order: every seed of the first grid value, then the next.
    records = [_report_record(report, {"record": "sweep_point",
                                       "param": param, "value": value})
               for value, reports in zip(grid, zip(*per_seed))
               for report in reports]
    elapsed = time.time() - t0

    results_path = out_dir / f"sweep_{param}_results.jsonl"
    _write_records(results_path, records)
    _write_manifest(out_dir, "sweep", dataclasses.asdict(cfg), dataset_path,
                    ds.sha256, seeds, [str(results_path)],
                    {"sweep_s": elapsed},
                    teacher_config=dataclasses.asdict(teacher_cfg),
                    models=models, grid_workers=pipeline.worker_count(
                        len(points), min(args.jobs, len(seeds))))

    print(f"{param:>8} {'seed':>5} {'AUC':>8} {'KS':>8} {'Recall@10':>10}")
    for record in records:
        print(f"{record['value']:8.3f} {record['seed']:5d} "
              f"{record['auc']:8.4f} {record['ks']:8.4f} "
              f"{record['recall_at_10']:10.4f}")
    print(f"results: {results_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgkd",
        description="Two-phase teacher-student distillation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--data", default=None)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train teacher or student")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", required=True, choices=pipeline.MODES)
    p.add_argument("--teacher", default=None,
                   help="path to the teacher model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a split with a trained model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "valid", "test"))
    p.set_defaults(func=cmd_eval)

    # ablate and sweep take --seeds and no --seed. Without abbreviations
    # argparse rejects --seed instead of reading it as --seeds.
    p = sub.add_parser("ablate", help="run the six-mode ablation grid",
                       allow_abbrev=False)
    common(p)
    p.add_argument("--seeds", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep alpha/beta/lambda/tau",
                       allow_abbrev=False)
    common(p)
    p.add_argument("--param", choices=SWEEP_PARAMS, default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"missing or unusable path: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except MemoryError as exc:
        print(f"out of memory in {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
