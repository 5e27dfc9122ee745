import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgkd import cli, data, errors, modelio, numcore, pipeline

CONFIG = """\
[dataset]
n = 2500
d_pre = 4
d_in = 4
positive_rate = 0.12
snr_pre = 0.08
snr_in_base = 0.6
window_days = 30
window_gain = 0.5
seed = 7
frac_valid = 0.15
frac_test = 0.15

[teacher]
hidden_dims = 12,12
dropout = 0.1
lr = 0.005
batch_size = 1024
max_epochs = 4
patience = 2

[student]
hidden_dims = 12,12
dropout = 0.1
lr = 0.005
batch_size = 1024
max_epochs = 4
patience = 2
alpha = 0.2
beta = 0.25
lambda = 0.1
tau = 2.5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    config = out / "run.ini"
    config.write_text(CONFIG)
    rc = cli.main(["generate", "--config", str(config), "--out", str(out)])
    assert rc == 0
    rc = cli.main(["train", "--config", str(config), "--out", str(out),
                   "--mode", "teacher"])
    assert rc == 0
    return out, config


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class TestGenerate:
    def test_dataset_written(self, workdir):
        out, _ = workdir
        ds = data.load_delimited(out / "dataset.csv")
        assert ds.n == 2500
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["dataset_sha256"]
        assert manifest["config"]["n"] == 2500

    def test_reproducible_hash(self, workdir, tmp_path):
        out, config = workdir
        rc = cli.main(["generate", "--config", str(config),
                       "--out", str(tmp_path)])
        assert rc == 0
        a = json.loads((out / "generate_manifest.json").read_text())
        b = json.loads((tmp_path / "generate_manifest.json").read_text())
        assert a["dataset_sha256"] == b["dataset_sha256"]

    def test_malformed_key_exit_2(self, workdir, tmp_path, capsys):
        _, _ = workdir
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\nn = 100\nbogus_knob = 3\n")
        rc = cli.main(["generate", "--config", str(bad),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_field_name_lam_is_not_a_key(self, workdir, tmp_path):
        # The config key is `lambda`; the field name `lam` is not a key.
        _, config = workdir
        bad = tmp_path / "lam.ini"
        bad.write_text(config.read_text().replace("lambda = 0.1",
                                                  "lam = 0.1"))
        rc = cli.main(["generate", "--config", str(bad),
                       "--out", str(tmp_path)])
        assert rc == 2


class TestTrain:
    def test_teacher_and_student(self, workdir):
        out, config = workdir
        assert (out / "teacher.mgkd").exists()
        rc = cli.main(["train", "--config", str(config), "--out", str(out),
                       "--mode", "full"])
        assert rc == 0
        assert (out / "student_full.mgkd").exists()
        trace = read_jsonl(out / "trace_full.jsonl")
        epochs = [r for r in trace if r["record"] == "epoch"]
        assert epochs[0]["self"] == 0.0            # lambda gated in epoch 1
        assert epochs[1]["self"] > 0.0

    def test_missing_teacher_exit_3(self, workdir, tmp_path):
        out, config = workdir
        rc = cli.main(["train", "--config", str(config), "--out", str(out),
                       "--mode", "full",
                       "--teacher", str(tmp_path / "nope.mgkd")])
        assert rc == 3

    def test_teacher_width_mismatch_exit_4(self, workdir, tmp_path, capsys):
        out, _ = workdir
        wide = tmp_path / "wide.ini"
        wide.write_text(CONFIG.replace("d_in = 4", "d_in = 6"))
        assert cli.main(["generate", "--config", str(wide),
                         "--out", str(tmp_path)]) == 0
        teacher = out / "teacher.mgkd"
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(wide), "--mode", "full",
                       "--out", str(tmp_path / "out"),
                       "--data", str(tmp_path / "dataset.csv"),
                       "--teacher", str(teacher)])
        assert rc == 4
        err = capsys.readouterr().err
        assert str(teacher) in err and str(tmp_path / "dataset.csv") in err
        assert "reads 4 in-service columns" in err and "has 6" in err
        assert not (tmp_path / "out").exists()

    def test_full_zero_coeffs_matches_baseline(self, workdir, tmp_path):
        out, config = workdir
        zero_cfg = tmp_path / "zero.ini"
        zero_cfg.write_text(CONFIG.replace("alpha = 0.2", "alpha = 0.0")
                            .replace("beta = 0.25", "beta = 0.0")
                            .replace("lambda = 0.1", "lambda = 0.0"))
        for mode in ("full", "baseline_pre"):
            rc = cli.main(["train", "--config", str(zero_cfg),
                           "--out", str(tmp_path), "--mode", mode,
                           "--teacher", str(out / "teacher.mgkd"),
                           "--data", str(out / "dataset.csv")])
            assert rc == 0
        a, _ = modelio.load_model(tmp_path / "student_full.mgkd")
        b, _ = modelio.load_model(tmp_path / "student_baseline_pre.mgkd")
        for (_, x), (_, y) in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)


class TestEval:
    def test_eval_report_round_trip(self, workdir):
        out, config = workdir
        rc = cli.main(["eval", "--model", str(out / "teacher.mgkd"),
                       "--data", str(out / "dataset.csv"),
                       "--config", str(config),
                       "--split", "test", "--out", str(out)])
        assert rc == 0
        record = read_jsonl(out / "eval_results.jsonl")[0]
        assert record["split"] == "test"
        # The file records the feature block, not the student mode.
        assert record["features"] == "in"
        assert record["mode"] == ""
        assert 0.0 <= record["auc"] <= 1.0
        assert 0.0 <= record["ks"] <= 1.0
        # The record names the model by its bytes; the manifest keeps the
        # path as given.
        assert record["model_sha256"] == hashlib.sha256(
            (out / "teacher.mgkd").read_bytes()).hexdigest()
        assert "model" not in record
        manifest = json.loads((out / "eval_manifest.json").read_text())
        assert manifest["config"]["model"] == str(out / "teacher.mgkd")

    def test_eval_deterministic(self, workdir, tmp_path):
        # The same model bytes at two paths give the same results file.
        out, config = workdir
        results = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            model = d / "copy.mgkd"
            shutil.copyfile(out / "teacher.mgkd", model)
            rc = cli.main(["eval", "--model", str(model),
                           "--data", str(out / "dataset.csv"),
                           "--config", str(config),
                           "--split", "valid", "--out", str(d)])
            assert rc == 0
            results.append((d / "eval_results.jsonl").read_text())
        assert results[0] == results[1]

    def test_width_mismatch_exit_4(self, workdir, tmp_path, capsys):
        out, config = workdir
        # A model expecting a different input width than the dataset.
        model = numcore.init_mlp(9, [4], 0.0, np.random.default_rng(0))
        bad = tmp_path / "bad.mgkd"
        modelio.save_model(model, bad, "pre")
        rc = cli.main(["eval", "--model", str(bad),
                       "--data", str(out / "dataset.csv"),
                       "--config", str(config),
                       "--split", "test", "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert f"{out / 'dataset.csv'}: block 'pre' does not fit {bad}" \
            in err
        assert "input has 4 columns, model expects 9" in err

    def test_one_class_split_reported_before_width(self, workdir, tmp_path,
                                                   capsys):
        _, config = workdir
        model = numcore.init_mlp(9, [4], 0.0, np.random.default_rng(0))
        bad = tmp_path / "bad.mgkd"
        modelio.save_model(model, bad, "pre")
        dataset = _one_class_csv(tmp_path / "one_class.csv", "test")
        assert cli.main(["eval", "--model", str(bad), "--data", str(dataset),
                         "--config", str(config), "--split", "test",
                         "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err == "data error: the test split has 0 positive and 15 " \
            "negative rows; it needs both\n"

    def test_manifest_records_split_fractions(self, workdir, tmp_path):
        # Without --config, eval splits with the default fractions, and the
        # manifest says so.
        out, config = workdir
        for extra, frac in ((["--config", str(config)], 0.15), ([], 0.1)):
            dest = tmp_path / str(frac)
            rc = cli.main(["eval", "--model", str(out / "teacher.mgkd"),
                           "--data", str(out / "dataset.csv"), *extra,
                           "--out", str(dest)])
            assert rc == 0
            manifest = json.loads((dest / "eval_manifest.json").read_text())
            assert manifest["config"]["frac_valid"] == frac
            assert manifest["config"]["frac_test"] == frac

    def test_missing_model_exit_3(self, workdir, tmp_path):
        out, _ = workdir
        rc = cli.main(["eval", "--model", str(tmp_path / "none.mgkd"),
                       "--data", str(out / "dataset.csv"),
                       "--out", str(tmp_path)])
        assert rc == 3


class TestSweep:
    def test_row_count(self, workdir, tmp_path):
        out, config = workdir
        rc = cli.main(["sweep", "--config", str(config), "--out",
                       str(tmp_path), "--param", "alpha",
                       "--grid", "0.0,0.2", "--seeds", "0,1",
                       "--data", str(out / "dataset.csv")])
        assert rc == 0
        records = read_jsonl(tmp_path / "sweep_alpha_results.jsonl")
        assert len(records) == 4
        assert {r["value"] for r in records} == {0.0, 0.2}

    def test_one_teacher_per_seed(self, workdir, tmp_path, monkeypatch):
        out, config = workdir
        calls = []
        real = pipeline.train_teacher

        def counting(ds, cfg):
            calls.append(cfg.seed)
            return real(ds, cfg)

        monkeypatch.setattr(pipeline, "train_teacher", counting)
        rc = cli.main(["sweep", "--config", str(config), "--out",
                       str(tmp_path), "--param", "alpha",
                       "--grid", "0.0,0.2,0.5", "--seeds", "0,1",
                       "--data", str(out / "dataset.csv")])
        assert rc == 0
        assert calls == [0, 1]
        records = read_jsonl(tmp_path / "sweep_alpha_results.jsonl")
        # Value-major order: both seeds of a grid value, then the next.
        assert [(r["value"], r["seed"]) for r in records] == \
            [(v, s) for v in (0.0, 0.2, 0.5) for s in (0, 1)]

    def test_invalid_grid_exit_2(self, workdir, tmp_path):
        out, config = workdir
        rc = cli.main(["sweep", "--config", str(config), "--out",
                       str(tmp_path), "--param", "alpha",
                       "--grid", "0.0,1.5", "--seeds", "0",
                       "--data", str(out / "dataset.csv")])
        assert rc == 2


class TestAblate:
    def test_table_and_ordering_line(self, workdir, tmp_path, capsys):
        out, config = workdir
        rc = cli.main(["ablate", "--config", str(config), "--out",
                       str(tmp_path), "--seeds", "0",
                       "--data", str(out / "dataset.csv")])
        assert rc == 0
        records = read_jsonl(tmp_path / "ablation_results.jsonl")
        mode_rows = [r for r in records if r["record"] == "ablation_mode"]
        assert len(mode_rows) == 6
        check = [r for r in records if r["record"] == "ordering_check"]
        assert len(check) == 1
        assert "ordering check" in capsys.readouterr().out


GRID_COMMANDS = [["sweep", "--param", "alpha", "--grid", "0.2"], ["ablate"]]


def _grid_config(tmp_path) -> Path:
    # [teacher] and [student] differ in everything but the widths.
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.replace("n = 2500", "n = 1200").replace(
        "lr = 0.005\nbatch_size = 1024\nmax_epochs = 4",
        "lr = 0.02\nbatch_size = 512\nmax_epochs = 3", 1))
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    return config


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_grid_teacher_reads_teacher_section(tmp_path, monkeypatch, command):
    config = _grid_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path),
                     "--mode", "teacher", "--seed", "0"]) == 0
    saved, _ = modelio.load_model(tmp_path / "teacher.mgkd")

    trained = []
    train_teacher = pipeline.train_teacher

    def capture(ds, cfg):
        model, trace = train_teacher(ds, cfg)
        trained.append(model)
        return model, trace

    monkeypatch.setattr(pipeline, "train_teacher", capture)
    assert cli.main([*command, "--config", str(config), "--seeds", "0",
                     "--data", str(tmp_path / "dataset.csv"),
                     "--out", str(tmp_path / "grid")]) == 0
    assert len(trained) == 1
    assert trained[0].flat.tobytes() == saved.flat.tobytes()


TEACHER_TERMS = {"mode": "teacher", "alpha": 0.0, "beta": 0.0, "lam": 0.0}


def _terms(config: dict) -> dict:
    return {key: config[key] for key in TEACHER_TERMS}


def test_teacher_manifest_records_the_trained_config(workdir):
    out, _ = workdir
    manifest = json.loads((out / "train_teacher_manifest.json").read_text())
    assert _terms(manifest["config"]) == TEACHER_TERMS


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_grid_manifest_records_teacher_config(tmp_path, command):
    config = _grid_config(tmp_path)
    assert cli.main([*command, "--config", str(config), "--seeds", "0",
                     "--data", str(tmp_path / "dataset.csv"),
                     "--out", str(tmp_path / "grid")]) == 0
    manifest = json.loads(
        (tmp_path / "grid" / f"{command[0]}_manifest.json").read_text())
    teacher, student = manifest["teacher_config"], manifest["config"]
    assert _terms(teacher) == TEACHER_TERMS
    assert (teacher["lr"], teacher["max_epochs"]) == (0.02, 3)
    assert (student["lr"], student["max_epochs"]) == (0.005, 4)


@pytest.mark.parametrize("command", [
    ["sweep", "--param", "lambda", "--grid", "0.0,0.3"],
    ["ablate"],
])
def test_jobs_do_not_change_results(workdir, tmp_path, command):
    out, config = workdir
    results = []
    for jobs in ("1", "2"):
        # Each side has its own --out. In a shared one the second run would
        # load the first run's models from the store and train none.
        dest = tmp_path / f"jobs{jobs}"
        rc = cli.main([*command, "--config", str(config), "--out", str(dest),
                       "--seeds", "0,1", "--data", str(out / "dataset.csv"),
                       "--jobs", jobs])
        assert rc == 0
        assert {m["status"] for m in _models(dest, command[0])} \
            == {"trained"}
        results.append(sorted((p.name, p.read_bytes())
                              for pattern in ("*_results.jsonl", "model_*")
                              for p in dest.glob(pattern)))
    assert results[0] and results[0] == results[1]


def _models(out: Path, command: str) -> list[dict]:
    return json.loads((out / f"{command}_manifest.json").read_text())["models"]


def _statuses(out: Path, command: str) -> dict:
    """Store status by label, for a grid of one seed."""
    return {m["label"]: m["status"] for m in _models(out, command)}


ABLATION_LABELS = ("teacher", *pipeline.ABLATION_MODES)


def test_ablate_reuses_the_sweep_models(tmp_path):
    config = _grid_config(tmp_path)
    common = ["--config", str(config), "--seeds", "0",
              "--data", str(tmp_path / "dataset.csv")]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert cli.main(["sweep", *common, "--out", str(shared),
                     "--param", "alpha", "--grid", "0.0,0.2"]) == 0
    assert cli.main(["ablate", *common, "--out", str(shared)]) == 0
    assert cli.main(["ablate", *common, "--out", str(fresh)]) == 0
    # alpha = 0 is no_fine, and the [student] alpha, 0.2, is full.
    reused = {"teacher", "no_fine", "full"}
    assert _statuses(shared, "ablate") == {
        label: "reused" if label in reused else "trained"
        for label in ABLATION_LABELS}
    assert set(_statuses(fresh, "ablate").values()) == {"trained"}
    assert (shared / "ablation_results.jsonl").read_bytes() \
        == (fresh / "ablation_results.jsonl").read_bytes()
    assert len(list(shared.glob("model_*.mgkd"))) == 7


def test_store_retrains_what_a_change_reaches(tmp_path, monkeypatch):
    config = _grid_config(tmp_path)
    dataset = tmp_path / "dataset.csv"
    out = tmp_path / "out"

    def ablate(text: str, data: Path = dataset) -> dict:
        variant = tmp_path / "variant.ini"
        variant.write_text(text)
        assert cli.main(["ablate", "--config", str(variant), "--seeds", "0",
                         "--data", str(data), "--out", str(out)]) == 0
        return _statuses(out, "ablate")

    text = config.read_text()
    assert set(ablate(text).values()) == {"trained"}
    assert set(ablate(text).values()) == {"reused"}
    # [teacher] lr is 0.02, [student] lr 0.005.
    assert ablate(text.replace("lr = 0.02", "lr = 0.03")) == {
        label: "reused" if label in ("baseline_pre", "oracle") else "trained"
        for label in ABLATION_LABELS}
    assert set(ablate(text.replace("frac_test = 0.15", "frac_test = 0.2"))
               .values()) == {"trained"}
    header, row, *rest = dataset.read_text().splitlines(keepends=True)
    cells = row.split(",")
    cells[3] = "0.5" if cells[3] != "0.5" else "0.25"  # pre_0
    edited = tmp_path / "edited.csv"
    edited.write_text("".join([header, ",".join(cells), *rest]))
    assert set(ablate(text, edited).values()) == {"trained"}
    monkeypatch.setattr(pipeline.np, "__version__", "0.0.0")
    assert set(ablate(text).values()) == {"trained"}
    env = pipeline.environment()
    monkeypatch.setattr(pipeline, "environment", lambda: {
        **env, "blas": {**env["blas"], "version": "0.0.0"}})
    assert set(ablate(text).values()) == {"trained"}


@pytest.mark.parametrize("setting, retrained", [
    pytest.param("tau = 3.0", {"no_fine", "no_coarse", "full"}, id="tau"),
    pytest.param("tau = 2.5\nfeat_metric = cosine", {"no_fine", "full"},
                 id="feat_metric"),
])
def test_store_reuses_what_a_change_does_not_reach(tmp_path, setting,
                                                   retrained):
    # The soft and self terms read tau, and only the feat term reads
    # feat_metric: a model with neither term is reused, bits and all.
    config = _grid_config(tmp_path)
    out = tmp_path / "out"
    ablate = ["ablate", "--config", str(config), "--seeds", "0",
              "--data", str(tmp_path / "dataset.csv"), "--out", str(out)]
    assert cli.main(ablate) == 0
    config.write_text(config.read_text().replace("tau = 2.5", setting))
    assert cli.main(ablate) == 0
    assert _statuses(out, "ablate") == {
        label: "trained" if label in retrained else "reused"
        for label in ABLATION_LABELS}
    assert len(list(out.glob("model_*.mgkd"))) == 7 + len(retrained)


def test_stored_models_eval_with_their_block(tmp_path):
    config = _grid_config(tmp_path)
    dataset, out = tmp_path / "dataset.csv", tmp_path / "out"
    assert cli.main(["ablate", "--config", str(config), "--seeds", "0",
                     "--data", str(dataset), "--out", str(out)]) == 0
    paths = {m["label"]: m["path"] for m in _models(out, "ablate")}
    runs = {r["mode"]: r for r in read_jsonl(out / "ablation_results.jsonl")
            if r["record"] == "ablation_run"}
    for label, block in (("teacher", "in"), ("oracle", "both")):
        dest = tmp_path / label
        assert cli.main(["eval", "--model", paths[label], "--config",
                         str(config), "--data", str(dataset),
                         "--out", str(dest)]) == 0
        (record,) = read_jsonl(dest / "eval_results.jsonl")
        assert record["features"] == block
    assert record["auc"] == runs["oracle"]["auc"]


@pytest.mark.parametrize("damage", ["truncated", "other_block"])
def test_bad_store_file_exit_4(tmp_path, capsys, damage):
    config = _grid_config(tmp_path)
    sweep = ["sweep", "--config", str(config), "--seeds", "0",
             "--data", str(tmp_path / "dataset.csv"), "--out",
             str(tmp_path / "out"), "--param", "alpha", "--grid", "0.2"]
    assert cli.main(sweep) == 0
    paths = {m["label"]: Path(m["path"])
             for m in _models(tmp_path / "out", "sweep")}
    teacher = paths["teacher"]
    if damage == "truncated":
        teacher.write_bytes(teacher.read_bytes()[:-8])
    else:  # a pre-service student where the teacher should be
        teacher.write_bytes(paths["alpha=0.2"].read_bytes())
    capsys.readouterr()
    assert cli.main(sweep) == 4
    assert str(teacher) in capsys.readouterr().err


EXIT_FOR_ERROR = {
    errors.ConfigError: 2, errors.DataError: 4, errors.TrainingError: 5,
}


def _subclasses(cls) -> set:
    return {sub for child in cls.__subclasses__()
            for sub in (child, *_subclasses(child))}


def test_every_package_error_has_an_exit_code():
    assert set(EXIT_FOR_ERROR) == _subclasses(errors.MgkdError)


@pytest.mark.parametrize("error", list(EXIT_FOR_ERROR),
                         ids=lambda e: e.__name__)
def test_package_error_exit_code(monkeypatch, tmp_path, capsys, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_generate", fail)
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    assert cli.main(["generate", "--config", str(config)]) \
        == EXIT_FOR_ERROR[error]
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["pre_1", "in_2"])
def test_non_finite_cell_exit_4(workdir, tmp_path, capsys, column):
    out, config = workdir
    lines = (out / "dataset.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index(column)] = "nan"
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path),
                   "--mode", "teacher", "--data", str(bad)])
    assert rc == 4
    assert f"bad.csv:6: non-finite value in column {column}" \
        in capsys.readouterr().err


def test_int64_overflow_cell_exit_4(workdir, tmp_path, capsys):
    out, config = workdir
    lines = (out / "dataset.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "99999999999999999999"
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path),
                   "--mode", "teacher", "--data", str(bad)])
    assert rc == 4
    assert "bad.csv:6: bad cell (integer 99999999999999999999 outside " \
        "the int64 range)" in capsys.readouterr().err


def test_no_pre_service_column_exit_4(workdir, tmp_path, capsys):
    _, config = workdir
    bad = tmp_path / "in_only.csv"
    bad.write_text("user_id,ts,y,in_0\n0,5,1,0.25\n")
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path),
                   "--mode", "teacher", "--data", str(bad)])
    assert rc == 4
    assert f"{bad}: header has no pre_* column" in capsys.readouterr().err


def test_train_split_without_positives_exit_4(tmp_path, capsys):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(CONFIG)
    parser["dataset"].update(n="600", positive_rate="0.001", seed="0")
    config = tmp_path / "run.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    common = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["generate", *common]) == 0
    assert cli.main(["train", *common, "--mode", "teacher"]) == 4
    assert "data error: the train split has 0 positive and 420 negative " \
        "rows" in capsys.readouterr().err


def _one_class_csv(path: Path, split: str) -> Path:
    """100 rows in time order. CONFIG's fractions make rows 70-84 the valid
    split and 85-99 the test split; `split` gets only negatives, and every
    other split both classes."""
    n = 100
    y = (np.arange(n) % 4 == 0).astype(np.int64)
    start = {"valid": 70, "test": 85}[split]
    y[start:start + 15] = 0
    rng = np.random.default_rng(0)
    data.save_delimited(data.TwoPhaseDataset(
        rng.standard_normal((n, 4)), rng.standard_normal((n, 4)), y,
        np.arange(n), np.full(n, "", dtype="<U5")), path)
    return path


@pytest.mark.parametrize("argv, split", [
    (["train", "--mode", "teacher"], "valid"),
    (["train", "--mode", "full", "--teacher", "TEACHER"], "valid"),
    (["eval", "--model", "TEACHER"], "test"),
    (["ablate", "--seeds", "0"], "test"),
    (["ablate", "--seeds", "0"], "valid"),
    (["sweep", "--param", "alpha", "--grid", "0.2", "--seeds", "0"], "test"),
], ids=["train_teacher", "train_full", "eval", "ablate_test", "ablate_valid",
        "sweep"])
def test_one_class_split_exit_4_before_training(workdir, tmp_path, capsys,
                                                monkeypatch, argv, split):
    out, config = workdir
    monkeypatch.setattr(numcore, "backward",
                        lambda *a, **k: pytest.fail("a training step ran"))
    argv = [str(out / "teacher.mgkd") if arg == "TEACHER" else arg
            for arg in argv]
    dataset = _one_class_csv(tmp_path / "one_class.csv", split)
    assert cli.main([*argv, "--config", str(config), "--data", str(dataset),
                     "--out", str(tmp_path / "out")]) == 4
    assert f"data error: the {split} split has 0 positive and 15 negative " \
        "rows; it needs both" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_commands_after_generate_read_the_sidecar(workdir, tmp_path,
                                                  monkeypatch):
    _, config = workdir
    common = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["generate", *common]) == 0
    dataset = tmp_path / "dataset.csv"
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: pytest.fail(
        "the CSV was parsed although its sidecar is current"))
    assert cli.main(["train", *common, "--mode", "teacher"]) == 0
    assert cli.main(["train", *common, "--mode", "full"]) == 0
    assert cli.main(["eval", *common, "--data", str(dataset),
                     "--model", str(tmp_path / "student_full.mgkd")]) == 0
    digest = hashlib.sha256(dataset.read_bytes()).hexdigest()
    for command in ("generate", "train_teacher", "train_full", "eval"):
        manifest = json.loads(
            (tmp_path / f"{command}_manifest.json").read_text())
        assert manifest["dataset_sha256"] == digest
    generated = json.loads((tmp_path / "generate_manifest.json").read_text())
    assert generated["artifacts"] == [str(dataset),
                                      str(data.sidecar_path(dataset))]


@pytest.mark.parametrize("command", [["train", "--mode", "teacher"],
                                     ["ablate"]])
def test_missing_config_exit_2(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_bad_config_value_exit_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.replace("n = 2500", "n = lots"))
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
    assert "'lots'" in capsys.readouterr().err


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = numcore.init_mlp(5, [7, 3], 0.25, np.random.default_rng(4))
        path = tmp_path / "m.mgkd"
        modelio.save_model(model, path, "both")
        back, feature_mode = modelio.load_model(path)
        assert feature_mode == "both"
        assert back.dropout_rate == 0.25
        for (_, a), (_, b) in zip(model.param_arrays(), back.param_arrays()):
            assert np.array_equal(a, b)

    def test_magic_bytes(self, tmp_path):
        model = numcore.init_mlp(2, [2], 0.0, np.random.default_rng(0))
        path = tmp_path / "m.mgkd"
        modelio.save_model(model, path, "pre")
        assert path.read_bytes()[:4] == b"MGKD"

    def test_truncated_file(self, workdir, tmp_path):
        out, config = workdir
        path = tmp_path / "short.mgkd"
        path.write_bytes((out / "teacher.mgkd").read_bytes()[:10])
        with pytest.raises(errors.DataError, match="truncated"):
            modelio.load_model(path)
        rc = cli.main(["eval", "--model", str(path),
                       "--data", str(out / "dataset.csv"),
                       "--config", str(config), "--out", str(tmp_path)])
        assert rc == 4

    def test_trailing_bytes(self, tmp_path):
        model = numcore.init_mlp(3, [4], 0.0, np.random.default_rng(0))
        path = tmp_path / "m.mgkd"
        modelio.save_model(model, path, "pre")
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(errors.DataError, match="trailing"):
            modelio.load_model(path)

    @pytest.mark.parametrize("classifier", [(6, 1), (4, 2)],
                             ids=["fan_in_6_after_4", "two_outputs"])
    def test_non_chaining_layers_exit_4(self, workdir, tmp_path, capsys,
                                        classifier):
        out, config = workdir
        # A 5->4 encoder layer, then the given classifier, byte by byte.
        raw = b"MGKD" + struct.pack("<IBd", 1, 0, 0.0) + struct.pack("<I", 1)
        for rows, cols in ((5, 4), classifier):
            raw += struct.pack("<II", rows, cols)
            raw += struct.pack(f"<{rows * cols + cols}d",
                               *[0.5] * (rows * cols + cols))
        path = tmp_path / "bad.mgkd"
        path.write_bytes(raw)
        with pytest.raises(errors.DataError,
                           match="layer shapes do not chain"):
            modelio.load_model(path)
        capsys.readouterr()
        rc = cli.main(["eval", "--model", str(path),
                       "--data", str(out / "dataset.csv"),
                       "--config", str(config), "--out", str(tmp_path)])
        assert rc == 4
        assert str(path) in capsys.readouterr().err


    @pytest.mark.parametrize("rate", [math.nan, 1.5, 1.0, -0.1])
    def test_bad_dropout_exit_4(self, workdir, tmp_path, capsys, rate):
        out, config = workdir
        raw = bytearray((out / "teacher.mgkd").read_bytes())
        raw[9:17] = struct.pack("<d", rate)  # after magic, version, mode
        path = tmp_path / "bad.mgkd"
        path.write_bytes(bytes(raw))
        with pytest.raises(errors.DataError, match="dropout rate"):
            modelio.load_model(path)
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(config),
                       "--out", str(tmp_path), "--mode", "pretrain_only",
                       "--teacher", str(path),
                       "--data", str(out / "dataset.csv")])
        assert rc == 4
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "student_pretrain_only.mgkd").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_non_finite_parameter_exit_4(self, workdir, tmp_path, capsys,
                                         command):
        out, config = workdir
        raw = bytearray((out / "teacher.mgkd").read_bytes())
        raw[-8:] = struct.pack("<d", math.nan)  # the classifier bias
        path = tmp_path / "bad.mgkd"
        path.write_bytes(bytes(raw))
        with pytest.raises(errors.DataError,
                           match=r"non-finite value in classifier\.bias"):
            modelio.load_model(path)
        capsys.readouterr()
        argv = ["eval", "--model", str(path)] if command == "eval" \
            else ["train", "--mode", "full", "--teacher", str(path)]
        rc = cli.main([*argv, "--config", str(config),
                       "--out", str(tmp_path / "out"),
                       "--data", str(out / "dataset.csv")])
        assert rc == 4
        err = capsys.readouterr().err
        assert f"{path}: non-finite value in classifier.bias" in err


def _tiny_model_file() -> bytes:
    """A valid file: a 3->2 encoder layer and a 2->1 classifier."""
    raw = b"MGKD" + struct.pack("<IBd", 1, 0, 0.25) + struct.pack("<I", 1)
    for rows, cols in ((3, 2), (2, 1)):
        raw += struct.pack("<II", rows, cols)
        raw += struct.pack(f"<{rows * cols + cols}d",
                           *np.linspace(-1.0, 1.0, rows * cols + cols))
    return raw


TINY_MODEL = _tiny_model_file()


@st.composite
def corrupt_model_files(draw):
    """Random bytes, a truncation, or overwritten bytes of TINY_MODEL."""
    kind = draw(st.sampled_from(["random", "truncated", "overwritten"]))
    if kind == "random":
        return draw(st.binary(max_size=200))
    if kind == "truncated":
        return TINY_MODEL[:draw(st.integers(0, len(TINY_MODEL) - 1))]
    raw = bytearray(TINY_MODEL)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(raw) - 1))
        chunk = draw(st.binary(min_size=1, max_size=8))
        raw[at:at + len(chunk)] = chunk
    return bytes(raw)


# Both shape fields of the first layer at 2**32 - 1: its byte count does
# not fit an index.
@example(raw=TINY_MODEL[:25] + b"\xff" * 8 + TINY_MODEL[33:])
@settings(max_examples=300, deadline=None)
@given(raw=corrupt_model_files())
def test_load_model_fails_only_with_parse_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "m.mgkd"
    path.write_bytes(raw)
    try:
        model, feature_mode = modelio.load_model(path)
    except errors.DataError as exc:
        assert str(path) in str(exc)
        return
    assert 0.0 <= model.dropout_rate < 1.0
    assert feature_mode in modelio.FEATURE_MODES


def _config_with(tmp_path, section: str, key: str, value: str) -> Path:
    """CONFIG with `key = value` set in `section`, written to run.ini."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(CONFIG)
    parser[section][key] = value
    config = tmp_path / "run.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return config


@pytest.mark.parametrize("key,value", [
    ("beta", "nan"), ("lambda", "nan"), ("lr", "nan"), ("tau", "nan"),
    ("weight_decay", "nan"), ("hidden_dims", "0,8"), ("hidden_dims", "-3,8"),
    ("seed", "-1")])
def test_bad_student_value_exit_2(workdir, tmp_path, capsys, key, value):
    out, _ = workdir
    config = _config_with(tmp_path, "student", key, value)
    rc = cli.main(["train", "--config", str(config), "--out", str(tmp_path),
                   "--mode", "full", "--data", str(out / "dataset.csv"),
                   "--teacher", str(out / "teacher.mgkd")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("hard_term", "focal",
     "unknown hard_term 'focal': choose ce or reweighted"),
    ("hard_term", "reweighted_focal",
     "unknown hard_term 'reweighted_focal': choose ce or reweighted"),
    ("gamma", "2.0", "unknown config key 'gamma' in [student]")])
def test_focal_settings_exit_2(workdir, tmp_path, capsys, key, value,
                               message):
    # Focal loss is gone: its names and its gamma key are config errors.
    out, _ = workdir
    config = _config_with(tmp_path, "student", key, value)
    rc = cli.main(["train", "--config", str(config),
                   "--out", str(tmp_path / "out"), "--mode", "full",
                   "--data", str(out / "dataset.csv"),
                   "--teacher", str(out / "teacher.mgkd")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("snr_pre", "nan"), ("snr_in_base", "inf"), ("window_gain", "nan"),
    ("n", "-5"), ("d_pre", "-1"), ("d_pre", "0"), ("d_in", "-2"),
    ("seed", "-1"), ("label_noise", "0.05")])  # deleted: an unknown key
def test_bad_dataset_value_exit_2(tmp_path, capsys, key, value):
    config = _config_with(tmp_path, "dataset", key, value)
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


def test_non_finite_split_fraction_exit_2(workdir, tmp_path):
    out, _ = workdir
    config = _config_with(tmp_path, "dataset", "frac_valid", "nan")
    assert cli.main(["train", "--config", str(config), "--out",
                     str(tmp_path), "--mode", "teacher",
                     "--data", str(out / "dataset.csv")]) == 2


@pytest.mark.parametrize("raw", [b"[dataset]\nseed = 5%\n",
                                 b"[dataset]\nn = 2\xff0\n",
                                 b"[DEFAULT]\nn = 10\n",
                                 b"[DEFAULT]\nmax_epochs = 0\n[teacher]\n",
                                 b"[DEFAULT]\n[dataset]\nn = 10\n"],
                         ids=["percent", "not_utf8", "default_only",
                              "default_and_teacher", "empty_default"])
def test_config_text_exit_2(tmp_path, raw):
    config = tmp_path / "run.ini"
    config.write_bytes(raw)
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 2


def _files(root: Path) -> list[Path]:
    return [path for path in root.rglob("*") if path.is_file()]


def test_config_directory_exit_3(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.mkdir()
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 3
    assert str(config) in capsys.readouterr().err
    assert _files(tmp_path) == []


def test_data_directory_exit_3(workdir, tmp_path, capsys):
    _, config = workdir
    dataset = tmp_path / "dataset.csv"
    dataset.mkdir()
    assert cli.main(["train", "--config", str(config), "--mode", "teacher",
                     "--out", str(tmp_path / "out"),
                     "--data", str(dataset)]) == 3
    assert str(dataset) in capsys.readouterr().err
    assert _files(tmp_path) == []


def test_model_directory_exit_3(workdir, tmp_path, capsys):
    out, config = workdir
    model = tmp_path / "teacher.mgkd"
    model.mkdir()
    assert cli.main(["eval", "--model", str(model), "--config", str(config),
                     "--data", str(out / "dataset.csv"),
                     "--out", str(tmp_path / "out")]) == 3
    assert str(model) in capsys.readouterr().err
    assert _files(tmp_path) == []


def test_out_is_a_file_exit_3(workdir, tmp_path, capsys):
    _, config = workdir
    dest = tmp_path / "out"
    dest.write_text("kept\n")
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(dest)]) == 3
    assert str(dest) in capsys.readouterr().err
    assert _files(tmp_path) == [dest]
    assert dest.read_text() == "kept\n"


def test_failed_model_write_leaves_no_model_file(workdir, tmp_path, capsys,
                                                monkeypatch):
    out, config = workdir
    write_layer = modelio._write_layer
    written = []

    def fail_after_first(fh, layer):
        if written:
            raise OSError("disk full")
        written.append(layer)
        write_layer(fh, layer)

    monkeypatch.setattr(modelio, "_write_layer", fail_after_first)
    dest = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--mode", "teacher",
                     "--data", str(out / "dataset.csv"),
                     "--out", str(dest)]) == 3
    assert "disk full" in capsys.readouterr().err
    assert not (dest / "teacher.mgkd").exists()
    assert not list(dest.glob("*.tmp"))


def test_failed_command_leaves_no_out_dir(workdir, tmp_path):
    out, config = workdir
    regular = tmp_path / "regular"
    regular.write_text("")
    assert cli.main(["generate", "--config", str(config),
                     "--data", str(regular / "d.csv"),
                     "--out", str(tmp_path / "fo" / "out0")]) == 3
    model = tmp_path / "teacher.mgkd"
    model.mkdir()
    assert cli.main(["eval", "--model", str(model),
                     "--data", str(out / "dataset.csv"),
                     "--out", str(tmp_path / "fo" / "out")]) == 3
    assert cli.main(["train", "--config", str(config), "--mode", "teacher",
                     "--data", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "fo" / "out2")]) == 3
    assert not (tmp_path / "fo").exists()


def test_manifests_record_step_dtype_and_blas_threads(workdir, tmp_path,
                                                      monkeypatch):
    _, config = workdir
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    dest = tmp_path / "out"
    common = ["--config", str(config), "--out", str(dest)]
    assert cli.main(["generate", *common]) == 0
    assert cli.main(["train", *common, "--mode", "teacher"]) == 0
    assert cli.main(["eval", *common, "--model", str(dest / "teacher.mgkd"),
                     "--data", str(dest / "dataset.csv")]) == 0
    manifests = sorted(dest.glob("*_manifest.json"))
    assert [path.name for path in manifests] == [
        "eval_manifest.json", "generate_manifest.json",
        "train_teacher_manifest.json"]
    for path in manifests:
        manifest = json.loads(path.read_text())
        assert manifest["step_dtype"] == "float32"
        assert manifest["OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["OMP_NUM_THREADS"] is None
        assert manifest["MKL_NUM_THREADS"] == "2"
        assert manifest["numpy"] == np.__version__
        assert manifest["blas"] == pipeline.environment()["blas"]
    # The test split is one tile.
    assert json.loads(manifests[0].read_text())["tile_workers"] == 1


def test_eval_manifest_records_tile_workers(workdir, tmp_path, monkeypatch):
    # 16-row tiles, so that the test split has several.
    out, config = workdir
    monkeypatch.setattr(pipeline, "PREDICT_ROWS", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    results = {}
    for blas_threads in ("", "1"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        dest = tmp_path / f"blas{blas_threads}"
        assert cli.main(["eval", "--model", str(out / "teacher.mgkd"),
                         "--data", str(out / "dataset.csv"),
                         "--config", str(config), "--out", str(dest)]) == 0
        manifest = json.loads((dest / "eval_manifest.json").read_text())
        results[manifest["tile_workers"]] = \
            (dest / "eval_results.jsonl").read_bytes()
    assert list(results) == [1, 2]
    assert results[1] == results[2]


@pytest.mark.parametrize("grid", [",", "nan", "0.2,inf"])
def test_sweep_bad_grid_exit_2(workdir, tmp_path, grid):
    out, config = workdir
    rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path),
                   "--param", "beta", "--grid", grid, "--seeds", "0",
                   "--data", str(out / "dataset.csv")])
    assert rc == 2
    assert not (tmp_path / "sweep_beta_results.jsonl").exists()


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_empty_seed_list_exit_2(workdir, tmp_path, command):
    out, config = workdir
    rc = cli.main([*command, "--config", str(config), "--out", str(tmp_path),
                   "--seeds", ",", "--data", str(out / "dataset.csv")])
    assert rc == 2


@pytest.mark.parametrize("args, sweep_section, value", [
    (["ablate", "--seeds", "0,0"], "", "0"),
    (["sweep", "--param", "alpha", "--grid", "0.2", "--seeds", "1,0,1"],
     "", "1"),
    (["sweep", "--param", "alpha", "--grid", "0.2,0.4,0.20", "--seeds", "0"],
     "", "0.2"),
    (["sweep"], "[sweep]\nparam = beta\ngrid = 0.1,0.1\nseeds = 0\n", "0.1"),
    (["sweep", "--param", "alpha", "--grid", "0.2"],
     "[sweep]\nseeds = 2,2\n", "2"),
], ids=["ablate_seeds", "sweep_seeds", "sweep_grid", "config_grid",
        "config_seeds"])
def test_repeated_seed_or_grid_value_exit_2(workdir, tmp_path, capsys, args,
                                            sweep_section, value):
    # A repeated seed used to train once and count twice in n_runs.
    out, config = workdir
    variant = tmp_path / "run.ini"
    variant.write_text(config.read_text() + "\n" + sweep_section)
    dest = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([*args, "--config", str(variant), "--out", str(dest),
                     "--data", str(out / "dataset.csv")]) == 2
    assert f": {value} is repeated" in capsys.readouterr().err
    assert not dest.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--param", "alpha", "--grid", "0.0,0.2"], ["ablate"]])
def test_grid_manifest_records_grid_workers(workdir, tmp_path, monkeypatch,
                                            command):
    out, config = workdir
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    results = {}
    for blas_threads in ("", "1"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        dest = tmp_path / f"blas{blas_threads}"
        assert cli.main([*command, "--config", str(config), "--out",
                         str(dest), "--seeds", "0",
                         "--data", str(out / "dataset.csv")]) == 0
        manifest = json.loads(
            (dest / f"{command[0]}_manifest.json").read_text())
        assert "grid_workers" not in pipeline.environment()
        (path,) = dest.glob("*_results.jsonl")
        results[manifest["grid_workers"]] = path.read_bytes()
    assert list(results) == [1, 2]
    assert results[1] == results[2]


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_grid_commands_reject_seed(workdir, tmp_path, command):
    # They take --seeds; a --seed would be ignored.
    out, config = workdir
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--config", str(config), "--out", str(tmp_path),
                  "--seeds", "0", "--seed", "99",
                  "--data", str(out / "dataset.csv")])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_cosine_ablation_survives_zero_rows(tmp_path):
    # At dropout 0.2 and width 16, ReLU and dropout zero whole rows of the
    # representation; the cosine feature loss used to abort on them.
    config = tmp_path / "run.ini"
    train = ("hidden_dims = 16,16\ndropout = 0.2\nbatch_size = 512\n"
             "max_epochs = 5\npatience = 5\nhard_term = reweighted\n")
    config.write_text(
        CONFIG.split("[teacher]")[0].replace("n = 2500", "n = 4000")
        .replace("d_in = 4", "d_in = 7").replace("d_pre = 4", "d_pre = 5")
        + "[teacher]\n" + train + "[student]\n" + train
        + "alpha = 0.2\nbeta = 0.25\nlambda = 0.1\nfeat_metric = cosine\n")
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert cli.main(["ablate", "--config", str(config), "--out",
                     str(tmp_path), "--seeds", "0,1"]) == 0
    records = read_jsonl(tmp_path / "ablation_results.jsonl")
    assert all(0.0 <= r["auc"] <= 1.0 for r in records
               if r["record"] == "ablation_run")


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_jobs_below_one_exit_2(workdir, tmp_path, command, jobs):
    out, config = workdir
    rc = cli.main([*command, "--config", str(config), "--out", str(tmp_path),
                   "--seeds", "0", "--jobs", jobs,
                   "--data", str(out / "dataset.csv")])
    assert rc == 2


CONFIG_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e309", "-1", "-3", "0",
                     "0.0", "", "lots", "0,8", "-3,8", "8,", "5%", "1_0"]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
            max_size=8))
FUZZED_SECTIONS = {"dataset": (data.SyntheticConfig, sorted(cli.DATASET_KEYS)),
                   "student": (pipeline.DistillConfig, sorted(cli.TRAIN_KEYS))}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=200, deadline=None)
@given(section=st.sampled_from(sorted(FUZZED_SECTIONS)), draw=st.data())
def test_config_boundary_yields_finite_config_or_config_error(
        fuzz_dir, section, draw):
    cls, keys = FUZZED_SECTIONS[section]
    values = draw.draw(st.dictionaries(st.sampled_from(keys), CONFIG_VALUES,
                                       min_size=1))
    path = fuzz_dir / "fuzz.ini"
    path.write_text(f"[{section}]\n" + "".join(
        f"{key} = {value}\n" for key, value in values.items()),
        encoding="utf-8")
    try:
        cfg = cli._config(cls, cli._parse_config(path), section)
    except errors.ConfigError:
        return
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            assert math.isfinite(value), (f.name, value)


INI_KEYS = sorted(cli.DATASET_KEYS | cli.TRAIN_KEYS | cli.SWEEP_KEYS)
INI_LINES = st.one_of(
    st.sampled_from(["[dataset]", "[teacher]", "[student]", "[sweep]",
                     "[DEFAULT]", "[default]", "[]", "[dataset", "  0.5",
                     "# comment", "; comment", "", "=", "lambda"]),
    st.builds("{}{}{}".format, st.sampled_from(INI_KEYS) | st.text(max_size=6),
              st.sampled_from([" = ", "=", ": ", " "]), CONFIG_VALUES),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
CONFIG_SECTIONS = {"dataset": data.SyntheticConfig,
                   "teacher": pipeline.DistillConfig,
                   "student": pipeline.DistillConfig}


@example(lines=["[DEFAULT]", "max_epochs = 0", "[teacher]"])
@example(lines=["[student]", "lr = 0.1", "[student]"])
@example(lines=["[student]", "lr = 0.1", "lr = 0.2"])
@example(lines=["n = 10"])
@settings(max_examples=300, deadline=None)
@given(lines=st.lists(INI_LINES, max_size=12))
def test_config_text_raises_only_config_error(fuzz_dir, lines):
    path = fuzz_dir / "text.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        parser = cli._parse_config(path)
    except errors.ConfigError:
        return
    for section, cls in CONFIG_SECTIONS.items():
        try:
            cli._config(cls, parser, section)
        except errors.ConfigError:
            pass


WIDTHS = st.lists(st.sampled_from([1, 3, 0]), max_size=2).map(
    lambda dims: ",".join(map(str, dims)))  # "" is a linear model


@st.composite
def tiny_runs(draw):
    """INI text of a small dataset, teacher and student, and a mode. Each
    value is drawn from a usual one, listed twice, and its edge cases."""
    def pick(usual, *edges):
        return draw(st.sampled_from([usual, usual, *edges]))

    def training():
        return {"hidden_dims": draw(WIDTHS), "dropout": pick(0.0, 0.5, 0.999),
                "lr": pick(0.005, 1e-300, 1e300),
                "weight_decay": pick(1e-7, 0.0, 1e300),
                "batch_size": pick(1024, 1, 7),
                "max_epochs": pick(2, 0, 1), "patience": pick(1, 0)}

    sections = {
        "dataset": {"n": draw(st.integers(0, 80)), "d_pre": pick(2, 0, 1),
                    "d_in": pick(2, 0, 1),
                    "positive_rate": pick(0.3, 1e-6, 0.999999),
                    "seed": pick(0, 1), "frac_valid": pick(0.1, 0.3, 0.5),
                    "frac_test": pick(0.1, 0.3)},
        "teacher": training(),
        "student": {**training(), "alpha": pick(0.5, 0.0, 1.0),
                    "beta": pick(0.25, 0.0, 1e300), "lambda": pick(0.1, 0.0),
                    "tau": pick(2.5, 1.0),
                    "feat_metric": pick("mse", "cosine"),
                    "hard_term": pick(*pipeline.HARD_TERMS)},
    }
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                           for key, value in keys.items())
                   for name, keys in sections.items())
    return text, draw(st.sampled_from(pipeline.MODES))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge rates
@settings(max_examples=150, deadline=None)
@given(run=tiny_runs())
def test_tiny_configs_end_in_a_documented_exit_code(tmp_path_factory, run):
    # generate, teacher, one mode and eval: every command ends in an exit
    # code, never in a traceback.
    text, mode = run
    out = tmp_path_factory.mktemp("tiny")
    config = out / "run.ini"
    config.write_text(text)
    common = ["--config", str(config), "--out", str(out)]
    model = out / ("teacher.mgkd" if mode == "teacher"
                   else f"student_{mode}.mgkd")
    for argv in (["generate", *common],
                 ["train", *common, "--mode", "teacher"],
                 ["train", *common, "--mode", mode],
                 ["eval", "--model", str(model),
                  "--data", str(out / "dataset.csv"), *common]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv) in (0, 2, 3, 4, 5), argv
        # A split with one class is named, not left to the metrics.
        assert "need at least one positive" not in err.getvalue(), argv
