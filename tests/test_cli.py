"""CLI subcommands: pipeline smoke, exit codes, artifact determinism."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

import wsseg.net as net_mod
import wsseg.trainer as trainer_mod
from wsseg.cli import (
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_USAGE,
    load_split,
    main,
)

CONFIG = {
    "synth": {
        "num_classes": 3,
        "num_channels": 2,
        "length": 360,
        "seg_len_min": 40,
        "seg_len_max": 80,
        "noise_sigma": 0.0,
        "mean_scale": 1.0,
        "seed": 3,
        "n_train": 6,
        "n_val": 2,
        "n_test": 2,
    },
    "train": {
        "net": {
            "in_dim": 2,
            "num_classes": 3,
            "stages": 1,
            "layers_per_stage": 3,
            "feature_dim": 8,
            "projector_dim": 4,
        },
        "loss": {"lambda_con": 0.3, "lambda_s": 0.1, "lambda_conf": 0.3},
        "epochs_max": 30,
        "epochs_init": 16,
        "lr": 0.003,
        "batch_size": 4,
        "crop_len": 200,
        "seed": 5,
        "proto_k": 6,
        "anchor_count": 16,
        "ot_max_iters": 500,
        "patience": 50,
    },
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> eval once; several tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    data = root / "data"
    run = root / "run"
    evald = root / "eval"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    probe = (data / "train" / "seq_000.csv").read_bytes()
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(run)]) == 0
    assert main(
        ["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data / "test"),
         "--out", str(evald)]
    ) == 0
    assert (data / "train" / "seq_000.csv").read_bytes() == probe  # inputs untouched
    return root, config, data, run, evald


def _report(path):
    with open(path, newline="") as fh:
        return {row[0]: row[1] for row in csv.reader(fh)}


def test_pipeline_learns_zero_noise_corpus(pipeline):
    _, _, _, _, evald = pipeline
    report = _report(evald / "eval_report.csv")
    assert float(report["f_m"]) >= 0.95


def test_pipeline_artifacts_exist(pipeline):
    root, _, data, run, evald = pipeline
    assert (data / "meta.json").exists()
    assert sorted(os.listdir(data / "train"))[0] == "seq_000.csv"
    assert (run / "checkpoint.npz").exists()
    assert (run / "train_log.csv").exists()
    ribbons = [n for n in os.listdir(evald) if n.endswith(".svg")]
    assert len(ribbons) == 2
    svg = (evald / ribbons[0]).read_text()
    assert svg.startswith("<svg") and "rect" in svg


def test_pseudo_and_cam_dumps(pipeline):
    root, _, data, run, _ = pipeline
    out_p = root / "pseudo"
    assert main(
        ["pseudo", "--checkpoint", str(run / "checkpoint.npz"),
         "--data", str(data / "train"), "--out", str(out_p), "--seed", "1"]
    ) == 0
    q_files = [n for n in os.listdir(out_p) if n.startswith("q_tot_")]
    y_files = [n for n in os.listdir(out_p) if n.startswith("pseudo_")]
    assert q_files and len(q_files) == len(y_files)
    y = np.loadtxt(out_p / y_files[0], delimiter=",", skiprows=1)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)

    out_c = root / "cams"
    assert main(
        ["cams", "--checkpoint", str(run / "checkpoint.npz"),
         "--data", str(data / "test"), "--out", str(out_c)]
    ) == 0
    cams = np.loadtxt(out_c / sorted(os.listdir(out_c))[0], delimiter=",", skiprows=1)
    assert cams.min() >= 0.0


def test_pseudo_uses_the_timestamps_training_drew(pipeline, tmp_path, monkeypatch):
    _, _, data, run, _ = pipeline
    seen = []
    generate = trainer_mod.generate_pseudo_for_sequence
    monkeypatch.setattr(trainer_mod, "generate_pseudo_for_sequence",
                        lambda x, ann, *args: seen.append(ann) or generate(x, ann, *args))
    train_set, _ = load_split(str(data), "train")
    config = trainer_mod.load_checkpoint(run / "checkpoint.npz").config
    # one pseudo-phase epoch at the checkpoint's seed reports train()'s timestamps
    trainer_mod.train(train_set, train_set[:1],
                      dataclasses.replace(config, epochs_init=0, epochs_max=1))
    used_in_training = seen[:]
    seen.clear()
    assert main(
        ["pseudo", "--checkpoint", str(run / "checkpoint.npz"),
         "--data", str(data / "train"), "--out", str(tmp_path / "pseudo")]
    ) == 0
    assert len(seen) == len(used_in_training) == len(train_set)
    for dumped, trained in zip(seen, used_in_training):
        np.testing.assert_array_equal(dumped.positions, trained.positions)
        np.testing.assert_array_equal(dumped.classes, trained.classes)


def test_eval_runs_the_network_once_per_sequence(pipeline, tmp_path, monkeypatch):
    _, _, data, run, evald = pipeline
    calls = []
    forward = net_mod.forward
    monkeypatch.setattr(net_mod, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    out = tmp_path / "eval"
    assert main(
        ["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data / "test"),
         "--out", str(out)]
    ) == 0
    assert len(calls) == len(os.listdir(data / "test")) == 2
    assert _report(out / "eval_report.csv") == _report(evald / "eval_report.csv")


def test_report_aggregates_runs(pipeline, tmp_path):
    root, _, _, _, evald = pipeline
    out = tmp_path / "summary.csv"
    assert main(["report", "--runs", str(evald), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "acc", "f_m", "ji", "iou", "o_u"]
    assert len(rows) == 2


def test_synth_deterministic(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(CONFIG))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--config", str(config), "--out", str(a)]) == 0
    assert main(["synth", "--config", str(config), "--out", str(b)]) == 0
    fa = a / "train" / "seq_000.csv"
    fb = b / "train" / "seq_000.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("synth", "train", "eval", "pseudo", "cams", "report"):
        assert main([sub, "--help"]) == 0
        assert sub in capsys.readouterr().out


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("wsseg: error:")


def test_missing_config_and_checkpoint(tmp_path, capsys):
    code = main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_MISSING
    code = main(
        ["eval", "--checkpoint", str(tmp_path / "nope.npz"), "--data", str(tmp_path),
         "--out", str(tmp_path)]
    )
    assert code == EXIT_MISSING
    err = capsys.readouterr().err
    assert "nope.npz" in err  # error names the missing path


def test_retired_train_key_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": dict(CONFIG["train"], pseudo_per_batch=True)}))
    code = main(["train", "--config", str(config), "--data", str(tmp_path),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert "pseudo_per_batch" in capsys.readouterr().err


def test_bad_train_setting_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": dict(CONFIG["train"], lr_period=0)}))
    code = main(["train", "--config", str(config), "--data", str(tmp_path),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert "lr_period" in capsys.readouterr().err


def test_bad_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["synth", "--config", str(empty), "--out", str(tmp_path)]) == EXIT_CONFIG
