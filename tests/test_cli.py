"""CLI subcommands: pipeline smoke, exit codes, artifact determinism."""

import csv
import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

import wsseg.cli as cli_mod
import wsseg.net as net_mod
import wsseg.trainer as trainer_mod
from wsseg.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_MISSING,
    EXIT_USAGE,
    load_dataset,
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
    config = trainer_mod.load_checkpoint(run / "checkpoint.npz").config
    train_set = load_dataset(str(data / "train"), config.net, EXIT_DATA)
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
    probabilities = net_mod.probabilities
    monkeypatch.setattr(net_mod, "probabilities",
                        lambda *a, **k: calls.append(1) or probabilities(*a, **k))
    for name in ("forward", "forward_cached"):
        monkeypatch.setattr(net_mod, name, lambda *a, name=name, **k: pytest.fail(name))
    out = tmp_path / "eval"
    assert main(
        ["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data / "test"),
         "--out", str(out)]
    ) == 0
    assert len(calls) == len(os.listdir(data / "test")) == 2
    assert _report(out / "eval_report.csv") == _report(evald / "eval_report.csv")


def test_truncated_checkpoint_is_a_data_error(pipeline, tmp_path, capsys):
    _, _, data, run, _ = pipeline
    whole = (run / "checkpoint.npz").read_bytes()
    cut = tmp_path / "checkpoint.npz"
    cut.write_bytes(whole[: len(whole) // 2])
    code = main(["eval", "--checkpoint", str(cut), "--data", str(data / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    assert f"cannot read checkpoint {cut}" in capsys.readouterr().err


def test_checkpoint_that_is_a_directory_is_a_data_error(pipeline, tmp_path, capsys):
    _, _, data, _, _ = pipeline
    folder = tmp_path / "checkpoint.npz"
    folder.mkdir()
    code = main(["eval", "--checkpoint", str(folder), "--data", str(data / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    assert f"cannot read checkpoint {folder}" in capsys.readouterr().err


def _checkpoint_with_config_keys(run, tmp_path, **extra):
    """A copy of the run's checkpoint whose stored config also holds ``extra``."""
    with np.load(run / "checkpoint.npz") as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["meta"]))
    meta["config"].update(extra)
    arrays["meta"] = np.array(json.dumps(meta))
    path = tmp_path / "checkpoint.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def test_checkpoint_config_with_an_unknown_key_is_a_data_error(pipeline, tmp_path, capsys):
    _, _, data, run, _ = pipeline
    bad = _checkpoint_with_config_keys(run, tmp_path, bogus=1)
    code = main(["eval", "--checkpoint", str(bad), "--data", str(data / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot read checkpoint {bad}" in err and "bogus" in err


def test_checkpoint_with_a_legacy_prototype_switch(pipeline, tmp_path, capsys):
    # the run's config weights contrast in, so it implies prototypes
    _, _, data, run, _ = pipeline
    argv = ["eval", "--data", str(data / "test"), "--out", str(tmp_path / "eval")]
    good = _checkpoint_with_config_keys(run, tmp_path, use_prototypes=True)
    assert main(argv + ["--checkpoint", str(good)]) == 0
    bad = _checkpoint_with_config_keys(run, tmp_path, use_prototypes=False)
    assert main(argv + ["--checkpoint", str(bad)]) == EXIT_DATA
    assert "use_prototypes" in capsys.readouterr().err


def test_synth_drops_a_retired_key_at_its_value(tmp_path):
    sequence = ("train", "seq_000.csv")
    assert (_synth(tmp_path, "now").joinpath(*sequence).read_bytes()
            == _synth(tmp_path, "old", mean_scale=1.0).joinpath(*sequence).read_bytes())


def test_pseudo_names_only_the_classes_without_a_prototype(pipeline, tmp_path, capsys):
    _, _, data, run, _ = pipeline
    state = trainer_mod.load_checkpoint(run / "checkpoint.npz")
    state.bank.initialized[:] = [True, True, False]
    trainer_mod.save_checkpoint(state, tmp_path / "checkpoint.npz")
    capsys.readouterr()
    assert main(
        ["pseudo", "--checkpoint", str(tmp_path / "checkpoint.npz"),
         "--data", str(data / "train"), "--out", str(tmp_path / "pseudo")]
    ) == 0
    skipped = [line for line in capsys.readouterr().out.splitlines() if "skipped" in line]
    assert skipped
    assert all(line.endswith("for classes [2])") for line in skipped)


def test_pseudo_names_each_sequence_whose_transport_did_not_converge(pipeline, tmp_path,
                                                                    capsys):
    _, _, data, run, _ = pipeline
    state = trainer_mod.load_checkpoint(run / "checkpoint.npz")
    state.config = dataclasses.replace(state.config, ot_max_iters=1)
    trainer_mod.save_checkpoint(state, tmp_path / "checkpoint.npz")
    capsys.readouterr()
    assert main(
        ["pseudo", "--checkpoint", str(tmp_path / "checkpoint.npz"),
         "--data", str(data / "train"), "--out", str(tmp_path / "pseudo")]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    dumped = sorted(n[len("q_tot_"):-len(".csv")] for n in os.listdir(tmp_path / "pseudo")
                    if n.startswith("q_tot_"))
    unconverged = [line for line in lines if "did not converge within ot_max_iters=1 " in line]
    assert dumped and sorted(line.split(":")[0] for line in unconverged) == dumped
    assert all("marginal residual" in line for line in unconverged)


def _synth(tmp_path, name, **spec):
    config = tmp_path / f"{name}.json"
    synth = dict(CONFIG["synth"], length=120, n_train=1, n_val=1, n_test=1, **spec)
    config.write_text(json.dumps({"synth": synth}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    return tmp_path / name


@pytest.mark.parametrize("command, split", [("eval", "test"), ("pseudo", "train"),
                                            ("cams", "test")])
@pytest.mark.parametrize("spec", [{"num_channels": 3}, {"num_classes": 4}])
def test_dataset_shape_must_match_the_checkpoint(pipeline, tmp_path, capsys, command, split,
                                                 spec):
    _, _, _, run, _ = pipeline
    data = _synth(tmp_path, "other", **spec)
    code = main([command, "--checkpoint", str(run / "checkpoint.npz"),
                 "--data", str(data / split), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert next(iter(spec)) in capsys.readouterr().err


def _drop_num_channels(text):
    meta = json.loads(text)
    del meta["num_channels"]
    return json.dumps(meta)


# (file to corrupt, corruption of its text or None to make it a directory);
# a sequence CSV is corrupted in every split
DATA_FAULTS = {
    "non-numeric-channel": ("seq_000.csv", lambda text: text + "abc,1.0,0\n"),
    "label-out-of-range": ("seq_000.csv", lambda text: text + "0.5,0.5,7\n"),
    "row-without-label": ("seq_000.csv", lambda text: text + "0.5,0.5\n"),
    "empty-channel-cell": ("seq_000.csv", lambda text: text + "0.5,,0.7,1\n"),
    "meta-not-json": ("meta.json", lambda text: "{not json"),
    "meta-without-num-channels": ("meta.json", _drop_num_channels),
    "csv-is-a-directory": ("zz.csv", None),
}


@pytest.mark.parametrize("fault", list(DATA_FAULTS))
@pytest.mark.parametrize("command", ["eval", "train"])
def test_unreadable_dataset_is_a_data_error(pipeline, tmp_path, capsys, command, fault):
    _, config, _, run, _ = pipeline
    data = _synth(tmp_path, "data")
    name, corrupt = DATA_FAULTS[fault]
    split = "test" if command == "eval" else "train"
    if name == "meta.json":
        targets = [data / name]
        named = str(data / name)
    else:
        targets = [data / s / name for s in ("train", "val", "test")]
        named = str(data / split / name)
    for path in targets:
        if corrupt is None:
            path.mkdir()
        else:
            path.write_text(corrupt(path.read_text()))
    if command == "eval":
        argv = ["eval", "--checkpoint", str(run / "checkpoint.npz"), "--data", str(data / split)]
    else:
        argv = ["train", "--config", str(config), "--data", str(data)]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert named in capsys.readouterr().err


def test_meta_with_a_sample_rate_still_loads_and_trains(tmp_path):
    data = _synth(tmp_path, "data")
    meta = json.loads((data / "meta.json").read_text())
    assert "sample_rate_hz" not in meta
    (data / "meta.json").write_text(json.dumps(dict(meta, sample_rate_hz=50.0)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": dict(CONFIG["train"], epochs_max=1, epochs_init=1)}))
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "checkpoint.npz").exists()


def test_train_channels_must_match_the_data(tmp_path, capsys):
    data = _synth(tmp_path, "data")
    config = tmp_path / "config.json"
    net = dict(CONFIG["train"]["net"], in_dim=3)
    config.write_text(json.dumps({"train": dict(CONFIG["train"], net=net)}))
    code = main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert "num_channels" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.npz").exists()


def test_report_aggregates_runs(pipeline, tmp_path):
    root, _, _, _, evald = pipeline
    out = tmp_path / "summary.csv"
    assert main(["report", "--runs", str(evald), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "acc", "f_m", "ji", "iou", "o_u"]
    assert len(rows) == 2


def test_report_names_a_missing_metric(tmp_path, capsys):
    argv = _report_argv(tmp_path, REPORT.replace("f_m,0.5\n", ""))
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(tmp_path / "run" / "eval_report.csv") in err and "no f_m metric" in err
    assert not (tmp_path / "out").exists()


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


def test_synth_refuses_an_out_that_is_not_empty(tmp_path, capsys):
    config = dict(CONFIG, synth=dict(CONFIG["synth"], n_train=5))
    out = tmp_path / "out"
    assert main(_synth_argv(tmp_path, config)) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    fewer = dict(CONFIG, synth=dict(CONFIG["synth"], n_train=2))
    assert main(_synth_argv(tmp_path, fewer)) == EXIT_USAGE
    assert str(out) in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert json.loads((out / "meta.json").read_text())["splits"]["train"] == 5


def test_synth_refuses_an_out_holding_a_split_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "train").write_text(BLOCKER)
    assert main(_synth_argv(tmp_path, CONFIG)) == EXIT_USAGE
    assert str(out) in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["train"]
    assert (out / "train").read_text() == BLOCKER


@pytest.mark.parametrize("command, split", [("eval", "test"), ("pseudo", "train"),
                                            ("cams", "test")])
def test_checkpoint_commands_refuse_an_out_that_is_not_empty(pipeline, tmp_path, capsys,
                                                             command, split):
    # an earlier run's per-sequence files would sit beside the new ones
    _, _, data, run, _ = pipeline
    out = tmp_path / "out"
    out.mkdir()
    (out / "ribbon_seq_009.svg").write_text(BLOCKER)
    assert main([command, "--checkpoint", str(run / "checkpoint.npz"),
                 "--data", str(data / split), "--out", str(out)]) == EXIT_USAGE
    assert f"output directory {out} is not empty" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["ribbon_seq_009.svg"]
    assert (out / "ribbon_seq_009.svg").read_text() == BLOCKER


def test_train_refuses_an_out_that_is_not_empty(pipeline, tmp_path, capsys):
    # an earlier run's diagnostics would sit beside the new checkpoint and log
    _, _, data, _, _ = pipeline
    out = tmp_path / "out"
    out.mkdir()
    (out / "diverged_seq0_0_200.npz").write_text(BLOCKER)
    assert main(_train_argv(tmp_path, data, CONFIG)) == EXIT_USAGE
    assert f"output directory {out} is not empty" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["diverged_seq0_0_200.npz"]
    assert (out / "diverged_seq0_0_200.npz").read_text() == BLOCKER


def test_load_dataset_skips_entries_that_are_not_csv(pipeline, tmp_path):
    _, _, data, _, _ = pipeline
    split = tmp_path / "data" / "test"
    shutil.copytree(data, tmp_path / "data")
    (split / "notes.txt").write_text("not a sequence\n")
    (split / "older").mkdir()
    net = net_mod.TcnConfig(**CONFIG["train"]["net"])
    items = load_dataset(str(split), net, EXIT_DATA)
    want = load_dataset(str(data / "test"), net, EXIT_DATA)
    assert [item.sequence.id for item in items] == [item.sequence.id for item in want]
    assert all(np.array_equal(a.sequence.data, b.sequence.data) for a, b in zip(items, want))


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


def test_an_unexpected_error_exits_1(monkeypatch, tmp_path, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "cmd_synth", broken)
    code = main(["synth", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "wsseg: error: RuntimeError: boom\n"


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
    for key, value in (("pseudo_per_batch", True), ("lr_period", 50), ("proto_momentum", 0.7)):
        config.write_text(json.dumps({"train": dict(CONFIG["train"], **{key: value})}))
        code = main(["train", "--config", str(config), "--data", str(tmp_path),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
    # at their only values they pass: the run stops at the missing data
    config.write_text(json.dumps({"train": dict(CONFIG["train"], lr_factor=0.99, lr_period=100,
                                                proto_momentum=0.9)}))
    code = main(["train", "--config", str(config), "--data", str(tmp_path),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_MISSING


def test_one_class_network_with_prototypes_is_a_config_error(tmp_path, capsys):
    # exits before the (missing) data directory is read
    config = tmp_path / "config.json"
    net = dict(CONFIG["train"]["net"], num_classes=1)
    config.write_text(json.dumps({"train": dict(CONFIG["train"], net=net)}))
    code = main(["train", "--config", str(config), "--data", str(tmp_path / "none"),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert "num_classes" in capsys.readouterr().err


def test_legacy_prototype_switch_must_match_the_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    phase1 = dict(CONFIG["train"], epochs_init=CONFIG["train"]["epochs_max"])  # contrast only
    for train, code in ((dict(phase1, use_prototypes=False), EXIT_CONFIG),
                        (dict(phase1, use_prototypes=True), EXIT_MISSING)):
        config.write_text(json.dumps({"train": train}))
        assert main(["train", "--config", str(config), "--data", str(tmp_path / "none"),
                     "--out", str(tmp_path / "run")]) == code
    assert "use_prototypes" in capsys.readouterr().err


@pytest.mark.parametrize("field, train", [
    ("lr_period", dict(CONFIG["train"], lr_period=0)),
    ("kernel_width", dict(CONFIG["train"], net=dict(CONFIG["train"]["net"], kernel_width=2))),
    ("kernel_width", dict(CONFIG["train"], net=dict(CONFIG["train"]["net"], kernel_width=5))),
    ("ot_tol", dict(CONFIG["train"], ot_tol=1e-7)),
    ("epochs_max", dict(CONFIG["train"], epochs_max=30.0)),
    ("batch_size", dict(CONFIG["train"], batch_size=2.5)),
    ("batch_size", dict(CONFIG["train"], batch_size=True)),
    ("proto_k", dict(CONFIG["train"], proto_k=6.0)),
    ("use_prototypes", dict(CONFIG["train"], use_prototypes="no")),
    ("feature_dim", dict(CONFIG["train"], net=dict(CONFIG["train"]["net"], feature_dim=8.0))),
    ("lr", dict(CONFIG["train"], lr=True)),
    ("eps_hard", dict(CONFIG["train"], eps_hard=False)),
    ("tau_contrast", dict(CONFIG["train"], loss=dict(CONFIG["train"]["loss"], tau_contrast=True))),
    ("epochs_init", dict(CONFIG["train"], epochs_init=-3, epochs_max=2)),
    ("epochs_max", dict(CONFIG["train"], epochs_init=-2, epochs_max=-1)),
], ids=["lr_period", "kernel_width", "kernel_width-5", "ot_tol", "epochs_max-float",
        "batch_size-float", "batch_size-bool", "proto_k-float", "use_prototypes-string",
        "feature_dim-float", "lr-bool", "eps_hard-bool", "tau_contrast-bool",
        "epochs_init-negative", "epochs_max-negative"])
def test_bad_train_setting_is_a_config_error(tmp_path, capsys, field, train):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": train}))
    code = main(["train", "--config", str(config), "--data", str(tmp_path),
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err


def test_bad_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["synth", "--config", str(empty), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    folder = tmp_path / "config.json"
    folder.mkdir()
    for argv in (["synth", "--config", str(folder), "--out", str(tmp_path / "data")],
                 ["train", "--config", str(folder), "--data", str(tmp_path),
                  "--out", str(tmp_path / "run")]):
        assert main(argv) == EXIT_CONFIG
        assert f"cannot read config {folder}" in capsys.readouterr().err


def _config_file(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _synth_argv(tmp_path, config, *extra):
    return ["synth", "--config", _config_file(tmp_path, config), "--out", str(tmp_path / "out"),
            *extra]


def _train_argv(tmp_path, data, config, *extra):
    return ["train", "--config", _config_file(tmp_path, config), "--data", str(data),
            "--out", str(tmp_path / "out"), *extra]


REPORT = "metric,value\nacc,0.5\nf_m,0.5\nji,0.5\niou,0.5\no_u,0.5\n"  # all five metrics


def _report_argv(tmp_path, text):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "eval_report.csv").write_text(text)
    return ["report", "--runs", str(tmp_path / "run"), "--out", str(tmp_path / "out")]


BLOCKER = "not a directory\n"


def _blocker(tmp_path, *below):
    """An existing file at ``tmp_path/blocker``, as an ``--out`` value: the
    file itself or a path under it."""
    path = tmp_path / "blocker"
    path.write_text(BLOCKER)
    return str(path.joinpath(*below))


def _with_out(argv, out):
    argv[argv.index("--out") + 1] = out
    return argv


def _edited_checkpoint(tmp_path, checkpoint, edit, command, split):
    """``command`` on ``split`` with a copy of ``checkpoint`` whose arrays ``edit`` changed."""
    with np.load(checkpoint) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(tmp_path / "edited.npz", **arrays)
    return [command, "--checkpoint", str(tmp_path / "edited.npz"), "--data", str(split),
            "--out", str(tmp_path / "out")]


def _meta_edit(edit):
    """An ``_edited_checkpoint`` edit that applies ``edit`` to the decoded meta blob."""
    def apply(arrays):
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))
    return apply


def _copied_data(tmp_path, data, drop):
    """A copy of the dataset ``data`` without the files matching ``drop``."""
    shutil.copytree(data, tmp_path / "data", ignore=shutil.ignore_patterns(drop))
    return tmp_path / "data"


# malformed input: (exit code, argv(tmp_path, dataset root, checkpoint path))
MALFORMED = {
    "top-level-list": (EXIT_CONFIG, lambda t, d, c: _synth_argv(t, [1])),
    "synth-section-list": (EXIT_CONFIG, lambda t, d, c: _synth_argv(t, {"synth": [1, 2]})),
    "synth-section-string": (EXIT_CONFIG, lambda t, d, c: _synth_argv(t, {"synth": "ab"})),
    "train-section-pairs": (EXIT_CONFIG, lambda t, d, c: _train_argv(
        t, d, {"train": [list(pair) for pair in CONFIG["train"].items()]})),
    "synth-string-seed": (EXIT_CONFIG, lambda t, d, c: _synth_argv(
        t, {"synth": dict(CONFIG["synth"], seed="x")})),
    "synth-string-count": (EXIT_CONFIG, lambda t, d, c: _synth_argv(
        t, {"synth": dict(CONFIG["synth"], n_train="2")})),
    "synth-float-length": (EXIT_CONFIG, lambda t, d, c: _synth_argv(
        t, {"synth": dict(CONFIG["synth"], length=50.5)})),
    "synth-bool-length": (EXIT_CONFIG, lambda t, d, c: _synth_argv(
        t, {"synth": dict(CONFIG["synth"], length=True)})),
    "synth-bool-noise": (EXIT_CONFIG, lambda t, d, c: _synth_argv(
        t, {"synth": dict(CONFIG["synth"], noise_sigma=True)})),
    "synth-retired-mean-scale": (EXIT_CONFIG, lambda t, d, c: _synth_argv(
        t, {"synth": dict(CONFIG["synth"], mean_scale=2.0)})),
    "synth-negative-seed-flag": (EXIT_USAGE, lambda t, d, c: _synth_argv(
        t, CONFIG, "--seed", "-1")),
    "train-negative-seed-flag": (EXIT_USAGE, lambda t, d, c: _train_argv(
        t, d, CONFIG, "--seed", "-1")),
    "pseudo-negative-seed-flag": (EXIT_USAGE, lambda t, d, c: [
        "pseudo", "--checkpoint", str(c), "--data", str(d / "train"),
        "--out", str(t / "out"), "--seed", "-1"]),
    "train-negative-seed": (EXIT_CONFIG, lambda t, d, c: _train_argv(
        t, d, {"train": dict(CONFIG["train"], seed=-1)})),
    "data-is-a-file": (EXIT_MISSING, lambda t, d, c: [
        "eval", "--checkpoint", str(c), "--data", str(d / "meta.json"), "--out", str(t / "out")]),
    "report-non-numeric": (EXIT_DATA, lambda t, d, c: _report_argv(
        t, "metric,value\nacc,0.5\nf_m,abc\n")),
    "report-one-column": (EXIT_DATA, lambda t, d, c: _report_argv(t, "metric,value\nacc\n")),
    "report-missing-metric": (EXIT_DATA, lambda t, d, c: _report_argv(
        t, REPORT.replace("f_m,0.5\n", ""))),
    "synth-out-is-a-file": (EXIT_USAGE, lambda t, d, c: _with_out(
        _synth_argv(t, CONFIG), _blocker(t))),
    "train-out-under-a-file": (EXIT_USAGE, lambda t, d, c: _with_out(
        _train_argv(t, d, CONFIG), _blocker(t, "run"))),
    "eval-out-is-a-file": (EXIT_USAGE, lambda t, d, c: [
        "eval", "--checkpoint", str(c), "--data", str(d / "test"), "--out", _blocker(t)]),
    "report-out-under-a-file": (EXIT_USAGE, lambda t, d, c: _with_out(
        _report_argv(t, REPORT), _blocker(t, "summary.csv"))),
    "checkpoint-narrow-kernel": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, lambda a: a.update({"param.s0.l1.wd": a["param.s0.l1.wd"][..., :1]}),
        "eval", d / "test")),
    "checkpoint-missing-array": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, lambda a: a.pop("param.s0.l1.wd"), "eval", d / "test")),
    "checkpoint-short-bank": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, lambda a: a.update({"bank.p": a["bank.p"][:2]}), "pseudo", d / "train")),
    "checkpoint-float32-param": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, lambda a: a.update({"param.s0.in.w": a["param.s0.in.w"].astype(np.float32)}),
        "eval", d / "test")),
    "checkpoint-integer-bank-flags": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, lambda a: a.update({"bank.initialized": a["bank.initialized"].astype(np.int8)}),
        "pseudo", d / "train")),
    "checkpoint-version-2": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, _meta_edit(lambda m: m.update(version=2)), "eval", d / "test")),
    "checkpoint-retired-ot-tol": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, _meta_edit(lambda m: m["config"].update(ot_tol=1e-7)), "eval", d / "test")),
    "checkpoint-retired-proto-momentum": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, _meta_edit(lambda m: m["config"].update(proto_momentum=0.7)), "cams", d / "test")),
    "checkpoint-retired-kernel-width": (EXIT_DATA, lambda t, d, c: _edited_checkpoint(
        t, c, _meta_edit(lambda m: m["config"]["net"].update(kernel_width=5)), "pseudo",
        d / "train")),
    "train-data-without-meta": (EXIT_MISSING, lambda t, d, c: _train_argv(
        t, _copied_data(t, d, "meta.json"), CONFIG)),
    "eval-split-without-csv": (EXIT_DATA, lambda t, d, c: [
        "eval", "--checkpoint", str(c), "--data", str(_copied_data(t, d, "*.csv") / "test"),
        "--out", str(t / "out")]),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_has_its_exit_code(pipeline, tmp_path, capsys, case):
    _, _, data, run, _ = pipeline
    expected, argv = MALFORMED[case]
    argv = argv(tmp_path, data, run / "checkpoint.npz")
    code = main(argv)
    assert code != EXIT_INTERNAL
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith("wsseg: error:")
    assert not (tmp_path / "out").exists()  # nothing written
    blocker = tmp_path / "blocker"
    if blocker.exists():  # an --out that cannot be created is named, and nothing replaces it
        assert argv[argv.index("--out") + 1] in err
        assert blocker.read_text() == BLOCKER


def test_zero_epoch_train_writes_the_log_header_alone(pipeline, tmp_path, capsys):
    _, _, data, _, _ = pipeline
    train = dict(CONFIG["train"], epochs_max=0, epochs_init=0)
    assert main(_train_argv(tmp_path, data, {"train": train})) == 0
    log = (tmp_path / "out" / "train_log.csv").read_text()
    assert log.splitlines() == [",".join(trainer_mod.LOG_COLUMNS)]
    assert capsys.readouterr().out == "trained 0 epochs\n"  # no best-validation clause


def test_train_seed_flag_overrides_the_config_seed(tmp_path):
    data = _synth(tmp_path, "data")
    train = dict(CONFIG["train"], epochs_max=2, epochs_init=1)
    runs = []
    for name, seed, flag in (("flag", 0, ["--seed", "5"]), ("config", 5, [])):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"train": dict(train, seed=seed)}))
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / name), *flag]) == 0
        with np.load(tmp_path / name / "checkpoint.npz") as npz:
            arrays = dict(npz)
        runs.append(((tmp_path / name / "train_log.csv").read_bytes(), arrays))
    (log, arrays), (want_log, want_arrays) = runs
    assert log == want_log
    assert arrays.keys() == want_arrays.keys()
    assert all(np.array_equal(arrays[k], want_arrays[k]) for k in arrays)
    assert json.loads(str(arrays["meta"]))["config"]["seed"] == 5
