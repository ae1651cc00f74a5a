"""The README's config example and train-log columns against the code."""

import dataclasses
import json
import re
from pathlib import Path

from wsseg.cli import main
from wsseg.losses import LossWeights
from wsseg.net import TcnConfig
from wsseg.seqdata import SyntheticSpec, generate_synthetic
from wsseg.trainer import LabeledSequence, TrainConfig, train

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_example():
    blocks = re.findall(r"```jsonc\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "expected one jsonc config example in the README"
    return json.loads(re.sub(r"//[^\n]*", "", blocks[0]))


def _names(cls):
    return sorted(f.name for f in dataclasses.fields(cls))


def test_readme_train_example_names_every_option():
    section = _config_example()["train"]
    config = TrainConfig.from_dict(section)
    assert sorted(section) == _names(TrainConfig)
    assert sorted(section["net"]) == _names(TcnConfig)
    assert sorted(section["loss"]) == _names(LossWeights)
    assert config.to_dict() == section


def test_readme_synth_example_runs_with_and_without_seed(tmp_path):
    synth = dict(_config_example()["synth"], n_train=1, n_val=1, n_test=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": synth}))
    for out, extra, seed in (("own", [], synth["seed"]), ("flag", ["--seed", "4"], 4)):
        argv = ["synth", "--config", str(config), "--out", str(tmp_path / out)] + extra
        assert main(argv) == 0
        assert json.loads((tmp_path / out / "meta.json").read_text())["seed"] == seed
    sequence = Path("train", "seq_000.csv")
    assert (tmp_path / "own" / sequence).read_bytes() != (tmp_path / "flag" / sequence).read_bytes()


def test_readme_lists_the_train_log_columns():
    listed = re.search(r"Its columns, in order:\n\n(.*?)\n\n", README.read_text(), flags=re.S)
    spec = SyntheticSpec(num_classes=3, num_channels=2, length=120, seg_len_min=30,
                         seg_len_max=50, noise_sigma=0.5)
    data = [LabeledSequence(*generate_synthetic(spec, seed)) for seed in (1, 2)]
    net = TcnConfig(in_dim=2, num_classes=3, stages=1, layers_per_stage=2, feature_dim=4,
                    projector_dim=4)
    config = TrainConfig(net=net, epochs_max=1, epochs_init=1, batch_size=2, crop_len=120,
                         proto_k=4, anchor_count=8)
    _, logs = train(data, data[:1], config)
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(logs[0])
