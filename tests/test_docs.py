"""The README's config example against the config dataclasses."""

import dataclasses
import json
import re
from pathlib import Path

from wsseg.losses import LossWeights
from wsseg.net import TcnConfig
from wsseg.trainer import TrainConfig

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
