"""Pinned synthetic corpus and training configurations for the acceptance
suite: C=5, D=6, T=2000, 40 train (6 held out for validation) / 10 test."""

import numpy as np

from wsseg.losses import LossWeights
from wsseg.net import TcnConfig
from wsseg.seqdata import SyntheticSpec, generate_synthetic
from wsseg.trainer import LabeledSequence, TrainConfig

CORPUS_SEED = 2024
NUM_TRAIN = 34
NUM_VAL = 6
NUM_TEST = 10


def build_corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    means = rng.normal(0.0, 1.0, size=(5, 6))
    spec = SyntheticSpec(
        num_classes=5,
        num_channels=6,
        length=2000,
        seg_len_min=400,
        seg_len_max=900,
        noise_sigma=0.8,
        segment_jitter=0.9,
        class_means=means,
    )
    items = [
        LabeledSequence(*generate_synthetic(spec, CORPUS_SEED * 100 + i))
        for i in range(NUM_TRAIN + NUM_VAL + NUM_TEST)
    ]
    train = items[:NUM_TRAIN]
    val = items[NUM_TRAIN : NUM_TRAIN + NUM_VAL]
    test = items[NUM_TRAIN + NUM_VAL :]
    return train, val, test


NET = TcnConfig(
    in_dim=6, num_classes=5, stages=1, layers_per_stage=7, feature_dim=16, projector_dim=12
)


def ablation_config(variant, seed=11, mixed_fraction=0.0):
    """The four loss formulations of the ablation, sharing one backbone."""
    weights = LossWeights(lambda_con=0.5, lambda_s=0.15, lambda_conf=0.5)
    base = dict(
        net=NET,
        loss=weights,
        epochs_max=44,
        epochs_init=22,
        lr=0.0015,
        batch_size=8,
        crop_len=1024,
        seed=seed,
        proto_k=8,
        anchor_count=64,
        eps_hard=0.5,
        ot_rho=0.1,
        ot_sigma=1.0,
        patience=100,
        mixed_fraction=mixed_fraction,
    )
    if variant == 1:  # timestamp cross-entropy only
        base["loss"] = LossWeights(lambda_con=0.0, lambda_s=0.0, lambda_conf=0.0)
        base.update(epochs_init=base["epochs_max"])
    elif variant == 2:  # + smoothing and confidence
        base["loss"] = LossWeights(lambda_con=0.0, lambda_s=0.15, lambda_conf=0.5)
        base.update(epochs_init=base["epochs_max"])
    elif variant == 3:  # + multi-label and contrast losses
        base.update(epochs_init=base["epochs_max"])
    elif variant == 4:  # full method with transport pseudo-labels
        pass
    else:
        raise ValueError(f"unknown variant {variant}")
    return TrainConfig(**base)
