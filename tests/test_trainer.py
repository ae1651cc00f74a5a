"""Training loop: determinism, resume, phases, supervision mixing."""

import copy
import dataclasses
import json
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from wsseg.losses import LossWeights
from wsseg.metrics import SCORES
from wsseg.net import TcnConfig
from wsseg.seqdata import (
    DenseLabels,
    SensorSequence,
    SyntheticSpec,
    TimestampAnnotations,
    generate_synthetic,
    sample_timestamps,
    segments_of,
)
import wsseg.losses as losses_mod
import wsseg.net as net_mod
import wsseg.trainer as trainer_mod
from wsseg.trainer import (
    CHECKPOINT_FIELDS,
    LabeledSequence,
    NonFiniteLossError,
    TrainConfig,
    TrainState,
    evaluate,
    generate_pseudo_for_sequence,
    load_checkpoint,
    make_crops,
    mix_supervision,
    new_state,
    save_checkpoint,
    train,
)

from accept_corpus import ablation_config, build_corpus
from loop_reference import make_crops_loop, mix_supervision_loop


def _corpus(n, seed, t_len=240, c=3, d=2, sigma=0.4):
    spec = SyntheticSpec(
        num_classes=c,
        num_channels=d,
        length=t_len,
        seg_len_min=30,
        seg_len_max=60,
        noise_sigma=sigma,
        class_means=np.random.default_rng(99).normal(0.0, 1.0, size=(c, d)),
    )
    items = []
    for i in range(n):
        seq, labels = generate_synthetic(spec, seed * 1000 + i)
        items.append(LabeledSequence(seq, labels))
    return items


def _config(**kw):
    base = dict(
        net=TcnConfig(
            in_dim=2, num_classes=3, stages=1, layers_per_stage=3,
            feature_dim=8, projector_dim=4,
        ),
        loss=LossWeights(lambda_con=0.3, lambda_s=0.1, lambda_conf=0.3),
        epochs_max=4,
        epochs_init=2,
        batch_size=4,
        crop_len=120,
        seed=7,
        proto_k=6,
        anchor_count=16,
        ot_max_iters=500,
        patience=50,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(epochs_init=9, epochs_max=4)
    with pytest.raises(ValueError):
        _config(lr=-1.0)
    with pytest.raises(ValueError, match="use_prototypes"):  # the pseudo phase needs them
        TrainConfig.from_dict(dict(_config(epochs_init=1, epochs_max=4).to_dict(),
                                   use_prototypes=False))
    with pytest.raises(ValueError, match="epochs_max must be >= 0"):
        _config(epochs_init=-2, epochs_max=-1)  # in order, yet no epoch would run
    assert _config(epochs_init=0, epochs_max=0).epochs_max == 0


@pytest.mark.parametrize("name, value", [
    ("patience", 0), ("ot_max_iters", 0),
    ("ot_rho", 0.0), ("ot_sigma", 0.0), ("ot_tol", 0.0), ("ot_tol", -1e-6),
    ("eps_hard", 2.0), ("eps_hard", -0.1),
    ("proto_momentum", 1.5), ("proto_momentum", -0.1), ("proto_momentum", float("nan")),
    ("seed", -1),
    ("epochs_max", 2.0), ("epochs_init", 1.0), ("batch_size", 2.5), ("batch_size", True),
    ("crop_len", "120"), ("seed", 7.0), ("proto_k", 6.0), ("anchor_count", None),
    ("ot_max_iters", 500.0), ("patience", False),
    ("use_prototypes", "no"), ("use_prototypes", 1),
    ("lr", True), ("lr", "0.001"), ("eps_hard", False),
    ("mixed_fraction", True), ("ot_tol", None),
    ("epochs_init", -3), ("epochs_max", -1),
])
def test_config_rejects_bad_settings_when_built(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig.from_dict(dict(_config().to_dict(), **{name: value}))


def test_config_accepts_numpy_integers():
    net = TcnConfig(**{k: np.int64(v) for k, v in dataclasses.asdict(_config().net).items()})
    config = _config(net=net, epochs_max=np.int32(4), batch_size=np.int64(4), seed=np.uint8(7))
    assert config.batch_size == 4 and config.net == _config().net


def test_config_dict_round_trip():
    config = _config()
    clone = TrainConfig.from_dict(config.to_dict())
    assert clone == config


def test_retired_config_keys_dropped_at_their_only_value():
    config = _config()
    stored = config.to_dict()
    old = dict(stored, pseudo_per_batch=False, normalize_cams=True,
               adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, include_background_cls=False,
               lr_factor=0.99, lr_period=100, ot_tol=1e-6, proto_momentum=0.9,
               net=dict(stored["net"], kernel_width=3))
    assert TrainConfig.from_dict(old) == config
    assert TrainConfig.from_dict(json.loads(json.dumps(old))) == config
    for key, value in (("pseudo_per_batch", True), ("normalize_cams", False),
                       ("pseudo_per_batch", 0), ("normalize_cams", 1),
                       ("adam_beta1", 0.8), ("adam_beta2", 0.99), ("adam_eps", 1e-6),
                       ("include_background_cls", True), ("include_background_cls", 0),
                       ("lr_factor", 0.5), ("lr_period", 50), ("lr_period", 100.0),
                       ("ot_tol", 1e-7), ("ot_tol", 1), ("proto_momentum", 0.7)):
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_dict(dict(stored, **{key: value}))
    for width in (5, 2, 3.0, True):
        with pytest.raises(ValueError, match="kernel_width"):
            TrainConfig.from_dict(dict(stored, net=dict(stored["net"], kernel_width=width)))


def test_constants_are_readable_but_not_settable():
    config = _config()
    assert (config.ot_tol, config.net.kernel_width) == (1e-6, 3)
    assert "ot_tol" not in config.to_dict() and "kernel_width" not in config.to_dict()["net"]
    assert len(dataclasses.fields(TrainConfig)) == 16 and len(dataclasses.fields(TcnConfig)) == 6
    for build in (lambda: _config(ot_tol=1e-7), lambda: dataclasses.replace(config, ot_tol=1e-7),
                  lambda: TcnConfig(in_dim=2, num_classes=3, kernel_width=5)):
        with pytest.raises(TypeError, match="ot_tol|kernel_width"):
            build()


def test_legacy_switch_and_temperatures_load_at_the_values_the_config_implies():
    config = _config(epochs_init=4)  # phase 1 only; contrast weighted in, so prototypes
    stored = config.to_dict()
    loss = stored["loss"]
    old = dict(stored, use_prototypes=True, loss=dict(loss, tau_trunc=4.0, tau_contrast=0.1))
    assert TrainConfig.from_dict(json.loads(json.dumps(old))) == config
    plain = _config(epochs_init=4, loss=LossWeights(lambda_con=0.0))
    assert TrainConfig.from_dict(dict(plain.to_dict(), use_prototypes=False)) == plain
    for key, bad in (("use_prototypes", dict(stored, use_prototypes=False)),
                     ("use_prototypes", dict(stored, use_prototypes=1)),
                     ("use_prototypes", dict(stored, use_prototypes=None)),
                     ("use_prototypes", dict(plain.to_dict(), use_prototypes=True)),
                     ("tau_contrast", dict(stored, loss=dict(loss, tau_contrast=0.2))),
                     ("tau_trunc", dict(stored, loss=dict(loss, tau_trunc=4)))):
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_dict(bad)


def test_shipped_configs_derive_their_prototype_switch():
    assert [ablation_config(v).use_prototypes for v in (1, 2, 3, 4)] == [False, False, True, True]
    assert ablation_config(4, mixed_fraction=0.5).use_prototypes
    assert _config().use_prototypes
    assert all(f.type is not bool for f in dataclasses.fields(TrainConfig))  # derived, not set


def test_prototypes_need_two_classes():
    one = dataclasses.replace(_config().net, num_classes=1)
    with pytest.raises(ValueError, match="num_classes"):
        _config(net=one)
    assert not _config(net=one, epochs_init=4, loss=LossWeights(lambda_con=0.0)).use_prototypes


def _rewrite_meta_config(path, **extra):
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["meta"]))
    meta["config"].update(extra)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def test_load_checkpoint_with_retired_config_keys(tmp_path):
    config = _config()
    path = tmp_path / "old.npz"
    save_checkpoint(new_state(config), path)
    _rewrite_meta_config(path, pseudo_per_batch=False, normalize_cams=True,
                         adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8,
                         include_background_cls=False, lr_factor=0.99, lr_period=100)
    assert load_checkpoint(path).config == config
    _rewrite_meta_config(path, pseudo_per_batch=True)
    with pytest.raises(ValueError, match="pseudo_per_batch"):
        load_checkpoint(path)
    _rewrite_meta_config(path, pseudo_per_batch=False, adam_eps=1e-6)
    with pytest.raises(ValueError, match="adam_eps"):
        load_checkpoint(path)
    _rewrite_meta_config(path, adam_eps=1e-8, include_background_cls=True)
    with pytest.raises(ValueError, match="include_background_cls"):
        load_checkpoint(path)
    _rewrite_meta_config(path, include_background_cls=False, lr_period=50)
    with pytest.raises(ValueError, match="lr_period"):
        load_checkpoint(path)
    net = config.to_dict()["net"]
    _rewrite_meta_config(path, lr_period=100, ot_tol=1e-6, net=dict(net, kernel_width=3))
    assert load_checkpoint(path).config == config
    _rewrite_meta_config(path, ot_tol=1e-7)
    with pytest.raises(ValueError, match="ot_tol"):
        load_checkpoint(path)
    _rewrite_meta_config(path, ot_tol=1e-6, net=dict(net, kernel_width=5))
    with pytest.raises(ValueError, match="kernel_width"):
        load_checkpoint(path)
    _rewrite_meta_config(path, net=net, proto_momentum=0.9)
    assert load_checkpoint(path).config == config
    _rewrite_meta_config(path, proto_momentum=0.7)
    with pytest.raises(ValueError, match="proto_momentum"):
        load_checkpoint(path)


def test_load_checkpoint_with_a_legacy_switch_or_temperature(tmp_path):
    config = _config()
    path = tmp_path / "old.npz"
    save_checkpoint(new_state(config), path)
    loss = config.to_dict()["loss"]
    _rewrite_meta_config(path, use_prototypes=True,
                         loss=dict(loss, tau_trunc=4.0, tau_contrast=0.1))
    assert load_checkpoint(path).config == config
    _rewrite_meta_config(path, use_prototypes=False)
    with pytest.raises(ValueError, match="use_prototypes"):
        load_checkpoint(path)
    _rewrite_meta_config(path, use_prototypes=True, loss=dict(loss, tau_contrast=0.2))
    with pytest.raises(ValueError, match="tau_contrast"):
        load_checkpoint(path)


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.npz"
    first = new_state(_config(seed=1))
    save_checkpoint(first, path)
    saved = path.read_bytes()

    def savez_then_fail(file, **arrays):
        file.write(saved[: len(saved) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(new_state(_config(seed=2)), path)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
    loaded = load_checkpoint(path)
    assert loaded.config == first.config
    for key in first.params:
        np.testing.assert_array_equal(loaded.params[key], first.params[key])


def test_checkpoint_table_covers_every_state_field():
    names = [name for _, name, _, _ in CHECKPOINT_FIELDS]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(TrainState))


def test_checkpoint_round_trips_every_field(tmp_path):
    data = _corpus(2, seed=1)
    state, _ = train(data, data[:1], _config(epochs_max=1, epochs_init=1, eps_hard=0.3))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    for name in ("params", "adam_m", "adam_v"):
        a, b = getattr(state, name), getattr(loaded, name)
        assert sorted(a) == sorted(b)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
    np.testing.assert_array_equal(loaded.bank.p, state.bank.p)
    np.testing.assert_array_equal(loaded.bank.initialized, state.bank.initialized)
    assert loaded.config.eps_hard == state.config.eps_hard
    for name in ("rng_batch", "rng_mine"):
        assert getattr(loaded, name).bit_generator.state == getattr(state, name).bit_generator.state
    for name in ("config", "adam_t", "epoch", "best_f_m", "best_epoch"):
        assert getattr(loaded, name) == getattr(state, name)
    # the generators carry on where the saved ones would have
    assert loaded.rng_batch.integers(2 ** 63) == state.rng_batch.integers(2 ** 63)


def test_new_state_is_what_train_starts_from():
    data = _corpus(2, seed=1)
    config = _config(epochs_max=1, epochs_init=1)
    a, logs_a = train(data, data[:1], config)
    b, logs_b = train(data, data[:1], config, state=new_state(config))
    assert logs_a == logs_b
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    # a deep copy carries its own generators: drawing from it leaves the original's alone
    fresh = new_state(config)
    clone = copy.deepcopy(fresh)
    first = clone.rng_batch.integers(2 ** 63)
    assert fresh.rng_batch.integers(2 ** 63) == first


def test_train_rejects_empty_sets():
    data = _corpus(2, seed=1)
    with pytest.raises(ValueError, match="train_set"):
        train([], data, _config())
    with pytest.raises(ValueError, match="val_set"):
        train(data, [], _config())


def test_train_checks_its_data_before_any_work(monkeypatch):
    calls = []
    batch = trainer_mod._train_batch
    monkeypatch.setattr(trainer_mod, "_train_batch", lambda *a: calls.append(1) or batch(*a))
    data = _corpus(3, seed=1)
    with pytest.raises(ValueError, match=r"val_set\[1\] needs 2 channels"):
        train(data, data[:1] + _corpus(1, seed=2, d=3), _config())
    wide = _corpus(1, seed=2, c=5)[0]  # labels up to 4 for a 3-class network
    assert wide.labels.labels.max() >= 3
    with pytest.raises(ValueError, match=r"train_set\[3\] .* labels in \[0, 3\)"):
        train(data + [wide], data[:1], _config())
    assert calls == []


def test_non_finite_loss_names_its_diagnostics(monkeypatch, tmp_path):
    monkeypatch.setattr(losses_mod, "combined", lambda *args: float("nan"))
    data = _corpus(2, seed=1)
    diag = tmp_path / "diag"
    with pytest.raises(NonFiniteLossError, match="diagnostics written to") as info:
        train(data, data[:1], _config(), diag_dir=str(diag))
    written = list(diag.glob("*.npz"))
    assert len(written) == 1 and str(written[0]) in str(info.value)
    with pytest.raises(NonFiniteLossError, match="no diagnostics written"):
        train(data, data[:1], _config())


@pytest.mark.parametrize("below", [(), ("diag",)])
def test_non_finite_loss_is_reported_when_diagnostics_cannot_be_written(monkeypatch, tmp_path,
                                                                       below):
    # diag_dir is an existing file, or a path under one
    monkeypatch.setattr(losses_mod, "combined", lambda *args: float("nan"))
    data = _corpus(2, seed=1)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    with pytest.warns(UserWarning, match="could not write diagnostics"):
        with pytest.raises(NonFiniteLossError, match="no diagnostics written"):
            train(data, data[:1], _config(), diag_dir=str(blocker.joinpath(*below)))
    assert blocker.read_text() == "not a directory\n"


def test_mix_supervision_counts(rng):
    labels = DenseLabels(np.repeat([0, 1, 2], 10), 3)
    ann = sample_timestamps(labels, 3)
    mixed = mix_supervision(ann, labels, 0.5, seed=11)
    pos, cls = mixed.positions, mixed.classes
    # every segment has 10 samples: 5 promoted each, plus timestamps (which
    # may or may not coincide with promoted picks)
    for c, start, stop in zip(*segments_of(labels.labels)):
        inside = (pos >= start) & (pos < stop)
        assert 5 <= inside.sum() <= 6
        np.testing.assert_array_equal(cls[inside], c)


def test_mix_supervision_extremes():
    labels = DenseLabels(np.repeat([0, 1], 12), 2)
    ann = sample_timestamps(labels, 1)
    none = mix_supervision(ann, labels, 0.0, seed=4)
    np.testing.assert_array_equal(none.positions, ann.positions)
    np.testing.assert_array_equal(none.classes, ann.classes)
    assert none.positions.dtype == none.classes.dtype == np.int64
    every = mix_supervision(ann, labels, 1.0, seed=4)
    np.testing.assert_array_equal(every.positions, np.arange(24))
    np.testing.assert_array_equal(every.classes, labels.labels)


def test_mix_supervision_matches_loop_reference(rng):
    overwritten = 0
    for trial in range(300):
        t_len = int(rng.integers(1, 120))
        runs = rng.integers(1, 25, size=t_len)
        labels = DenseLabels(np.repeat(rng.integers(0, 4, size=t_len), runs)[:t_len], 4)
        if trial % 2:
            ann = sample_timestamps(labels, int(rng.integers(1 << 30)))
        else:
            # classes need not match the labels, so a pick that lands on a
            # timestamp shows which of the two wins
            n = int(rng.integers(1, t_len + 1))
            positions = np.sort(rng.choice(t_len, size=n, replace=False))
            ann = TimestampAnnotations(positions, rng.integers(0, 4, size=n))
        fraction = float(rng.choice([0.0, 0.01, 0.5, 1.0, rng.random()]))
        seed = int(rng.integers(1 << 30))
        mixed = mix_supervision(ann, labels, fraction, seed)
        pos, cls = mixed.positions, mixed.classes
        want_pos, want_cls = mix_supervision_loop(ann, labels, fraction, seed)
        np.testing.assert_array_equal(pos, want_pos)
        np.testing.assert_array_equal(cls, want_cls)
        assert pos.dtype == cls.dtype == np.int64
        overwritten += int(np.count_nonzero(cls[np.searchsorted(pos, ann.positions)]
                                            != ann.classes))
    assert overwritten > 0


def test_make_crops_cover_and_keep_timestamps():
    labels = DenseLabels(np.repeat(np.arange(8) % 3, 40), 3)
    ann = sample_timestamps(labels, 5)
    crops = make_crops(len(labels), ann, crop_len=100)
    assert crops[0][0] == 0 and crops[-1][1] == len(labels)
    for (a, b), (c, d) in zip(crops, crops[1:]):
        assert b == c
    for start, stop in crops:
        inside = (ann.positions >= start) & (ann.positions < stop)
        assert inside.any()


def test_make_crops_matches_loop_reference(rng):
    """Short sequences, zero or one timestamp and adjacent timestamps
    included: the one array path gives the loop's crops exactly."""
    for _ in range(500):
        t_len = int(rng.integers(1, 400))
        n = int(rng.integers(0, min(t_len, 12) + 1))
        if rng.random() < 0.3:  # a run of adjacent timestamps
            first = int(rng.integers(0, t_len - n + 1))
            positions = np.arange(first, first + n)
        else:
            positions = np.sort(rng.choice(t_len, size=n, replace=False))
        ann = TimestampAnnotations(positions, np.zeros(n, dtype=np.int64))
        crop_len = int(rng.integers(1, 2 * t_len + 2))
        assert make_crops(t_len, ann, crop_len) == make_crops_loop(t_len, ann, crop_len)


def test_train_deterministic():
    data = _corpus(4, seed=1)
    val = _corpus(2, seed=5)
    state_a, logs_a = train(data, val, _config())
    state_b, logs_b = train(data, val, _config())
    assert logs_a == logs_b
    for key in state_a.params:
        np.testing.assert_array_equal(state_a.params[key], state_b.params[key])
    np.testing.assert_array_equal(state_a.bank.p, state_b.bank.p)


def test_checkpoint_resume_bit_identical(tmp_path):
    data = _corpus(4, seed=2)
    val = _corpus(2, seed=6)
    config = _config()

    state_full, logs_full = train(data, val, config)

    half = _config(epochs_max=2, epochs_init=2)
    state_half, logs_half = train(data, val, half)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state_half, path)
    resumed = load_checkpoint(path)
    for key in state_half.params:
        np.testing.assert_array_equal(resumed.params[key], state_half.params[key])
    state_cont, logs_cont = train(data, val, config, state=resumed)

    assert logs_half + logs_cont == logs_full
    for key in state_full.params:
        np.testing.assert_array_equal(state_cont.params[key], state_full.params[key])
    assert state_cont.adam_t == state_full.adam_t
    np.testing.assert_array_equal(state_cont.bank.p, state_full.bank.p)


def _resume_with_stored(tmp_path, stored):
    """Logs of an unbroken run, and of the same run resumed from a
    checkpoint whose meta also holds ``stored(state)``."""
    data = _corpus(3, seed=2)
    config = _config(epochs_max=3, epochs_init=1)
    _, logs_full = train(data, data[:1], config)
    half, logs_half = train(data, data[:1], _config(epochs_max=1, epochs_init=1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(half, path)
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["meta"]))
    meta.update(stored(half))
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    _, logs_cont = train(data, data[:1], config, state=load_checkpoint(path))
    return logs_full, logs_half + logs_cont


def test_checkpoint_with_a_stored_epochs_since_best_resumes(tmp_path):
    # checkpoints written before the count was derived from the epochs carry it
    full, resumed = _resume_with_stored(
        tmp_path, lambda state: {"epochs_since_best": state.epoch - state.best_epoch})
    assert resumed == full


def test_checkpoint_with_a_stored_lr_resumes(tmp_path):
    # checkpoints written before the rate was derived from the epoch carry it;
    # a stale value is ignored
    full, resumed = _resume_with_stored(tmp_path, lambda state: {"lr": 0.5})
    assert resumed == full


def test_resume_adopts_the_new_config(tmp_path):
    data = _corpus(3, seed=2)
    first, _ = train(data, data[:1], _config(epochs_max=2, epochs_init=2))
    config = _config(epochs_max=4, epochs_init=2)
    state, logs = train(data, data[:1], config, state=first)
    assert [r["phase"] for r in logs] == ["pseudo", "pseudo"]
    assert state.config == config
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    assert load_checkpoint(path).config == config


@pytest.mark.parametrize("name, value", [
    ("net", dataclasses.replace(_config().net, feature_dim=6)), ("seed", 8),
])
def test_resume_rejects_a_setting_the_state_was_built_with(name, value):
    data = _corpus(2, seed=1)
    state = new_state(_config())
    params = copy.deepcopy(state.params)
    with pytest.raises(ValueError, match=f"cannot change {name}"):
        train(data, data[:1], _config(**{name: value}), state=state)
    assert state.config == _config() and state.epoch == 0
    for key in params:
        np.testing.assert_array_equal(state.params[key], params[key])


def test_lr_change_takes_effect_on_resume():
    data = _corpus(3, seed=3)
    state, _ = train(data, data[:1], _config(epochs_max=1, epochs_init=1))
    moved = {}
    for lr in (0.001, 0.004):
        # one batch per epoch: one Adam step, from the same gradient in both runs
        config = _config(epochs_max=2, epochs_init=2, lr=lr, batch_size=64)
        resumed, logs = train(data, data[:1], config, state=copy.deepcopy(state))
        assert logs[0]["lr"] == lr and resumed.adam_t == state.adam_t + 1
        moved[lr] = {k: resumed.params[k] - state.params[k] for k in state.params}
    for k in state.params:
        assert np.any(moved[0.001][k] != 0.0)
        np.testing.assert_allclose(moved[0.004][k], 4.0 * moved[0.001][k], rtol=1e-9, atol=1e-15)


def test_pseudo_without_prototypes_skips_the_forward_pass(monkeypatch):
    calls = []
    forward = net_mod.forward
    monkeypatch.setattr(net_mod, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    config = _config()
    item = _corpus(1, seed=3)[0]
    ann = sample_timestamps(item.labels, 0)
    labels, plan, classes = generate_pseudo_for_sequence(item.sequence.data, ann, new_state(config))
    assert labels is None and plan is None
    np.testing.assert_array_equal(classes, np.unique(ann.classes))
    assert calls == []


def test_phase1_only_never_invokes_pseudo(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("pseudo machinery invoked")

    monkeypatch.setattr(trainer_mod, "generate_pseudo_for_sequence", boom)
    data = _corpus(3, seed=3)
    _, logs = train(data, data[:1], _config(epochs_max=2, epochs_init=2))
    assert all(record["phase"] != "pseudo" for record in logs)


def test_warmup_phase_without_prototypes():
    data = _corpus(3, seed=3)
    state, logs = train(
        data, data[:1],
        _config(epochs_max=2, epochs_init=2,
                loss=LossWeights(lambda_con=0.0, lambda_s=0.1, lambda_conf=0.3)),
    )
    assert all(record["phase"] == "warmup" for record in logs)
    assert all(record["loss_cls"] == 0.0 for record in logs)
    assert not state.bank.initialized.any()


def test_pseudo_phase_runs_and_logs_segall():
    data = _corpus(4, seed=8)
    _, logs = train(data, data[:1], _config())
    pseudo_epochs = [r for r in logs if r["phase"] == "pseudo"]
    assert len(pseudo_epochs) == 2
    assert all(r["loss_segall"] > 0.0 for r in pseudo_epochs)
    assert all(r["loss_seg"] == 0.0 for r in pseudo_epochs)


def test_pseudo_phase_keeps_timestamp_term_without_pseudo_labels(monkeypatch):
    monkeypatch.setattr(trainer_mod, "generate_pseudo_for_sequence",
                        lambda data, ann, *args: (None, None, np.unique(ann.classes)))
    data = _corpus(4, seed=8)
    _, logs = train(data, data[:1], _config())
    pseudo_epochs = [r for r in logs if r["phase"] == "pseudo"]
    assert len(pseudo_epochs) == 2
    assert all(r["loss_seg"] > 0.0 and r["loss_segall"] == 0.0 for r in pseudo_epochs)
    assert all(r["loss_cls"] > 0.0 and r["loss_con"] > 0.0 for r in pseudo_epochs)


def test_pseudo_phase_runs_under_a_narrow_order_prior():
    # five classes at sigma 0.1: the prior's far corners are below exp(-745)
    data = _corpus(3, seed=8, c=5, t_len=300)
    net = dataclasses.replace(_config().net, num_classes=5)
    config = _config(net=net, ot_sigma=0.1, ot_max_iters=5000, epochs_max=2, epochs_init=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every plan converges
        _, logs = train(data, data[:1], config)
    assert [r["phase"] for r in logs] == ["timestamp", "pseudo"]
    assert logs[-1]["loss_segall"] > 0.0


def test_sinkhorn_nonconvergence_warns_once_per_regeneration():
    data = _corpus(4, seed=8)
    with pytest.warns(UserWarning) as record:
        _, logs = train(data, data[:1], _config(ot_max_iters=1))
    messages = [str(w.message) for w in record if "Sinkhorn did not converge" in str(w.message)]
    pseudo_epochs = [r for r in logs if r["phase"] == "pseudo"]
    assert len(messages) == len(pseudo_epochs) == 2
    assert all("ot_max_iters=1 for 4 of 4 sequences" in m for m in messages)
    _, reference_logs = train(data, data[:1], _config())
    assert [sorted(r) for r in logs] == [sorted(r) for r in reference_logs]


def test_evaluate_repeatable_and_chance_level():
    data = _corpus(6, seed=9, t_len=400)
    state = new_state(_config(seed=123))
    a = evaluate(state, data)
    b = evaluate(state, data)
    assert a.as_row() == b.as_row()
    np.testing.assert_array_equal(a.per_class_f, b.per_class_f)
    # chance level holds on average over initializations
    mean_acc = np.mean([evaluate(new_state(_config(seed=s)), data).acc for s in range(10)])
    assert abs(mean_acc - 1 / 3) <= 0.1


# lengths that put a shorter sequence after a longer one on some thread at
# 1, 2 and 3 threads, so a workspace whose padding is not zeroed again shows
PREDICT_LENGTHS = (300, 280, 260, 1, 7, 40, 250, 3, 100)


def _scoring_state(dtype):
    net = TcnConfig(in_dim=2, num_classes=3, stages=2, layers_per_stage=4, feature_dim=8,
                    projector_dim=4)
    state = new_state(_config(net=net, seed=5))
    # at 3x the initial scale, stale padding moves the argmax of short
    # sequences; at 1x the second stage's near-uniform input hides it
    state.params = {k: (3.0 * v).astype(dtype) for k, v in state.params.items()}
    return state


def _sequences(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [LabeledSequence(SensorSequence(rng.standard_normal((2, t))),
                            DenseLabels(np.zeros(t, dtype=np.int64), 3)) for t in lengths]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_predict_equals_a_sequential_loop_bitwise(monkeypatch, workers, dtype):
    state = _scoring_state(dtype)
    data = _sequences(PREDICT_LENGTHS)
    want = [np.argmax(net_mod.forward(it.sequence.data, state.params, state.config.net).y_prob[-1],
                      axis=0) for it in data]
    threads = set()
    probabilities = net_mod.probabilities

    def spy(*args):
        threads.add(threading.current_thread())
        return probabilities(*args)

    monkeypatch.setattr(trainer_mod, "_cpus", lambda: workers)
    monkeypatch.setattr(net_mod, "probabilities", spy)
    got = trainer_mod.predict(state, data)
    assert len(threads) == workers
    assert len(got) == len(want)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def test_cpus_falls_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(trainer_mod.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(trainer_mod.os, "cpu_count", lambda: 3)
    assert trainer_mod._cpus() == 3
    monkeypatch.setattr(trainer_mod.os, "cpu_count", lambda: None)  # count unknown
    assert trainer_mod._cpus() == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_predict_raises_the_first_failing_sequence_and_ends_its_threads(monkeypatch, workers):
    state = _scoring_state(np.float64)
    data = _sequences(PREDICT_LENGTHS[:6])
    # sequences 1 and 2 have the wrong channel count; 1 runs on a worker thread
    for i, channels in ((1, 3), (2, 4)):
        t = data[i].sequence.num_samples
        data[i] = LabeledSequence(SensorSequence(np.ones((channels, t))), data[i].labels)
    with pytest.raises(ValueError) as first:
        net_mod.forward(data[1].sequence.data, state.params, state.config.net)
    monkeypatch.setattr(trainer_mod, "_cpus", lambda: workers)
    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        trainer_mod.predict(state, data)
    assert str(raised.value) == str(first.value)
    assert threading.active_count() == before
    assert trainer_mod.predict(state, []) == []


def _script_validation(monkeypatch, f_m):
    scripted = iter(f_m)

    def evaluate(state, data):
        f_m = next(scripted)
        return SimpleNamespace(f_m=f_m, as_row=lambda: dict(dict.fromkeys(SCORES, 0.0), f_m=f_m))

    monkeypatch.setattr(trainer_mod, "evaluate", evaluate)


def test_early_stopping(monkeypatch):
    # validation F_m per epoch: a tie does not improve, a rise resets the count
    _script_validation(monkeypatch, [0.5, 0.4, 0.6, 0.6, 0.55, 0.9, 0.9, 0.9])
    data = _corpus(2, seed=10, t_len=150)
    state, logs = train(data, data[:1], _config(epochs_max=8, epochs_init=8, patience=2))
    # patience 2: stops after the second epoch in a row without a new best
    assert [r["val_f_m"] for r in logs] == [0.5, 0.4, 0.6, 0.6, 0.55]
    assert state.epoch == 5
    assert (state.best_f_m, state.best_epoch, state.epoch - state.best_epoch) == (0.6, 3, 2)


def test_early_stopped_state_resumes_with_no_further_epoch(monkeypatch):
    _script_validation(monkeypatch, [0.5, 0.4, 0.6, 0.6, 0.55, 0.9, 0.9, 0.9])
    data = _corpus(2, seed=10, t_len=150)
    config = _config(epochs_max=8, epochs_init=8, patience=2)
    state, _ = train(data, data[:1], config)
    assert state.epoch == 5
    params = copy.deepcopy(state.params)
    state, logs = train(data, data[:1], config, state=state)
    assert logs == []
    assert state.epoch == 5
    assert all(np.array_equal(state.params[k], params[k]) for k in params)


def test_pseudo_phase_targets_are_one_hot_at_mixed_samples(monkeypatch):
    # each crop's phase-2 target, as l_seg_all sees it, beside the crop's
    # promoted positions and classes
    seen, crops = [], []
    objective, l_seg_all = trainer_mod._crop_objective, losses_mod.l_seg_all

    def crop_objective(crop, *args):
        crops.append(crop)
        return objective(crop, *args)

    def capture(y_prob, y_tilde):
        seen.append((crops[-1], y_tilde.copy()))
        return l_seg_all(y_prob, y_tilde)

    monkeypatch.setattr(trainer_mod, "_crop_objective", crop_objective)
    monkeypatch.setattr(losses_mod, "l_seg_all", capture)
    data = _corpus(4, seed=8)
    _, logs = train(data, data[:1], _config(mixed_fraction=0.5))
    assert [r["phase"] for r in logs] == ["timestamp", "timestamp", "pseudo", "pseudo"]
    assert seen
    soft = 0
    for crop, y_tilde in seen:
        positions, classes = crop.supervised.positions, crop.supervised.classes
        assert positions.size > len(crop.ann)  # more than the timestamps
        one_hot = np.zeros((y_tilde.shape[0], positions.size))
        one_hot[classes, np.arange(positions.size)] = 1.0
        np.testing.assert_array_equal(y_tilde[:, positions], one_hot)
        soft += int(np.count_nonzero(y_tilde.max(axis=0) < 1.0))
    assert soft > 0  # the unpromoted samples keep their soft pseudo-labels


def test_logged_objective_is_the_function_whose_gradient_is_applied(monkeypatch):
    # loss_total as combined logs it, differentiated numerically along a
    # direction, against the output gradients the trainer backpropagates
    captured, objective = {}, trainer_mod._crop_objective

    def capture(crop, outputs, state, y_tilde):  # the last crop of each phase
        captured[y_tilde is None] = crop, outputs, copy.deepcopy(state), y_tilde
        return objective(crop, outputs, state, y_tilde)

    monkeypatch.setattr(trainer_mod, "_crop_objective", capture)
    # two stages; at seed 6 the timestamp epochs set every prototype, so contrast runs
    net = dataclasses.replace(_config().net, stages=2)
    train(_corpus(4, seed=8), _corpus(1, seed=9), _config(net=net, epochs_max=3, epochs_init=2,
                                                          seed=6))
    monkeypatch.setattr(trainer_mod, "update_bank", lambda *args: None)  # a constant bank
    rng = np.random.default_rng(5)
    assert sorted(captured) == [False, True]
    for crop, outputs, state, y_tilde in captured.values():
        parts, grads = objective(crop, outputs, copy.deepcopy(state), y_tilde)
        assert parts["con"] > 0 and parts["conf"] > 0 and parts["smooth"] > 0
        base = [*outputs.y_prob, outputs.y_s_logits, outputs.v]
        grad = [*grads.dy_prob, grads.dy_s_logits, grads.dv]
        # relative steps keep every probability positive
        directions = [[a * rng.normal(size=a.shape) for a in base]]  # all outputs at once
        directions += [[a * rng.normal(size=a.shape) if j == i else np.zeros_like(a)
                        for j, a in enumerate(base)] for i in range(len(base))]  # one each

        for direction in directions:
            def total(eps):
                a = [b + eps * d for b, d in zip(base, direction)]
                moved = net_mod.NetworkOutputs(outputs.z, a[:-2], a[-2], a[-1])
                return objective(crop, moved, copy.deepcopy(state), y_tilde)[0]["total"]

            numeric = (total(1e-6) - total(-1e-6)) / 2e-6
            analytic = sum(float((g * d).sum()) for g, d in zip(grad, direction))
            assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)


def _dtypes(arrays):
    return {a.dtype for a in arrays if a is not None}


def test_only_the_gradient_step_runs_in_float32(monkeypatch):
    # what the network passes and the float64 readers of the parameters get,
    # over one timestamp and one pseudo epoch
    seen = {"net": set(), "grads": set(), "acc": set(), "outputs": set(), "masters": set()}
    forward_cached, backward = net_mod.forward_cached, net_mod.backward
    objective = trainer_mod._crop_objective
    pseudo, evaluate_ = trainer_mod.generate_pseudo_for_sequence, trainer_mod.evaluate

    def forward_cached_spy(x, params, config):
        seen["net"] |= _dtypes(params.values())
        return forward_cached(x, params, config)

    def backward_spy(grads, cache, params, config, acc=None):
        seen["net"] |= _dtypes(params.values())
        seen["grads"] |= _dtypes([grads.dz, grads.dy_s_logits, grads.dv, *grads.dy_prob])
        seen["acc"] |= _dtypes(acc.values())
        return backward(grads, cache, params, config, acc)

    def objective_spy(crop, outputs, state, y_tilde):
        seen["outputs"] |= _dtypes([outputs.z, outputs.y_s_logits, outputs.v, *outputs.y_prob])
        return objective(crop, outputs, state, y_tilde)

    def masters_spy(reader):
        def spy(*args):
            state = next(a for a in args if isinstance(a, TrainState))
            seen["masters"] |= _dtypes(state.params.values())
            return reader(*args)
        return spy

    monkeypatch.setattr(net_mod, "forward_cached", forward_cached_spy)
    monkeypatch.setattr(net_mod, "backward", backward_spy)
    monkeypatch.setattr(trainer_mod, "_crop_objective", objective_spy)
    monkeypatch.setattr(trainer_mod, "generate_pseudo_for_sequence", masters_spy(pseudo))
    monkeypatch.setattr(trainer_mod, "evaluate", masters_spy(evaluate_))
    data = _corpus(4, seed=8)
    state, logs = train(data, data[:1], _config(epochs_max=2, epochs_init=1))
    assert [r["phase"] for r in logs] == ["timestamp", "pseudo"]
    assert logs[1]["loss_segall"] > 0.0  # the pseudo epoch trained on its labels
    f32, f64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}
    assert seen == {"net": f32, "grads": f32, "acc": f64, "outputs": f64, "masters": f64}
    for arrays in (state.params, state.adam_m, state.adam_v):
        assert _dtypes(arrays.values()) == f64
    assert state.bank.p.dtype == np.float64


def _relu_masks(cache):
    return [a > 0.0 for relus in cache.relu_lists for a in relus] + [cache.proj_hidden > 0.0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_batch_gradient_is_within_rounding_of_float64(monkeypatch, seed):
    # a batch of eight T=1024 acceptance crops through the acceptance network
    # at init seed ``seed``, each with fixed output gradients: the gradient
    # _train_batch hands to Adam against the float64 passes' on the same crops
    config = ablation_config(4, seed=seed)
    state = new_state(config)
    data = build_corpus()[0][:config.batch_size]
    batch = [trainer_mod._Crop(i, 0, 1024, None, None, None) for i in range(len(data))]

    def output_grads(crop, outputs):
        g = np.random.default_rng([seed, crop.seq_idx])
        return net_mod.OutputGrads(dy_prob=[g.normal(size=y.shape) for y in outputs.y_prob],
                                   dy_s_logits=g.normal(size=outputs.y_s_logits.shape),
                                   dv=g.normal(size=outputs.v.shape))

    applied, caches, forward_cached = {}, [], net_mod.forward_cached

    def forward_cached_spy(*args):
        outputs, cache = forward_cached(*args)
        caches.append(cache)
        return outputs, cache

    monkeypatch.setattr(net_mod, "forward_cached", forward_cached_spy)
    monkeypatch.setattr(trainer_mod, "_crop_objective", lambda crop, outputs, *args: (
        dict.fromkeys(trainer_mod.LOSS_KEYS, 0.0), output_grads(crop, outputs)))
    monkeypatch.setattr(trainer_mod, "_adam_step", lambda state, grads: applied.update(grads))
    trainer_mod._train_batch(batch, data, state, [None] * len(data), None)

    exact = {k: np.zeros_like(v) for k, v in state.params.items()}
    for crop, cache32 in zip(batch, caches, strict=True):
        x = data[crop.seq_idx].sequence.data[:, crop.start : crop.stop]
        outputs, cache = forward_cached(x, state.params, config.net)
        # a pre-activation that rounds across zero changes the gradient by more
        # than rounding; these crops have none, so the bound below is rounding's
        for m32, m64 in zip(_relu_masks(cache32), _relu_masks(cache), strict=True):
            np.testing.assert_array_equal(m32, m64)
        net_mod.backward(output_grads(crop, outputs), cache, state.params, config.net, exact)
    got = np.concatenate([applied[k].ravel() * len(batch) for k in exact])
    want = np.concatenate([v.ravel() for v in exact.values()])
    assert got.dtype == np.float64
    error = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert error <= 64 * np.finfo(np.float32).eps


@pytest.mark.parametrize("edit, key, what", [
    (lambda a: a.update({"param.s0.l1.wd": a["param.s0.l1.wd"][..., :1]}), "param.s0.l1.wd",
     "shape"),
    (lambda a: a.pop("adam_m.s0.l1.wd"), "adam_m.s0.l1.wd", "shape"),
    (lambda a: a.update({"adam_v.extra": np.zeros(2)}), "adam_v.extra", "shape"),
    (lambda a: a.update({"bank.p": a["bank.p"][:2]}), "bank.p", "shape"),
    (lambda a: a.update({"bank.initialized": a["bank.initialized"][:2]}), "bank.initialized",
     "shape"),
    (lambda a: a.update({"param.s0.in.w": a["param.s0.in.w"].astype(np.float32)}),
     "param.s0.in.w", "dtype float32"),
    (lambda a: a.update({"adam_v.ml.b": a["adam_v.ml.b"].astype(np.float32)}), "adam_v.ml.b",
     "dtype float32"),
    (lambda a: a.update({"bank.p": a["bank.p"].astype(np.float16)}), "bank.p", "dtype float16"),
    (lambda a: a.update({"bank.initialized": a["bank.initialized"].astype(np.int8)}),
     "bank.initialized", "dtype int8"),
], ids=["narrow-kernel", "missing-moment", "extra-moment", "short-bank", "short-initialized",
        "float32-param", "float32-moment", "float16-bank", "integer-initialized"])
def test_checkpoint_arrays_that_do_not_fit_its_config_are_refused(tmp_path, edit, key, what):
    save_checkpoint(new_state(_config()), tmp_path / "ok.npz")
    with np.load(tmp_path / "ok.npz") as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(ValueError, match=f"checkpoint array {key} has {what}"):
        load_checkpoint(tmp_path / "bad.npz")
