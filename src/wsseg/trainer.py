"""Two-phase training loop: timestamp-only supervision first, then dense
pseudo-labels regenerated every epoch from order-preserving transport.

Phase 1 (epoch < epochs_init) optimizes the timestamp objective: per-stage
cross-entropy at annotated samples plus smoothing and confidence
penalties, and, with prototypes (``TrainConfig.use_prototypes``), the
multi-label and sample-to-prototype contrastive terms. Phase 2 swaps the
timestamp cross-entropy for a dense soft cross-entropy against
pseudo-labels; a sequence without pseudo-labels (some annotated class has
no initialized prototype) keeps the timestamp term. Training is deterministic for a
fixed seed, checkpointable, and exactly resumable.

A run's settings have one home, ``TrainState.config``: ``train`` sets
it, the helpers read it, and a checkpoint records it.

The parameters, Adam moments and prototypes are float64, and so is a
checkpoint. Only the gradient step's network passes run in float32: each
batch casts the parameters to a float32 working copy, the network outputs
up to float64 for the objective, and its output gradients down to float32
for ``net.backward``; the crops' gradients add up in float64. Validation
and pseudo-labels run the float64 parameters.
"""

import contextlib
import json
import os
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import cam as cam_mod
from . import contrast as contrast_mod
from . import losses as losses_mod
from . import net as net_mod
from . import otrans as otrans_mod
from . import proto as proto_mod
from . import pseudo as pseudo_mod
from .metrics import SCORES, evaluate_many
from .net import TcnConfig, check_fields
from .losses import LossWeights
from .proto import PrototypeBank, estimate_prototype, update_bank
from .seqdata import (  # LabeledSequence: re-exported, the data type train takes
    LabeledSequence,
    TimestampAnnotations,
    sample_timestamps,
    segments_of,
    sequence_multilabel,
)

CHECKPOINT_VERSION = 1


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# The loss parts of a crop, a batch and an epoch, in train-log column order
# (``loss_<key>``). Every sum of them starts at 0.0 for each key, so a term
# that did not run adds 0.0 and logs 0.0.
LOSS_KEYS = ("total", "seg", "segall", "cls", "con", "smooth", "conf")

# The train log's columns, in order: the keys of each epoch's record.
LOG_COLUMNS = ("epoch", "phase", "lr", *(f"loss_{key}" for key in LOSS_KEYS),
               *(f"val_{key}" for key in SCORES))


def drop_retired(section, retired):
    """Remove each key of ``retired`` from the config dict ``section``. A
    retired key may only hold its one value, of the same type (0 == False,
    yet 0 is not the retired boolean); ``ValueError`` names it otherwise."""
    for key, only in retired.items():
        if key in section and (type(v := section.pop(key)), v) != (type(only), only):
            raise ValueError(f"config key {key!r} is retired; only {json.dumps(only)} is supported")


class NonFiniteLossError(RuntimeError):
    """Training hit a non-finite loss. When ``train`` got a ``diag_dir``,
    the crop's inputs and outputs were written there as an ``.npz`` and the
    message names the file; otherwise it says that none were written."""


@dataclass
class TrainConfig:
    net: TcnConfig
    loss: LossWeights = field(default_factory=LossWeights)
    epochs_max: int = 50
    epochs_init: int = 30
    lr: float = 0.001
    batch_size: int = 8
    crop_len: int = 512
    seed: int = 0
    proto_k: int = 8
    anchor_count: int = 64
    ot_rho: float = 0.1
    ot_sigma: float = 1.0
    ot_max_iters: int = 5000
    eps_hard: float = 0.5
    mixed_fraction: float = 0.0
    patience: int = 20
    ot_tol = 1e-6  # Sinkhorn's marginal tolerance; not a field

    def __post_init__(self):
        check_fields(self)
        for name in ("epochs_max", "epochs_init", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs_init > self.epochs_max:
            raise ValueError("epochs_init must be <= epochs_max")
        if self.use_prototypes and self.net.num_classes < 2:
            raise ValueError("prototypes need num_classes >= 2: class 0 is the background")
        for name in ("lr", "ot_rho", "ot_sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("eps_hard", "mixed_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("batch_size", "crop_len", "proto_k", "anchor_count", "patience",
                     "ot_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def use_prototypes(self):
        """CAMs, L_cls and the prototype bank run when contrast is weighted
        in or a pseudo-label phase follows."""
        return self.loss.lambda_con > 0 or self.epochs_init < self.epochs_max

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        net, loss = dict(d.pop("net")), dict(d.pop("loss", {}))
        for section, retired in ((d, RETIRED_KEYS), (net, RETIRED_NET_KEYS),
                                 (loss, RETIRED_LOSS_KEYS)):
            drop_retired(section, retired)
        config = cls(net=TcnConfig(**net), loss=LossWeights(**loss),
                     **{k: v for k, v in d.items() if k != "use_prototypes"})
        implied = config.use_prototypes
        stored = d.get("use_prototypes", implied)
        if type(stored) is not bool or stored != implied:
            raise ValueError(f"config key 'use_prototypes' is retired; this config implies"
                             f" {json.dumps(implied)}")
        return config

    def to_dict(self):
        return asdict(self)


# Retired config keys and the one value each could still hold, at the top
# level and in the ``net`` and ``loss`` sections: older checkpoints and
# configs carry them, and from_dict drops them. A stored ``use_prototypes``
# must be the value the rest of its config implies.
RETIRED_KEYS = {"pseudo_per_batch": False, "normalize_cams": True,
                "adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS,
                "include_background_cls": False, "lr_factor": 0.99, "lr_period": 100,
                "ot_tol": TrainConfig.ot_tol, "proto_momentum": proto_mod.MOMENTUM}
RETIRED_NET_KEYS = {"kernel_width": TcnConfig.kernel_width}
RETIRED_LOSS_KEYS = {"tau_trunc": losses_mod.TAU_TRUNC, "tau_contrast": contrast_mod.TAU}


@dataclass
class TrainState:
    config: TrainConfig  # the config that last trained the state
    params: dict
    bank: PrototypeBank
    adam_m: dict
    adam_v: dict
    adam_t: int
    epoch: int  # completed epochs
    rng_batch: np.random.Generator  # crop order
    rng_mine: np.random.Generator  # contrast-mining seeds
    best_f_m: float
    best_epoch: int  # early stopping counts the epochs since it


def _streams(seed):
    """A run's five independent seed streams: parameter init, timestamps,
    supervision mixing, crop order and contrast mining."""
    return np.random.SeedSequence(seed).spawn(5)


def new_state(config):
    """The untrained state a run of ``config`` starts from."""
    ss_init, _, _, ss_batch, ss_mine = _streams(config.seed)
    params = net_mod.init_params(config.net, ss_init)
    bank = PrototypeBank(config.net.num_classes, config.net.projector_dim)
    moments = [{k: np.zeros_like(v) for k, v in params.items()} for _ in range(2)]
    # positional, in field order
    return TrainState(config, params, bank, *moments, 0, 0,
                      np.random.default_rng(ss_batch), np.random.default_rng(ss_mine), -1.0, 0)


def training_annotations(data_set, seed):
    """The timestamps a run at ``seed`` annotates ``data_set`` with: one
    per segment of each sequence's dense labels."""
    rng = np.random.default_rng(_streams(seed)[1])
    return [sample_timestamps(item.labels, int(rng.integers(2 ** 63))) for item in data_set]


@dataclass
class _Crop:
    seq_idx: int
    start: int
    stop: int  # exclusive
    ann: TimestampAnnotations  # the timestamps in the crop, rebased to it
    supervised: TimestampAnnotations  # the mix_supervision samples in the crop, rebased
    multilabel: np.ndarray


def _rebase(ann, start, stop):
    """The annotations of ``ann`` in ``[start, stop)``, counted from ``start``."""
    inside = (ann.positions >= start) & (ann.positions < stop)
    return TimestampAnnotations(ann.positions[inside] - start, ann.classes[inside])


def mix_supervision(annotations, labels, fraction, seed):
    """Every supervised sample of a sequence: its timestamps, and
    floor(fraction * length) uniformly chosen samples of every segment,
    promoted to ground truth. ``fraction`` is ``TrainConfig.mixed_fraction``,
    checked in [0, 1] there; at 0 nothing is drawn and the timestamps return."""
    rng = np.random.default_rng(seed)
    supervised = np.full(len(labels), -1, dtype=np.int64)  # class per sample, -1 for none
    supervised[annotations.positions] = annotations.classes
    for c, start, stop in zip(*segments_of(labels.labels)):
        k = int(np.floor(fraction * (stop - start)))
        if k == 0:
            continue
        supervised[rng.choice(np.arange(start, stop), size=k, replace=False)] = c
    positions = np.flatnonzero(supervised >= 0)
    return TimestampAnnotations(positions, supervised[positions])


def make_crops(t_len, annotations, crop_len):
    """Contiguous crop windows whose cuts sit at inter-timestamp midpoints,
    so no crop separates a timestamp from both of its adjacent intervals."""
    positions = annotations.positions  # int64
    cuts, start = [], 0
    for mid in ((positions[:-1] + positions[1:]) // 2 + 1).tolist():
        if mid - start >= crop_len:
            cuts.append((start, mid))
            start = mid
    cuts.append((start, t_len))
    return cuts


def generate_pseudo_for_sequence(data, annotations, state):
    """Full-sequence pseudo-labels via order-preserving transport, from the
    network, prototype bank and transport settings of ``state``.

    Returns (PseudoLabels | None, TransportPlan | None, classes_present);
    None when some class in the annotations has no initialized prototype.
    """
    config, bank = state.config, state.bank
    classes_present = np.unique(annotations.classes)
    if not bank.initialized[classes_present].all():
        return None, None, classes_present
    outputs = net_mod.forward(data, state.params, config.net)
    vn, _ = net_mod.l2_normalize_columns(outputs.v)
    plan = otrans_mod.solve_order_preserving(
        vn.T,
        bank.p[classes_present],
        rho=config.ot_rho,
        sigma=config.ot_sigma,
        max_iters=config.ot_max_iters,
        tol=config.ot_tol,
    )
    t_len = data.shape[1]
    q_full = np.zeros((t_len, config.net.num_classes))
    q_full[:, classes_present] = plan.q
    labels = pseudo_mod.generate(q_full, annotations, config.eps_hard)
    return labels, plan, classes_present


def train(train_set, val_set, config, state=None, diag_dir=None):
    """Run (or resume) training; returns the final state and per-epoch log
    records. Two runs with identical seeds and data produce identical logs.

    A resumed ``state`` adopts ``config``, which must keep its ``net`` and
    ``seed``: ``ValueError`` otherwise, or, before any work, when
    ``train_set`` or ``val_set`` is empty or holds a sequence without
    ``in_dim`` channels or with a label outside ``[0, num_classes)``. A
    non-finite loss raises ``NonFiniteLossError``; with a ``diag_dir`` the
    offending crop's diagnostics are first written there as an ``.npz``,
    without one none are written.
    """
    c, d = config.net.num_classes, config.net.in_dim
    for name, data_set in (("train_set", train_set), ("val_set", val_set)):
        if not data_set:
            raise ValueError(f"{name} is empty")
        for i, item in enumerate(data_set):
            labels = item.labels.labels
            if item.sequence.data.shape[0] != d or labels.min() < 0 or labels.max() >= c:
                raise ValueError(f"{name}[{i}] needs {d} channels and labels in [0, {c})")
    if state is None:
        state = new_state(config)
    for name in ("net", "seed"):  # new_state consumed them
        if getattr(config, name) != getattr(state.config, name):
            raise ValueError(f"a resumed run cannot change {name}")
    state.config = config
    annotations = training_annotations(train_set, config.seed)
    mix_rng = np.random.default_rng(_streams(config.seed)[2])
    supervised, crops = [], []
    for idx, (item, ann) in enumerate(zip(train_set, annotations)):
        supervised.append(mix_supervision(ann, item.labels, config.mixed_fraction,
                                          int(mix_rng.integers(2 ** 63))))
        for start, stop in make_crops(item.sequence.num_samples, ann, config.crop_len):
            crop_ann = _rebase(ann, start, stop)
            crops.append(_Crop(idx, start, stop, crop_ann, _rebase(supervised[idx], start, stop),
                               sequence_multilabel(crop_ann, c)))

    logs = []
    for epoch in range(state.epoch, config.epochs_max):
        if epoch - state.best_epoch >= config.patience:
            break
        phase = "pseudo" if epoch >= config.epochs_init else (
            "timestamp" if config.use_prototypes else "warmup"
        )
        targets = (_regenerate_pseudo(train_set, annotations, supervised, state) if phase == "pseudo"
                   else [None] * len(train_set))  # None: the sequence keeps L_seg

        order = state.rng_batch.permutation(len(crops))
        starts = range(0, order.size, config.batch_size)
        totals = dict.fromkeys(LOSS_KEYS, 0.0)
        for b0 in starts:
            batch = [crops[i] for i in order[b0 : b0 + config.batch_size]]
            parts_mean = _train_batch(batch, train_set, state, targets, diag_dir)
            for key in LOSS_KEYS:
                totals[key] += parts_mean[key]

        state.epoch = epoch + 1

        report = evaluate(state, val_set)
        if report.f_m > state.best_f_m:
            state.best_f_m = report.f_m
            state.best_epoch = state.epoch

        row = (state.epoch, phase, config.lr,
               *(totals[key] / len(starts) for key in LOSS_KEYS), *report.as_row().values())
        logs.append(dict(zip(LOG_COLUMNS, row, strict=True)))
    return state, logs


def _regenerate_pseudo(train_set, annotations, supervised, state):
    """One phase-2 target per training sequence: its dense pseudo-labels,
    one-hot at every ``mix_supervision`` sample, or None where the sequence
    keeps L_seg."""
    targets = []
    unconverged = solved = 0
    for item, ann, sup in zip(train_set, annotations, supervised):
        labels, plan, _ = generate_pseudo_for_sequence(item.sequence.data, ann, state)
        if plan is not None:
            solved += 1
            unconverged += not plan.converged
        if labels is not None:
            labels.y[:, sup.positions] = 0.0
            labels.y[sup.classes, sup.positions] = 1.0
        targets.append(None if labels is None else labels.y)
    if unconverged:
        warnings.warn(
            f"Sinkhorn did not converge within ot_max_iters={state.config.ot_max_iters} for"
            f" {unconverged} of {solved} sequences; their pseudo-labels come from the"
            " last iterate"
        )
    return targets


def _cast(heads, dtype):
    """A copy of ``heads``, a ``NetworkOutputs`` or ``OutputGrads``, with
    every array in it cast to ``dtype``; Nones stay."""
    def cast(value):
        if isinstance(value, list):
            return [cast(v) for v in value]
        return None if value is None else value.astype(dtype)

    return type(heads)(**{name: cast(value) for name, value in vars(heads).items()})


def _train_batch(batch, train_set, state, targets, diag_dir):
    """One Adam step on the batch's mean gradient; returns the batch mean of
    each loss part. The network passes run on a float32 copy of the
    parameters; the objective and the gradient sum are float64."""
    config = state.config
    params = {k: v.astype(np.float32) for k, v in state.params.items()}
    grad_sum = {k: np.zeros_like(v) for k, v in state.params.items()}
    parts_sum = dict.fromkeys(LOSS_KEYS, 0.0)
    for crop in batch:
        x = train_set[crop.seq_idx].sequence.data[:, crop.start : crop.stop]
        outputs, cache = net_mod.forward_cached(x, params, config.net)
        outputs = _cast(outputs, np.float64)
        target = targets[crop.seq_idx]
        y_tilde = None if target is None else target[:, crop.start : crop.stop]
        parts, grads = _crop_objective(crop, outputs, state, y_tilde)
        if not np.isfinite(parts["total"]):
            path = _dump_diagnostics(diag_dir, crop, x, outputs, parts)
            where = f"diagnostics written to {path}" if path else "no diagnostics written"
            raise NonFiniteLossError(
                f"non-finite loss at epoch {state.epoch + 1}, sequence {crop.seq_idx}"
                f" crop [{crop.start}, {crop.stop}); {where}"
            )
        net_mod.backward(_cast(grads, np.float32), cache, params, config.net, grad_sum)
        for key in LOSS_KEYS:
            parts_sum[key] += parts[key]

    n = len(batch)
    _adam_step(state, {k: v / n for k, v in grad_sum.items()})
    return {k: v / n for k, v in parts_sum.items()}


def _crop_objective(crop, outputs, state, y_tilde):
    """The crop's loss parts, one per ``LOSS_KEYS`` entry, and the gradient
    of its objective with respect to the network outputs. ``y_tilde`` is
    the crop's dense target, or None for the timestamp term. With
    prototypes, the crop's CAMs also update the prototype bank, and contrast
    mining draws its seed from ``state.rng_mine``."""
    config, params = state.config, state.params
    weights, stages = config.loss, config.net.stages
    parts = dict.fromkeys(LOSS_KEYS, 0.0)
    dy = [np.zeros_like(p) for p in outputs.y_prob]
    for s, y in enumerate(outputs.y_prob):
        if y_tilde is not None:
            terms = [("segall", losses_mod.l_seg_all(y, y_tilde))]
        else:
            terms = [("seg", losses_mod.l_seg_timestamps(
                y, crop.supervised.positions, crop.supervised.classes
            ))]
        if weights.weight("smooth") > 0 and y.shape[1] >= 2:
            terms.append(("smooth", losses_mod.l_smooth(y, losses_mod.TAU_TRUNC)))
        if weights.weight("conf") > 0 and len(crop.ann) >= 2:
            terms.append(("conf", losses_mod.l_conf(y, crop.ann.positions, crop.ann.classes)))
        for key, (val, g) in terms:
            parts[key] += val / stages
            dy[s] += weights.weight(key) * g / stages

    dy_s_logits = dv = None
    if config.use_prototypes:
        parts["cls"], d_logits = losses_mod.l_cls(outputs.y_s_logits, crop.multilabel)
        dy_s_logits = weights.weight("cls") * d_logits

        cams = cam_mod.compute_cams(outputs.z, params["ml.w"])
        mask_classes = cam_mod.pseudo_mask(cams)
        cam_weights = cam_mod.normalize_cams(cams)
        vn, norms = net_mod.l2_normalize_columns(outputs.v)
        for cls_idx in range(config.net.num_classes):
            member = mask_classes == cls_idx
            member[crop.ann.positions[crop.ann.classes == cls_idx]] = True
            est = estimate_prototype(
                vn, cam_weights[cls_idx], np.flatnonzero(member), config.proto_k
            )
            if est is not None:
                update_bank(state.bank, cls_idx, est, proto_mod.MOMENTUM)

        if weights.weight("con") > 0:
            mined = contrast_mod.mine_pairs(
                vn,
                mask_classes,
                outputs.y_prob[-1],
                crop.ann,
                state.bank,
                seed=int(state.rng_mine.integers(2 ** 63)),
                anchor_count=config.anchor_count,
            )
            if mined:
                parts["con"], d_vn = contrast_mod.info_nce(mined, vn, state.bank, contrast_mod.TAU)
                dv = net_mod.l2_normalize_backward(weights.weight("con") * d_vn, vn, norms)

    parts["total"] = losses_mod.combined(parts, weights)
    return parts, net_mod.OutputGrads(dz=None, dy_prob=dy, dy_s_logits=dy_s_logits, dv=dv)


def _adam_step(state, grads):
    state.adam_t += 1
    b1, b2, eps, t, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.adam_t, state.config.lr
    for k, g in grads.items():
        state.adam_m[k] = b1 * state.adam_m[k] + (1 - b1) * g
        state.adam_v[k] = b2 * state.adam_v[k] + (1 - b2) * g * g
        m_hat = state.adam_m[k] / (1 - b1 ** t)
        v_hat = state.adam_v[k] / (1 - b2 ** t)
        state.params[k] = state.params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)


def _dump_diagnostics(diag_dir, crop, x, outputs, parts):
    """Write the crop's diagnostics; returns the path, or None if nothing
    was written."""
    if diag_dir is None:
        return None
    path = os.path.join(diag_dir, f"diverged_seq{crop.seq_idx}_{crop.start}_{crop.stop}.npz")
    try:
        os.makedirs(diag_dir, exist_ok=True)
        np.savez(
            path,
            x=x,
            y_prob_last=outputs.y_prob[-1],
            v=outputs.v,
            parts=json.dumps({k: float(v) for k, v in parts.items()}),
        )
    except OSError:  # diagnostics are best-effort
        warnings.warn(f"could not write diagnostics to {path}")
        return None
    return path


def predict(state, data_set):
    """Argmax of the final stage per sample, one array per sequence."""
    preds = []
    for item in data_set:
        prob = net_mod.probabilities(item.sequence.data, state.params, state.config.net)[-1]
        preds.append(np.argmax(prob, axis=0))
    return preds


def evaluate(state, data_set):
    """``predict``, scored against dense labels."""
    pairs = [(pred, item.labels.labels) for pred, item in zip(predict(state, data_set), data_set)]
    return evaluate_many(pairs, state.config.net.num_classes)


def _as_is(value):
    return value


def _generator(bit_state):
    rng = np.random.default_rng()
    rng.bit_generator.state = bit_state
    return rng


def _bank(arrays):
    bank = PrototypeBank(*arrays["p"].shape)
    bank.p, bank.initialized = arrays["p"], arrays["initialized"]
    return bank


# Where each TrainState field lives in a checkpoint, in file order:
# (key, field, encode, decode). A key ending in "." prefixes one array per
# entry of the encoded dict; any other key is an entry of the JSON meta
# blob. decode takes the stored value alone.
CHECKPOINT_FIELDS = (
    ("param.", "params", _as_is, _as_is),
    ("adam_m.", "adam_m", _as_is, _as_is),
    ("adam_v.", "adam_v", _as_is, _as_is),
    ("bank.", "bank", lambda bank: {"p": bank.p, "initialized": bank.initialized}, _bank),
    ("adam_t", "adam_t", _as_is, _as_is),
    ("epoch", "epoch", _as_is, _as_is),
    ("rng_batch_state", "rng_batch", lambda rng: rng.bit_generator.state, _generator),
    ("rng_mine_state", "rng_mine", lambda rng: rng.bit_generator.state, _generator),
    ("best_f_m", "best_f_m", _as_is, _as_is),
    ("best_epoch", "best_epoch", _as_is, _as_is),
    ("config", "config", TrainConfig.to_dict, TrainConfig.from_dict),
)


def _encode(state):
    """The arrays and the JSON meta entries a checkpoint stores for ``state``."""
    arrays, meta = {}, {"version": CHECKPOINT_VERSION}
    for key, name, encode, _ in CHECKPOINT_FIELDS:
        value = encode(getattr(state, name))
        if key.endswith("."):
            arrays.update((key + k, v) for k, v in value.items())
        else:
            meta[key] = value
    return arrays, meta


def save_checkpoint(state, path):
    """Single-file npz dump of every field of ``state`` (schema documented
    in the README). The file is written beside ``path`` and then renamed
    over it, so an interrupted save leaves any previous checkpoint whole."""
    arrays, meta = _encode(state)
    arrays["meta"] = np.array(json.dumps(meta))
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:  # through a handle, savez adds no ".npz"
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """The state saved at ``path``. ``ValueError`` names the first array
    that is missing, extra, or of another shape or dtype than in a new
    state of the stored config (``new_state``)."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    meta = json.loads(str(arrays.pop("meta")))
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    config = TrainConfig.from_dict(meta["config"])
    want, _ = _encode(new_state(config))
    for key in sorted(want.keys() | arrays.keys()):
        for what in ("shape", "dtype"):  # a missing or extra key fails on its shape
            got, need = (getattr(a[key], what) if key in a else None for a in (arrays, want))
            if got != need:
                raise ValueError(f"checkpoint array {key} has {what} {got}, needs {need}")
    fields = {"config": config}
    for key, name, _, decode in CHECKPOINT_FIELDS:
        if name in fields:
            continue
        if key.endswith("."):
            raw = {k[len(key):]: v for k, v in arrays.items() if k.startswith(key)}
        else:
            raw = meta[key]
        fields[name] = decode(raw)
    return TrainState(**fields)
