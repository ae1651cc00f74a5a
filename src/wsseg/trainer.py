"""Two-phase training loop: timestamp-only supervision first, then dense
pseudo-labels regenerated every epoch from order-preserving transport.

Phase 1 (epoch < epochs_init) optimizes the timestamp objective: per-stage
cross-entropy at annotated samples plus smoothing and confidence
penalties, and, when prototypes are enabled, the multi-label and
sample-to-prototype contrastive terms. Phase 2 swaps the timestamp
cross-entropy for a dense soft cross-entropy against pseudo-labels.
Training is deterministic for a fixed seed, checkpointable, and exactly
resumable.
"""

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
from . import pseudo as pseudo_mod
from .metrics import evaluate_many
from .net import TcnConfig
from .losses import LossWeights
from .proto import PrototypeBank, estimate_prototype, update_bank
from .seqdata import (
    DenseLabels,
    SensorSequence,
    TimestampAnnotations,
    sample_timestamps,
    segments_of,
    sequence_multilabel,
)

CHECKPOINT_VERSION = 1


# Retired config keys and the one value each could still hold: older
# checkpoints and configs carry them, and from_dict drops them.
RETIRED_KEYS = {"pseudo_per_batch": False, "normalize_cams": True}


class NonFiniteLossError(RuntimeError):
    """Training hit a non-finite loss. When ``train`` got a ``diag_dir``,
    the crop's inputs and outputs were written there as an ``.npz`` and the
    message names the file; otherwise it says that none were written."""


@dataclass
class LabeledSequence:
    sequence: SensorSequence
    labels: DenseLabels


@dataclass
class TrainConfig:
    net: TcnConfig
    loss: LossWeights = field(default_factory=LossWeights)
    epochs_max: int = 50
    epochs_init: int = 30
    lr: float = 0.001
    lr_factor: float = 0.99
    lr_period: int = 100
    batch_size: int = 8
    crop_len: int = 512
    seed: int = 0
    use_prototypes: bool = True
    proto_k: int = 8
    proto_momentum: float = 0.9
    anchor_count: int = 64
    ot_rho: float = 0.1
    ot_sigma: float = 1.0
    ot_tol: float = 1e-6
    ot_max_iters: int = 5000
    eps_hard: float = 0.5
    mixed_fraction: float = 0.0
    patience: int = 20
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    include_background_cls: bool = False

    def __post_init__(self):
        if self.epochs_init > self.epochs_max:
            raise ValueError("epochs_init must be <= epochs_max")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 < self.lr_factor <= 1.0:
            raise ValueError("lr_factor must lie in (0, 1]")
        if not 0.0 <= self.mixed_fraction <= 1.0:
            raise ValueError("mixed_fraction must lie in [0, 1]")
        if self.epochs_init < self.epochs_max and not self.use_prototypes:
            raise ValueError("the pseudo-label phase requires prototypes")
        if min(self.batch_size, self.crop_len, self.proto_k, self.anchor_count) < 1:
            raise ValueError("sizes must be >= 1")

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for key, only in RETIRED_KEYS.items():
            if key in d and d.pop(key) is not only:
                raise ValueError(
                    f"config key {key!r} is retired; only {json.dumps(only)} is supported"
                )
        net = TcnConfig(**d.pop("net"))
        loss = LossWeights(**d.pop("loss", {}))
        return cls(net=net, loss=loss, **d)

    def to_dict(self):
        return asdict(self)


@dataclass
class TrainState:
    config: TrainConfig
    params: dict
    bank: PrototypeBank
    adam_m: dict
    adam_v: dict
    adam_t: int
    epoch: int  # completed epochs
    lr: float
    rng_batch_state: dict
    rng_mine_state: dict
    best_f_m: float
    best_epoch: int
    epochs_since_best: int


@dataclass
class _Crop:
    seq_idx: int
    start: int
    stop: int  # exclusive
    ann: TimestampAnnotations  # rebased to the crop
    aug_positions: np.ndarray  # phase-1 supervision positions (rebased)
    aug_classes: np.ndarray
    multilabel: np.ndarray


def mix_supervision(annotations, labels, fraction, seed):
    """Promote floor(fraction * length) uniformly chosen samples of every
    segment to ground-truth supervision; returns the augmented
    (positions, classes) arrays including the original timestamps."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    chosen = {int(p): int(c) for p, c in zip(annotations.positions, annotations.classes)}
    for seg in segments_of(labels):
        k = int(np.floor(fraction * seg.length))
        if k == 0:
            continue
        picks = rng.choice(np.arange(seg.start, seg.end + 1), size=k, replace=False)
        for p in picks:
            chosen[int(p)] = seg.class_index
    positions = np.array(sorted(chosen), dtype=np.int64)
    classes = np.array([chosen[int(p)] for p in positions], dtype=np.int64)
    return positions, classes


def make_crops(t_len, annotations, crop_len):
    """Contiguous crop windows whose cuts sit at inter-timestamp midpoints,
    so no crop separates a timestamp from both of its adjacent intervals."""
    positions = annotations.positions
    if t_len <= crop_len or positions.size <= 1:
        return [(0, t_len)]
    mids = [(int(positions[i]) + int(positions[i + 1])) // 2 + 1 for i in range(positions.size - 1)]
    cuts = []
    start = 0
    for mid in mids:
        if mid - start >= crop_len:
            cuts.append((start, mid))
            start = mid
    cuts.append((start, t_len))
    return cuts


def _crop_views(seq_idx, start, stop, ann, aug_pos, aug_cls, num_classes):
    inside = (ann.positions >= start) & (ann.positions < stop)
    crop_ann = TimestampAnnotations(ann.positions[inside] - start, ann.classes[inside])
    a_in = (aug_pos >= start) & (aug_pos < stop)
    return _Crop(
        seq_idx=seq_idx,
        start=start,
        stop=stop,
        ann=crop_ann,
        aug_positions=aug_pos[a_in] - start,
        aug_classes=aug_cls[a_in],
        multilabel=sequence_multilabel(crop_ann, num_classes),
    )


def generate_pseudo_for_sequence(data, annotations, bank, params, config):
    """Full-sequence pseudo-labels via order-preserving transport.

    Returns (PseudoLabels | None, TransportPlan | None, classes_present);
    None when some class in the annotations has no initialized prototype.
    """
    outputs = net_mod.forward(data, params, config.net)
    vn, _ = net_mod.l2_normalize_columns(outputs.v)
    classes_present = np.unique(annotations.classes)
    if not bank.initialized[classes_present].all():
        return None, None, classes_present
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

    Raises ``ValueError`` when ``train_set`` or ``val_set`` is empty. On a
    non-finite loss it raises ``NonFiniteLossError``; with a ``diag_dir``
    the offending crop's diagnostics are first written there as an
    ``.npz``, without one none are written.
    """
    if not train_set:
        raise ValueError("train_set is empty")
    if not val_set:
        raise ValueError("val_set is empty")
    c = config.net.num_classes
    seeds = np.random.SeedSequence(config.seed).spawn(5)
    ss_init, ss_ts, ss_mix, ss_batch, ss_mine = seeds

    ts_rng = np.random.default_rng(ss_ts)
    annotations = [
        sample_timestamps(item.labels, int(ts_rng.integers(2 ** 63))) for item in train_set
    ]
    mix_rng = np.random.default_rng(ss_mix)
    aug = []
    for item, ann in zip(train_set, annotations):
        seed = int(mix_rng.integers(2 ** 63))
        if config.mixed_fraction > 0.0:
            aug.append(mix_supervision(ann, item.labels, config.mixed_fraction, seed))
        else:
            aug.append((ann.positions.copy(), ann.classes.copy()))

    crops = []
    for idx, (item, ann) in enumerate(zip(train_set, annotations)):
        for start, stop in make_crops(item.sequence.num_samples, ann, config.crop_len):
            crops.append(_crop_views(idx, start, stop, ann, aug[idx][0], aug[idx][1], c))

    if state is None:
        params = net_mod.init_params(config.net, ss_init)
        state = TrainState(
            config=config,
            params=params,
            bank=PrototypeBank(c, config.net.projector_dim, config.proto_momentum),
            adam_m={k: np.zeros_like(v) for k, v in params.items()},
            adam_v={k: np.zeros_like(v) for k, v in params.items()},
            adam_t=0,
            epoch=0,
            lr=config.lr,
            rng_batch_state=np.random.default_rng(ss_batch).bit_generator.state,
            rng_mine_state=np.random.default_rng(ss_mine).bit_generator.state,
            best_f_m=-1.0,
            best_epoch=0,
            epochs_since_best=0,
        )

    rng_batch = np.random.default_rng()
    rng_batch.bit_generator.state = state.rng_batch_state
    rng_mine = np.random.default_rng()
    rng_mine.bit_generator.state = state.rng_mine_state

    logs = []
    for epoch in range(state.epoch, config.epochs_max):
        phase = "pseudo" if epoch >= config.epochs_init else (
            "timestamp" if config.use_prototypes else "warmup"
        )
        pseudo_labels = None
        if phase == "pseudo":
            pseudo_labels = _regenerate_pseudo(train_set, annotations, aug, state, config)

        order = rng_batch.permutation(len(crops))
        totals = {}
        n_batches = 0
        for b0 in range(0, order.size, config.batch_size):
            batch = [crops[i] for i in order[b0 : b0 + config.batch_size]]
            parts_mean = _train_batch(
                batch, train_set, state, config, phase, pseudo_labels, rng_mine, diag_dir
            )
            for k, v in parts_mean.items():
                totals[k] = totals.get(k, 0.0) + v
            n_batches += 1

        if (epoch + 1) % config.lr_period == 0:
            state.lr *= config.lr_factor
        state.epoch = epoch + 1
        state.rng_batch_state = rng_batch.bit_generator.state
        state.rng_mine_state = rng_mine.bit_generator.state

        report = evaluate(state, val_set)
        if report.f_m > state.best_f_m:
            state.best_f_m = report.f_m
            state.best_epoch = state.epoch
            state.epochs_since_best = 0
        else:
            state.epochs_since_best += 1

        record = {"epoch": state.epoch, "phase": phase, "lr": state.lr}
        for key in ("total", "seg", "segall", "cls", "con", "smooth", "conf"):
            record[f"loss_{key}"] = totals.get(key, 0.0) / max(n_batches, 1)
        record.update(
            val_acc=report.acc, val_f_m=report.f_m, val_ji=report.ji,
            val_iou=report.iou, val_o_u=report.o_u,
        )
        logs.append(record)

        if state.epochs_since_best >= config.patience:
            break
    return state, logs


def _regenerate_pseudo(train_set, annotations, aug, state, config):
    out = {}
    unconverged = solved = 0
    for idx, (item, ann) in enumerate(zip(train_set, annotations)):
        labels, plan, _ = generate_pseudo_for_sequence(
            item.sequence.data, ann, state.bank, state.params, config
        )
        if plan is not None:
            solved += 1
            unconverged += not plan.converged
        if labels is None:
            out[idx] = None
            continue
        y = labels.y
        if config.mixed_fraction > 0.0:
            pos, cls = aug[idx]
            y[:, pos] = 0.0
            y[cls, pos] = 1.0
        out[idx] = y
    if unconverged:
        warnings.warn(
            f"Sinkhorn did not converge within ot_max_iters={config.ot_max_iters} for"
            f" {unconverged} of {solved} sequences; their pseudo-labels come from the"
            " last iterate"
        )
    return out


def _train_batch(batch, train_set, state, config, phase, pseudo_labels, rng_mine, diag_dir):
    params = state.params
    stages = config.net.stages
    weights = config.loss
    grad_sum = {k: np.zeros_like(v) for k, v in params.items()}
    parts_sum = {}

    for crop in batch:
        item = train_set[crop.seq_idx]
        x = item.sequence.data[:, crop.start : crop.stop]
        outputs, cache = net_mod.forward_cached(x, params, config.net)
        dy = [np.zeros_like(p) for p in outputs.y_prob]
        parts = {}

        y_tilde = None
        crop_phase = phase
        if phase == "pseudo":
            full = pseudo_labels.get(crop.seq_idx) if pseudo_labels else None
            if full is None:
                crop_phase = "timestamp" if config.use_prototypes else "warmup"
            else:
                y_tilde = full[:, crop.start : crop.stop]

        for s in range(stages):
            y = outputs.y_prob[s]
            if y_tilde is not None:
                val, g = losses_mod.l_seg_all(y, y_tilde, with_grad=True)
                parts["segall"] = parts.get("segall", 0.0) + val / stages
            else:
                val, g = losses_mod.l_seg_timestamps(
                    y, crop.aug_positions, crop.aug_classes, with_grad=True
                )
                parts["seg"] = parts.get("seg", 0.0) + val / stages
            dy[s] += g / stages
            if weights.lambda_s > 0 and y.shape[1] >= 2:
                val, g = losses_mod.l_smooth(y, weights.tau_trunc, with_grad=True)
                parts["smooth"] = parts.get("smooth", 0.0) + val / stages
                dy[s] += weights.lambda_s * g / stages
            if weights.lambda_conf > 0 and len(crop.ann) >= 2:
                val, g = losses_mod.l_conf(y, crop.ann.positions, crop.ann.classes, with_grad=True)
                parts["conf"] = parts.get("conf", 0.0) + val / stages
                dy[s] += weights.lambda_conf * g / stages

        dy_s_logits = None
        dv = None
        if config.use_prototypes:
            val, dy_s_logits = losses_mod.l_cls(
                outputs.y_s_logits,
                crop.multilabel,
                include_background=config.include_background_cls,
                with_grad=True,
            )
            parts["cls"] = val

            cams = cam_mod.compute_cams(outputs.z, params["ml.w"])
            mask_classes = cam_mod.pseudo_mask(cams)
            cam_weights = cam_mod.normalize_cams(cams)
            vn, norms = net_mod.l2_normalize_columns(outputs.v)
            for cls_idx in range(config.net.num_classes):
                mask = np.flatnonzero(mask_classes == cls_idx)
                ts_pos = crop.ann.positions[crop.ann.classes == cls_idx]
                if ts_pos.size:
                    mask = np.union1d(mask, ts_pos)
                est = estimate_prototype(vn, cam_weights[cls_idx], mask, config.proto_k)
                if est is not None:
                    update_bank(state.bank, cls_idx, est)

            if weights.lambda_con > 0:
                mined = contrast_mod.mine_pairs(
                    vn,
                    mask_classes,
                    outputs.y_prob[-1],
                    crop.ann,
                    state.bank,
                    seed=int(rng_mine.integers(2 ** 63)),
                    anchor_count=config.anchor_count,
                )
                if mined:
                    val, d_vn = contrast_mod.info_nce(
                        mined, vn, state.bank, weights.tau_contrast, with_grad=True
                    )
                    parts["con"] = val
                    dv = net_mod.l2_normalize_backward(weights.lambda_con * d_vn, vn, norms)

        total = losses_mod.combined(crop_phase, parts, weights)
        parts["total"] = total
        if not np.isfinite(total):
            path = _dump_diagnostics(diag_dir, crop, x, outputs, parts)
            where = f"diagnostics written to {path}" if path else "no diagnostics written"
            raise NonFiniteLossError(
                f"non-finite loss at epoch {state.epoch + 1}, sequence {crop.seq_idx}"
                f" crop [{crop.start}, {crop.stop}); {where}"
            )

        grads = net_mod.backward(
            net_mod.OutputGrads(dz=None, dy_prob=dy, dy_s_logits=dy_s_logits, dv=dv),
            cache,
            params,
            config.net,
        )
        for k in grad_sum:
            grad_sum[k] += grads[k]
        for k, v in parts.items():
            parts_sum[k] = parts_sum.get(k, 0.0) + v

    n = len(batch)
    _adam_step(state, {k: v / n for k, v in grad_sum.items()}, config)
    return {k: v / n for k, v in parts_sum.items()}


def _adam_step(state, grads, config):
    state.adam_t += 1
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    t = state.adam_t
    for k, g in grads.items():
        state.adam_m[k] = b1 * state.adam_m[k] + (1 - b1) * g
        state.adam_v[k] = b2 * state.adam_v[k] + (1 - b2) * g * g
        m_hat = state.adam_m[k] / (1 - b1 ** t)
        v_hat = state.adam_v[k] / (1 - b2 ** t)
        state.params[k] = state.params[k] - state.lr * m_hat / (np.sqrt(v_hat) + eps)


def _dump_diagnostics(diag_dir, crop, x, outputs, parts):
    """Write the crop's diagnostics; returns the path, or None if nothing
    was written."""
    if diag_dir is None:
        return None
    os.makedirs(diag_dir, exist_ok=True)
    path = os.path.join(diag_dir, f"diverged_seq{crop.seq_idx}_{crop.start}_{crop.stop}.npz")
    try:
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


def evaluate(state, data_set):
    """Argmax of the final stage per sample, scored against dense labels."""
    pairs = []
    for item in data_set:
        outputs = net_mod.forward(item.sequence.data, state.params, state.config.net)
        pred = np.argmax(outputs.y_prob[-1], axis=0)
        pairs.append((pred, item.labels.labels))
    return evaluate_many(pairs, state.config.net.num_classes)


def save_checkpoint(state, path):
    """Single-file npz dump: parameters, optimizer moments, prototype bank,
    and a JSON metadata blob (schema documented in the README)."""
    arrays = {}
    for k, v in state.params.items():
        arrays[f"param.{k}"] = v
    for k, v in state.adam_m.items():
        arrays[f"adam_m.{k}"] = v
    for k, v in state.adam_v.items():
        arrays[f"adam_v.{k}"] = v
    arrays["bank.p"] = state.bank.p
    arrays["bank.initialized"] = state.bank.initialized
    meta = {
        "version": CHECKPOINT_VERSION,
        "adam_t": state.adam_t,
        "epoch": state.epoch,
        "lr": state.lr,
        "rng_batch_state": state.rng_batch_state,
        "rng_mine_state": state.rng_mine_state,
        "best_f_m": state.best_f_m,
        "best_epoch": state.best_epoch,
        "epochs_since_best": state.epochs_since_best,
        "config": state.config.to_dict(),
    }
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def load_checkpoint(path):
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        config = TrainConfig.from_dict(meta["config"])
        params = {}
        adam_m = {}
        adam_v = {}
        for key in npz.files:
            if key.startswith("param."):
                params[key[len("param.") :]] = npz[key]
            elif key.startswith("adam_m."):
                adam_m[key[len("adam_m.") :]] = npz[key]
            elif key.startswith("adam_v."):
                adam_v[key[len("adam_v.") :]] = npz[key]
        bank = PrototypeBank(config.net.num_classes, config.net.projector_dim,
                             config.proto_momentum)
        bank.p = npz["bank.p"]
        bank.initialized = npz["bank.initialized"]
    return TrainState(
        config=config,
        params=params,
        bank=bank,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=meta["adam_t"],
        epoch=meta["epoch"],
        lr=meta["lr"],
        rng_batch_state=meta["rng_batch_state"],
        rng_mine_state=meta["rng_mine_state"],
        best_f_m=meta["best_f_m"],
        best_epoch=meta["best_epoch"],
        epochs_since_best=meta["epochs_since_best"],
    )
