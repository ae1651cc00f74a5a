"""The benchmark's three workloads on the acceptance-corpus spec.

Every workload starts from the same warm start, whatever the seed:
phase-1 epochs of the full-method settings on the acceptance corpus until
every class has a prototype (one epoch). The seed draws the sequences an
operation works on. One operation repeats the same work from the warm
start, so every operation of a run does identical work and produces
identical outputs:

- ``train-timestamp``: the next phase-1 epoch (settings of variant 3 of
  the ablation: prototypes, CAMs, contrast and the timestamp losses), on
  each of ``CORPORA`` training corpora.
- ``train-pseudo``: the first phase-2 epoch of the full method (variant
  4), on each of ``CORPORA`` training corpora: pseudo-labels regenerated
  over every training sequence.
- ``infer``: ``trainer.evaluate`` over 40 held-out sequences drawn from
  the seed.
"""

import copy
import dataclasses
import hashlib
import json

import numpy as np

import checks
from wsseg import losses, net, otrans, pseudo, seqdata, trainer

DEFAULT_CORPUS_SEED = 2024  # the pinned acceptance corpus
TRAIN_SEED = 11
NUM_TRAIN, NUM_VAL, NUM_TEST = 34, 6, 10
MAX_WARM_EPOCHS = 3
# Held-out sequences per scoring pass in ``infer``. Scoring cost follows
# the number of predicted segments; over seeds 41-50 its quartile spread
# is 6% for 40 sequences and a fixed model, 14% when the model is trained
# per seed.
INFER_SEQUENCES = 40
# Training corpora per operation on the training workloads. The contrast
# pairs of one phase-1 epoch follow the corpus: on seeds 601-610 they
# ranged over 14.0k-19.1k (quartile spread 19%), and the epoch time with
# them. An operation takes an epoch on each of several corpora, so its
# work varies less from seed to seed.
CORPORA = 3
WINDOW = 1024


def sequences(seed, first, count):
    """Sequences ``first .. first + count - 1`` of the acceptance-corpus spec.

    The class means belong to the task and are always those of the
    acceptance corpus; ``seed`` draws the sequences. With class means drawn
    per seed as well, the contrast pairs of a phase-1 epoch range over
    12.9k-19.6k on seeds 0-24, against 13.7k-18.4k with fixed means.
    """
    means = np.random.default_rng(DEFAULT_CORPUS_SEED).normal(0.0, 1.0, size=(5, 6))
    spec = seqdata.SyntheticSpec(
        num_classes=5, num_channels=6, length=2000, seg_len_min=400, seg_len_max=900,
        noise_sigma=0.8, segment_jitter=0.9, class_means=means,
    )
    return [trainer.LabeledSequence(*seqdata.generate_synthetic(spec, seed * 100 + i))
            for i in range(first, first + count)]


def training_corpus_seed(seed, k):
    """Corpus seed of the ``k``-th training corpus drawn from ``seed``; the
    first is ``seed`` itself."""
    return seed if k == 0 else int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def build_corpus(seed):
    """Train / validation / test splits; seed 2024 gives tests/accept_corpus.py."""
    items = sequences(seed, 0, NUM_TRAIN + NUM_VAL + NUM_TEST)
    return items[:NUM_TRAIN], items[NUM_TRAIN:NUM_TRAIN + NUM_VAL], items[NUM_TRAIN + NUM_VAL:]


def full_method_config(variant):
    """Variant 3 (contrast, no transport) or 4 (full method) of the ablation."""
    base = dict(
        net=net.TcnConfig(in_dim=6, num_classes=5, stages=1, layers_per_stage=7,
                          feature_dim=16, projector_dim=12),
        loss=losses.LossWeights(lambda_con=0.5, lambda_s=0.15, lambda_conf=0.5),
        epochs_max=44, epochs_init=22, lr=0.0015, batch_size=8, crop_len=1024,
        seed=TRAIN_SEED, proto_k=8, anchor_count=64, eps_hard=0.5, ot_rho=0.1,
        ot_sigma=1.0, patience=100, mixed_fraction=0.0,
    )
    if variant == 3:
        base["epochs_init"] = base["epochs_max"]
    return trainer.TrainConfig(**base)


def warm_start(train_set, val_set):
    """Phase-1 epochs until every class has a prototype; returns the state."""
    config = full_method_config(3)
    state = None
    for epochs in range(1, MAX_WARM_EPOCHS + 1):
        phase1 = dataclasses.replace(config, epochs_init=epochs, epochs_max=epochs)
        state, _ = trainer.train(train_set, val_set, phase1, state=state)
        if state.bank.initialized.all():
            break
    return state


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def params_digest(params):
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    return h.hexdigest()


def predictions(items, params, config):
    """(probabilities, argmax) of the final stage per sequence."""
    out = []
    for item in items:
        prob = net.forward(item.sequence.data, params, config).y_prob[-1]
        out.append((prob, np.argmax(prob, axis=0)))
    return out


class Capture:
    """Keeps the transport plans and pseudo-labels the trainer produces, so
    each operation's outputs can be checked after it ends."""

    def __init__(self):
        self.plans = []
        self.labels = []
        self._saved = []

    def install(self):
        for module, attr, sink in ((otrans, "solve_order_preserving", self._plan),
                                   (pseudo, "generate", self._label)):
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, sink(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def clear(self):
        self.plans.clear()
        self.labels.clear()

    def _plan(self, fn):
        def solve(*args, **kwargs):
            plan = fn(*args, **kwargs)
            self.plans.append(plan)
            return plan
        return solve

    def _label(self, fn):
        def generate(q, annotations, *args, **kwargs):
            labels = fn(q, annotations, *args, **kwargs)
            self.labels.append((labels.y, annotations.positions, annotations.classes))
            return labels
        return generate


class Workload:
    """Set-up, one operation and its checks."""

    epochs_per_op = 1  # training epochs (or scoring passes) in one operation

    def __init__(self, corpus_seed):
        self.corpus_seed = corpus_seed
        self.capture = Capture()
        self.reference_hash = None  # of the outputs every operation must reproduce

    def setup(self):
        # The warm start is part of the system under test and does not
        # depend on the seed. With a warm start trained per seed, the epoch
        # after it mined 14.2k-19.8k contrast pairs on seeds 101-110
        # (quartile spread 13%); from this one, 14.6k-20.2k (9%).
        warm_train, warm_val, _ = build_corpus(DEFAULT_CORPUS_SEED)
        self.warm = warm_start(warm_train, warm_val)


class TrainEpoch(Workload):
    """One operation is one epoch on each of ``CORPORA`` corpora."""

    epochs_per_op = CORPORA

    def __init__(self, corpus_seed, variant):
        super().__init__(corpus_seed)
        self.variant = variant

    def setup(self):
        super().setup()
        self.corpora = [build_corpus(training_corpus_seed(self.corpus_seed, k))[:2]
                        for k in range(CORPORA)]
        self.inputs = (f"{CORPORA} corpora of {NUM_TRAIN} train / {NUM_VAL} val sequences"
                       " per operation")
        w = self.warm.epoch
        config = full_method_config(self.variant)
        if self.variant == 3:
            self.op_config = dataclasses.replace(config, epochs_init=w + 1, epochs_max=w + 1)
        else:
            self.op_config = dataclasses.replace(config, epochs_init=w, epochs_max=w + 1)
        self.samples = sum(it.sequence.num_samples
                           for train_set, _ in self.corpora for it in train_set)

    def prepare_checks(self):
        """The untrained network's validation F_m per corpus; returns no failures."""
        config = full_method_config(3)
        untrained = dataclasses.replace(config, epochs_init=0, epochs_max=0)
        self.untrained_f_m = []
        for train_set, val_set in self.corpora:
            state0, _ = trainer.train(train_set, val_set, untrained)
            self.untrained_f_m.append(self._val_scores(val_set, state0.params)[0]["f_m"])
        return []

    def _val_scores(self, val_set, params):
        pred = predictions(val_set, params, self.op_config.net)
        fails = []
        for prob, _ in pred:
            fails += checks.check_prob_columns(prob)
        pairs = [(p, it.labels.labels) for (_, p), it in zip(pred, val_set)]
        return checks.scores(pairs, self.op_config.net.num_classes), fails

    def new_state(self):
        return [copy.deepcopy(self.warm) for _ in self.corpora]

    def operation(self, states):
        return [trainer.train(train_set, val_set, self.op_config, state=state)
                for (train_set, val_set), state in zip(self.corpora, states)]

    def check(self, results):
        fails = []
        for k, (result, untrained_f_m) in enumerate(zip(results, self.untrained_f_m)):
            fails += [f"corpus {k}: {msg}"
                      for msg in self._check_epoch(self.corpora[k], result, untrained_f_m)]
        if self.variant == 4:
            expected = NUM_TRAIN * CORPORA
            if len(self.capture.labels) != expected:
                fails.append(f"{len(self.capture.labels)} of {expected} training sequences"
                             " received pseudo-labels")
            for plan in self.capture.plans:
                fails += checks.check_plan(plan.q, plan.converged, self.op_config.ot_tol)
            for y, positions, classes in self.capture.labels:
                fails += checks.check_pseudo(y, positions, classes)
        log_hash = digest([logs for _, logs in results])
        if self.reference_hash is None:
            self.reference_hash = log_hash
        elif log_hash != self.reference_hash:
            fails.append("train logs differ from the run's first operation")
        return fails

    def _check_epoch(self, corpus, result, untrained_f_m):
        (train_set, val_set), (state, logs) = corpus, result
        if len(logs) != 1:
            return [f"expected one epoch in the train log, got {len(logs)}"]
        record = logs[0]
        fails = checks.check_finite_log(record)
        expected, prob_fails = self._val_scores(val_set, state.params)
        fails += prob_fails
        reported = {k: record[f"val_{k}"] for k in checks.SCORE_KEYS}
        fails += checks.check_scores(reported, expected)
        if not record["val_f_m"] > untrained_f_m:
            fails.append(f"validation F_m {record['val_f_m']!r} is not above the untrained"
                         f" network's {untrained_f_m!r}")
        crop = train_set[0].sequence.data[:, : self.op_config.crop_len]
        fails += checks.check_gradient(
            checks.gradient_trials(net, crop, state.params, self.op_config.net))
        return fails


class Infer(Workload):
    def setup(self):
        super().setup()
        # held-out sequences numbered after the corpus's own 50
        self.test_set = sequences(self.corpus_seed, NUM_TRAIN + NUM_VAL + NUM_TEST,
                                  INFER_SEQUENCES)
        self.inputs = f"{INFER_SEQUENCES} held-out sequences per operation"
        self.samples = sum(it.sequence.num_samples for it in self.test_set)

    def prepare_checks(self):
        """Reference scores and the model's run-level checks; returns their
        failures."""
        config = self.warm.config.net
        pred = predictions(self.test_set, self.warm.params, config)
        fails = []
        for prob, _ in pred:
            fails += checks.check_prob_columns(prob)
        pairs = [(p, it.labels.labels) for (_, p), it in zip(pred, self.test_set)]
        self.expected = checks.scores(pairs, config.num_classes)
        radius = checks.receptive_radius(config)
        rng = np.random.default_rng(self.corpus_seed)
        for (prob, _), item in zip(pred, self.test_set):
            start = int(rng.integers(0, item.sequence.num_samples - WINDOW + 1))
            window = item.sequence.data[:, start:start + WINDOW]
            window_prob = net.forward(window, self.warm.params, config).y_prob[-1]
            fails += checks.check_window(prob, window_prob, start, radius)
        self.reference_hash = digest(self.expected)
        return fails

    def new_state(self):
        return self.warm

    def operation(self, state):
        return trainer.evaluate(state, self.test_set)

    def check(self, report):
        return checks.check_scores(report.as_row(), self.expected)


WORKLOADS = {
    "train-timestamp": lambda seed: TrainEpoch(seed, 3),
    "train-pseudo": lambda seed: TrainEpoch(seed, 4),
    "infer": Infer,
}
