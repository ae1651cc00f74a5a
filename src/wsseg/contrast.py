"""Timestamp-constrained hybrid hard example mining and the
sample-to-prototype InfoNCE loss, in array form.

A mined batch holds A (anchor, positive, negatives) pairs as three
arrays over the C classes of the prototype bank:

- ``anchors`` (A,): the sample index of each pair; an index may repeat;
- ``pos_w`` (A, C): the positive as weights over prototypes, one-hot for
  a regular pair or 0.5/0.5 for a two-class mixture positive;
- ``neg`` (A, C): a boolean mask of the negative prototypes.

Anchors mix uniformly random positions with "hard" ones whose cosine
against their own positive prototype is closest to -1. Negative
prototypes per anchor are the hardest 60% (highest similarity), thinned
to a random 50%; percentages round up. Samples between two timestamps
whose prediction matches neither flanking class contribute an extra pair:
the wrongly predicted class as negative, the equal-weight mixture of the
two flanking prototypes as positive. Regular pairs come first, in anchor
order, then constraint pairs in sample order.

Prototype rows act as constants here (stop-gradient): the bank evolves
only through its momentum updates, so the loss returns gradients for the
embeddings alone.
"""

import math
from dataclasses import dataclass

import numpy as np

TAU = 0.1  # the InfoNCE temperature in training


@dataclass
class ContrastBatch:
    anchors: np.ndarray  # (A,) sample indices
    pos_w: np.ndarray  # (A, C) positive-mixture weights
    neg: np.ndarray  # (A, C) negative mask

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.int64)
        self.pos_w = np.asarray(self.pos_w, dtype=np.float64)
        self.neg = np.asarray(self.neg, dtype=bool)
        if self.pos_w.ndim != 2 or self.pos_w.shape != self.neg.shape \
                or self.anchors.shape != self.pos_w.shape[:1]:
            raise ValueError("anchors must be (A,), pos_w and neg (A, C)")
        if np.any((self.pos_w != 0.0) & self.neg):
            raise ValueError("a class cannot be both positive and negative")

    def __len__(self):
        return self.anchors.size


def _empty(num_classes):
    return ContrastBatch(np.zeros(0), np.zeros((0, num_classes)), np.zeros((0, num_classes)))


def _choices(rng, rows, pop, keep):
    """``[rng.choice(pop, keep, replace=False) for _ in range(rows)]`` as
    one (rows, keep) int64 array, from one ``rng.integers`` draw.

    numpy draws each subset by Floyd's algorithm (step j in
    [pop - keep, pop) takes a uniform integer in [0, j], or j itself when
    that one is already taken) and then a Fisher-Yates shuffle (step i
    from keep - 1 down to 1 swaps i with a uniform integer in [0, i]).
    ``rng.integers`` over those bounds, one row per subset, draws the same
    integers in the same order (a bound of 1 draws nothing), so every row
    is replayed at once. Above a population of 10,000 numpy may shuffle a
    tail instead, and the rows are drawn one call at a time.
    """
    if pop > 10_000:
        picks = [rng.choice(pop, size=keep, replace=False) for _ in range(rows)]
        return np.array(picks, dtype=np.int64).reshape(rows, keep)
    steps = range(pop - keep, pop)
    # the exclusive bound of each draw of a row: Floyd's j + 1, then the shuffle's i + 1
    bounds = np.array([*range(pop - keep + 1, pop + 1), *range(keep, 1, -1)], dtype=np.int64)
    draws = iter(rng.integers(0, bounds, size=(rows, bounds.size)).T)
    out = np.empty((rows, keep), dtype=np.int64)
    for k, j in enumerate(steps):
        val = next(draws)
        out[:, k] = np.where((out[:, :k] == val[:, None]).any(axis=1), j, val) if k else val
    r = np.arange(rows)
    for i in range(keep - 1, 0, -1):
        j = next(draws)
        out[r, j], out[:, i] = out[:, i], out[r, j]
    return out


def mine_pairs(vn, mask_classes, y_prob, annotations, bank, seed, anchor_count=64):
    """Build a ContrastBatch for one sequence.

    ``vn`` is the (dim, T) L2-normalized embedding map, ``mask_classes``
    the CAM pseudo mask, ``y_prob`` the final-stage (C, T) probabilities.
    Returns an empty batch (skip signal) when fewer than two prototypes
    are initialized.
    """
    rng = np.random.default_rng(seed)
    c = bank.num_classes
    is_init = bank.initialized
    init = np.flatnonzero(is_init)
    if init.size < 2:
        return _empty(c)
    parts = []  # (anchors, pos_w, neg) of the regular, then the constraint pairs

    eligible = np.flatnonzero(is_init[mask_classes])
    if eligible.size:
        n = min(anchor_count, eligible.size)
        n_rand = math.ceil(n / 2)
        rand_pick = rng.choice(eligible, size=n_rand, replace=False)
        chosen = rand_pick
        n_hard = n - n_rand
        if n_hard > 0:
            taken = np.zeros(mask_classes.size, dtype=bool)
            taken[rand_pick] = True
            rest = eligible[~taken[eligible]]
            # hardness: cosine with own positive prototype closest to -1
            own = (vn[:, rest] * bank.p[mask_classes[rest]].T).sum(axis=0)
            order = np.argsort(own, kind="stable")[:n_hard]
            chosen = np.concatenate([rand_pick, rest[order]])
        anchors = np.sort(chosen)
        pos = mask_classes[anchors]
        # negatives: of the initialized classes other than the positive,
        # the hardest 60% by similarity (stable on ties), then a random 50%
        sims = vn[:, anchors].T @ bank.p[init].T
        sims[init[None, :] == pos[:, None]] = -np.inf
        k_hard = math.ceil(0.6 * (init.size - 1))
        pools = init[np.argsort(-sims, axis=1, kind="stable")[:, :k_hard]]
        k_keep = math.ceil(0.5 * k_hard)
        # one subset per anchor, in anchor order, all from one batched
        # replay of rng.choice(k_hard, k_keep, replace=False) per anchor;
        # drawing positions in the pool takes the same random numbers as
        # drawing from the pool
        picks = _choices(rng, anchors.size, k_hard, k_keep)
        idx = np.arange(anchors.size)
        neg = np.zeros((anchors.size, c), dtype=bool)
        neg[idx[:, None], np.take_along_axis(pools, picks, axis=1)] = True
        pos_w = np.zeros((anchors.size, c))
        pos_w[idx, pos] = 1.0
        parts.append((anchors, pos_w, neg))

    # constraint pairs: t strictly between timestamps n and n+1, predicted
    # as an initialized class other than both flanking classes
    positions, classes = annotations.positions, annotations.classes
    if positions.size >= 2:
        t = np.arange(positions[0] + 1, min(positions[-1], vn.shape[1]))
        interval = np.searchsorted(positions, t, side="right") - 1
        inside = positions[interval] != t
        t, interval = t[inside], interval[inside]
        ca, cb = classes[interval], classes[interval + 1]
        wrong = np.argmax(y_prob[:, t], axis=0)
        keep = is_init[ca] & is_init[cb] & is_init[wrong] & (wrong != ca) & (wrong != cb)
        t, ca, cb, wrong = t[keep], ca[keep], cb[keep], wrong[keep]
        idx = np.arange(t.size)
        pos_w = np.zeros((t.size, c))
        pos_w[idx, ca] += 0.5
        pos_w[idx, cb] += 0.5  # ca == cb gives weight 1
        neg = np.zeros((t.size, c), dtype=bool)
        neg[idx, wrong] = True
        parts.append((t, pos_w, neg))

    if not parts:
        return _empty(c)
    return ContrastBatch(*(np.concatenate(arrays) for arrays in zip(*parts)))


def info_nce(batch, vn, bank, tau):
    """Mean InfoNCE over the batch and its gradient wrt ``vn``.

    Per anchor: -log( exp(v.P_pos/tau) / sum_{c in {pos} u negs} exp(v.P_c/tau) ),
    with P_pos = pos_w @ P. Anchors without negatives contribute
    -log 1 = 0. The gradient of anchor a is
    ((s_pos - 1) P_pos + sum_c s_c P_c) / tau over its softmax weights s,
    averaged over the batch and scattered onto the anchor's column.
    """
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    if not len(batch):
        raise ValueError("batch must be non-empty")
    v = vn[:, batch.anchors].T  # (A, dim)
    logits = v @ bank.p.T / tau  # (A, C)
    s_pos = (batch.pos_w * logits).sum(axis=1)
    s_neg = np.where(batch.neg, logits, -np.inf)
    shift = np.maximum(s_pos, s_neg.max(axis=1))
    e_pos = np.exp(s_pos - shift)
    e_neg = np.exp(s_neg - shift[:, None])
    total = e_pos + e_neg.sum(axis=1)
    a = len(batch)
    loss = float((np.log(total) + shift - s_pos).sum() / a)
    coef = ((e_pos / total - 1.0)[:, None] * batch.pos_w + e_neg / total[:, None]) / (tau * a)
    d_vn = np.zeros_like(vn)
    np.add.at(d_vn.T, batch.anchors, coef @ bank.p)
    return loss, d_vn
