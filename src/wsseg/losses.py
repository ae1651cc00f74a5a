"""Loss terms for timestamp-supervised training.

Every term returns ``(value, grad)``: the loss as a float and its
analytic gradient wrt the term's direct input, of that input's shape.
``combined`` sums the values of the terms that ran into the objective.

Probabilities are clamped at 1e-12 before any log so every loss stays
finite and gradients bounded. The smoothing and confidence terms are
positive penalties; the per-sample classifier losses take column-softmax
probability matrices, the multi-label loss takes raw logits.
"""

from dataclasses import dataclass

import numpy as np

from .net import check_fields

CLAMP = 1e-12


@dataclass
class LossWeights:
    lambda_con: float = 0.5
    lambda_s: float = 0.15
    lambda_conf: float = 0.5
    tau_trunc: float = 4.0  # truncation threshold of the smoothing penalty
    tau_contrast: float = 0.1  # InfoNCE temperature, forwarded to contrast

    def __post_init__(self):
        check_fields(self)
        if min(self.lambda_con, self.lambda_s, self.lambda_conf) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.tau_trunc <= 0 or self.tau_contrast <= 0:
            raise ValueError("thresholds must be positive")


def l_seg_timestamps(y_prob, positions, classes):
    """Mean cross-entropy over the annotated positions."""
    positions = np.asarray(positions, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    if positions.size == 0:
        raise ValueError("need at least one annotated position")
    probs = y_prob[classes, positions]
    clamped = np.maximum(probs, CLAMP)
    loss = float(-np.log(clamped).mean())
    grad = np.zeros_like(y_prob)
    live = probs > CLAMP
    np.add.at(grad, (classes[live], positions[live]), -1.0 / (clamped[live] * positions.size))
    return loss, grad


def l_seg_all(y_prob, y_tilde):
    """Soft cross-entropy against dense pseudo-labels: -(1/T) sum ytilde log yhat."""
    if y_prob.shape != y_tilde.shape:
        raise ValueError("prediction and pseudo-label shapes differ")
    t_len = y_prob.shape[1]
    clamped = np.maximum(y_prob, CLAMP)
    loss = float(-(y_tilde * np.log(clamped)).sum() / t_len)
    grad = np.where(y_prob > CLAMP, -y_tilde / (clamped * t_len), 0.0)
    return loss, grad


def l_smooth(y_prob, tau_trunc):
    """Truncated mean-square of adjacent log-probability jumps."""
    if y_prob.shape[1] < 2:
        raise ValueError("need at least two samples")
    clamped = np.maximum(y_prob, CLAMP)
    logp = np.log(clamped)
    delta = logp[:, 1:] - logp[:, :-1]
    mag = np.abs(delta)
    trunc = np.minimum(mag, tau_trunc)
    denom = trunc.size
    loss = float((trunc ** 2).sum() / denom)
    live = (mag < tau_trunc) & (y_prob[:, 1:] > CLAMP) & (y_prob[:, :-1] > CLAMP)
    d_delta = np.where(live, 2.0 * delta / denom, 0.0)
    grad = np.zeros_like(y_prob)
    grad[:, 1:] += d_delta / clamped[:, 1:]
    grad[:, :-1] -= d_delta / clamped[:, :-1]
    return loss, grad


def l_conf(y_prob, positions, classes):
    """Confidence penalty: around each timestamp, the annotated class's
    log-probability must not increase while moving away from it.

    Each timestamp n contributes hinges over (t_{n-1}, t_{n+1}] (clamped
    at the flanks); the total is divided by T' = 2 (t_N - t_1). Undefined
    for fewer than two timestamps, which raises ``ValueError``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    n = positions.size
    if n < 2:
        raise ValueError("confidence loss needs at least two timestamps")
    if np.any(np.diff(positions) <= 0):
        raise ValueError("timestamp positions must be strictly increasing")
    t_prime = 2.0 * (positions[-1] - positions[0])
    clamped = np.maximum(y_prob, CLAMP)
    logp = np.log(clamped)
    # every pair (t-1, t) with t in (t_k, t_{k+1}] lies right of timestamp
    # k, whose class may not rise moving right (sign +1), and at or left of
    # timestamp k+1, whose class may not rise moving left (sign -1)
    t = np.arange(positions[0] + 1, positions[-1] + 1)
    k = np.searchsorted(positions, t) - 1
    c = np.concatenate([classes[k], classes[k + 1]])
    t = np.concatenate([t, t])
    sign = np.repeat([1.0, -1.0], k.size)
    viol = sign * (logp[c, t] - logp[c, t - 1])
    hit = viol > 0.0
    loss = float(viol[hit].sum() / t_prime)
    c, t, sign = c[hit], t[hit], sign[hit] / t_prime
    grad = np.zeros_like(y_prob)
    np.add.at(grad, (c, t), sign / clamped[c, t])
    np.add.at(grad, (c, t - 1), -sign / clamped[c, t - 1])
    return loss, grad


def l_cls(logits, targets):
    """Multi-label soft margin loss over the non-background classes (index
    0 is the background and is excluded)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    c = logits.size
    if c < 2:
        raise ValueError("need at least two classes to exclude the background")
    x = logits[1:]
    y = targets[1:]
    # stable log(sigmoid(x)) and log(1 - sigmoid(x))
    log_sig = -np.logaddexp(0.0, -x)
    log_one_minus = -np.logaddexp(0.0, x)
    count = c - 1
    loss = float(-(y * log_sig + (1.0 - y) * log_one_minus).sum() / count)
    grad = np.zeros_like(logits)
    sig = 1.0 / (1.0 + np.exp(-x))
    grad[1:] = (sig - y) / count
    return loss, grad


def combined(parts, weights):
    """The training objective: the weighted sum of the terms that ran,

        L_cls + L_seg + L_segall + lcon*L_con + (ls*L_s + lconf*L_conf),

    summed in that order. A term absent from ``parts`` counts as 0.0, so
    the caller decides the objective by the terms it computes: phase 1
    runs L_seg, phase 2 L_segall, and L_cls and L_con run only with
    prototypes.
    """
    get = lambda key: float(parts.get(key, 0.0))
    tail = weights.lambda_s * get("smooth") + weights.lambda_conf * get("conf")
    return get("cls") + get("seg") + get("segall") + weights.lambda_con * get("con") + tail
