"""Loss terms for timestamp-supervised training, each with an optional
analytic gradient wrt its direct input.

Probabilities are clamped at 1e-12 before any log so every loss stays
finite and gradients bounded. The smoothing and confidence terms are
positive penalties; the per-sample classifier losses take column-softmax
probability matrices, the multi-label loss takes raw logits.
"""

import warnings
from dataclasses import dataclass

import numpy as np

CLAMP = 1e-12


@dataclass
class LossWeights:
    lambda_con: float = 0.5
    lambda_s: float = 0.15
    lambda_conf: float = 0.5
    tau_trunc: float = 4.0  # truncation threshold of the smoothing penalty
    tau_contrast: float = 0.1  # InfoNCE temperature, forwarded to contrast

    def __post_init__(self):
        if min(self.lambda_con, self.lambda_s, self.lambda_conf) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.tau_trunc <= 0 or self.tau_contrast <= 0:
            raise ValueError("thresholds must be positive")


def l_seg_timestamps(y_prob, positions, classes, with_grad=False):
    """Mean cross-entropy over the annotated positions."""
    positions = np.asarray(positions, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    if positions.size == 0:
        raise ValueError("need at least one annotated position")
    probs = y_prob[classes, positions]
    clamped = np.maximum(probs, CLAMP)
    loss = float(-np.log(clamped).mean())
    if not with_grad:
        return loss
    grad = np.zeros_like(y_prob)
    live = probs > CLAMP
    np.add.at(grad, (classes[live], positions[live]), -1.0 / (clamped[live] * positions.size))
    return loss, grad


def l_seg_all(y_prob, y_tilde, with_grad=False):
    """Soft cross-entropy against dense pseudo-labels: -(1/T) sum ytilde log yhat."""
    if y_prob.shape != y_tilde.shape:
        raise ValueError("prediction and pseudo-label shapes differ")
    t_len = y_prob.shape[1]
    clamped = np.maximum(y_prob, CLAMP)
    loss = float(-(y_tilde * np.log(clamped)).sum() / t_len)
    if not with_grad:
        return loss
    grad = np.where(y_prob > CLAMP, -y_tilde / (clamped * t_len), 0.0)
    return loss, grad


def l_smooth(y_prob, tau_trunc, with_grad=False):
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
    if not with_grad:
        return loss
    live = (mag < tau_trunc) & (y_prob[:, 1:] > CLAMP) & (y_prob[:, :-1] > CLAMP)
    d_delta = np.where(live, 2.0 * delta / denom, 0.0)
    grad = np.zeros_like(y_prob)
    grad[:, 1:] += d_delta / clamped[:, 1:]
    grad[:, :-1] -= d_delta / clamped[:, :-1]
    return loss, grad


def l_conf(y_prob, positions, classes, with_grad=False):
    """Confidence penalty: around each timestamp, the annotated class's
    log-probability must not increase while moving away from it.

    Each timestamp n contributes hinges over (t_{n-1}, t_{n+1}] (clamped
    at the flanks); the total is divided by T' = 2 (t_N - t_1).
    """
    positions = np.asarray(positions, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    n = positions.size
    if n < 2:
        warnings.warn("confidence loss undefined for fewer than two timestamps; returning 0")
        if with_grad:
            return 0.0, np.zeros_like(y_prob)
        return 0.0
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
    if not with_grad:
        return loss
    c, t, sign = c[hit], t[hit], sign[hit] / t_prime
    grad = np.zeros_like(y_prob)
    np.add.at(grad, (c, t), sign / clamped[c, t])
    np.add.at(grad, (c, t - 1), -sign / clamped[c, t - 1])
    return loss, grad


def l_cls(logits, targets, include_background=False, with_grad=False):
    """Multi-label soft margin loss over the non-background classes."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    c = logits.size
    if c < 2 and not include_background:
        raise ValueError("need at least two classes to exclude the background")
    start = 0 if include_background else 1
    sel = slice(start, c)
    x = logits[sel]
    y = targets[sel]
    # stable log(sigmoid(x)) and log(1 - sigmoid(x))
    log_sig = -np.logaddexp(0.0, -x)
    log_one_minus = -np.logaddexp(0.0, x)
    count = c - start
    loss = float(-(y * log_sig + (1.0 - y) * log_one_minus).sum() / count)
    if not with_grad:
        return loss
    grad = np.zeros_like(logits)
    sig = 1.0 / (1.0 + np.exp(-x))
    grad[sel] = (sig - y) / count
    return loss, grad


def combined(phase, parts, weights):
    """Weighted loss for a training phase.

    warmup:    L_seg + ls*L_s + lconf*L_conf
    timestamp: L_cls + L_seg + lcon*L_con + ls*L_s + lconf*L_conf
    pseudo:    L_cls + L_segall + lcon*L_con + ls*L_s + lconf*L_conf
    """
    get = lambda key: float(parts.get(key, 0.0))
    base = weights.lambda_s * get("smooth") + weights.lambda_conf * get("conf")
    if phase == "warmup":
        return get("seg") + base
    if phase == "timestamp":
        return get("cls") + get("seg") + weights.lambda_con * get("con") + base
    if phase == "pseudo":
        return get("cls") + get("segall") + weights.lambda_con * get("con") + base
    raise ValueError(f"unknown phase {phase!r}")
