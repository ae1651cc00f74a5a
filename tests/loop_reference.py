"""Loop references for the package's array code, and a cross-check
Sinkhorn.

The per-pair and per-sample loops are the straightforward versions the
array code replaced, kept as oracles: contrast mining must pick the same
pairs (same RNG draw order), InfoNCE and the confidence loss must give
the same loss and gradient up to summation order, and pseudo-label
generation must give exactly the same labels. A pair is
``(anchor, pos_classes, pos_weights, neg_classes)``.

``sinkhorn_direct`` iterates the scaling vectors of ``exp(S / reg)``
directly instead of log-domain potentials, to cross-check the package's
solver.
"""

import math

import numpy as np

from wsseg.contrast import ContrastBatch
from wsseg.otrans import TransportPlan
from wsseg.pseudo import PseudoLabels, count_assignments

CLAMP = 1e-12


def mine_pairs_loop(vn, mask_classes, y_prob, annotations, bank, seed, anchor_count=64):
    rng = np.random.default_rng(seed)
    init = np.flatnonzero(bank.initialized)
    if init.size < 2:
        return []
    init_set = set(int(c) for c in init)
    t_len = vn.shape[1]

    eligible = np.flatnonzero(np.isin(mask_classes, init))
    pairs = []
    if eligible.size:
        n = min(anchor_count, eligible.size)
        n_rand = math.ceil(n / 2)
        rand_pick = rng.choice(eligible, size=n_rand, replace=False)
        chosen = set(int(t) for t in rand_pick)
        n_hard = n - n_rand
        if n_hard > 0:
            rest = eligible[~np.isin(eligible, rand_pick)]
            own = (vn[:, rest] * bank.p[mask_classes[rest]].T).sum(axis=0)
            order = np.argsort(own, kind="stable")[:n_hard]
            chosen.update(int(t) for t in rest[order])
        for t in sorted(chosen):
            pos = int(mask_classes[t])
            negs = _select_negatives_loop(vn[:, t], pos, init, bank, rng)
            pairs.append((t, (pos,), (1.0,), negs))

    predicted = np.argmax(y_prob, axis=0)
    positions = annotations.positions
    classes = annotations.classes
    for n_idx in range(len(positions) - 1):
        lo, hi = int(positions[n_idx]), int(positions[n_idx + 1])
        ca, cb = int(classes[n_idx]), int(classes[n_idx + 1])
        if not {ca, cb} <= init_set:
            continue
        for t in range(lo + 1, min(hi, t_len)):
            wrong = int(predicted[t])
            if wrong in (ca, cb) or wrong not in init_set:
                continue
            if ca == cb:
                pairs.append((t, (ca,), (1.0,), (wrong,)))
            else:
                pairs.append((t, (ca, cb), (0.5, 0.5), (wrong,)))
    return pairs


def _select_negatives_loop(v_t, pos, init, bank, rng):
    candidates = np.array([c for c in init if c != pos], dtype=np.int64)
    if candidates.size == 0:
        return ()
    sims = bank.p[candidates] @ v_t
    k_hard = math.ceil(0.6 * candidates.size)
    order = np.argsort(-sims, kind="stable")[:k_hard]
    pool = candidates[order]
    k_keep = math.ceil(0.5 * pool.size)
    keep = rng.choice(pool, size=k_keep, replace=False)
    return tuple(int(c) for c in np.sort(keep))


def info_nce_loop(pairs, vn, bank, tau):
    """(mean loss, gradient wrt vn) over a list of pairs."""
    loss = 0.0
    d_vn = np.zeros_like(vn)
    for anchor, pos_classes, pos_weights, neg_classes in pairs:
        v = vn[:, anchor]
        p_pos = np.zeros(vn.shape[0])
        for c, w in zip(pos_classes, pos_weights):
            p_pos += w * bank.p[c]
        protos = [p_pos] + [bank.p[c] for c in neg_classes]
        logits = np.array([v @ p for p in protos]) / tau
        shift = logits.max()
        exp = np.exp(logits - shift)
        total = exp.sum()
        loss += float(np.log(total) + shift - logits[0])
        soft = exp / total
        grad = -p_pos / tau
        for p, s in zip(protos, soft):
            grad = grad + (s / tau) * p
        d_vn[:, anchor] += grad
    return loss / len(pairs), d_vn / len(pairs)


def to_batch(pairs, num_classes):
    """The ContrastBatch holding the same pairs in the same order."""
    a = len(pairs)
    pos_w = np.zeros((a, num_classes))
    neg = np.zeros((a, num_classes), dtype=bool)
    for i, (_, pos_classes, pos_weights, neg_classes) in enumerate(pairs):
        for c, w in zip(pos_classes, pos_weights):
            pos_w[i, c] += w
        neg[i, list(neg_classes)] = True
    return ContrastBatch([p[0] for p in pairs], pos_w, neg)


def l_conf_loop(y_prob, positions, classes):
    """(loss, gradient) of the confidence penalty, one hinge at a time."""
    positions = np.asarray(positions, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    n = positions.size
    t_prime = 2.0 * (positions[-1] - positions[0])
    clamped = np.maximum(y_prob, CLAMP)
    logp = np.log(clamped)
    loss = 0.0
    grad = np.zeros_like(y_prob)
    for idx in range(n):
        t_n = int(positions[idx])
        c = int(classes[idx])
        lo = int(positions[idx - 1]) if idx > 0 else t_n
        hi = int(positions[idx + 1]) if idx < n - 1 else t_n
        for t in range(lo + 1, hi + 1):
            if t > t_n:
                viol = logp[c, t] - logp[c, t - 1]
                sign = 1.0
            else:
                viol = logp[c, t - 1] - logp[c, t]
                sign = -1.0
            if viol > 0.0:
                loss += viol
                grad[c, t] += sign / clamped[c, t]
                grad[c, t - 1] -= sign / clamped[c, t - 1]
    return float(loss / t_prime), grad / t_prime


def normalize_two_class(q, t, class_a, class_b):
    """Scale (q[t,a], q[t,b]) to sum to one; (0.5, 0.5) when both vanish."""
    qa = float(q[t, class_a])
    qb = float(q[t, class_b])
    total = qa + qb
    if total <= 0.0:
        return 0.5, 0.5
    return qa / total, qb / total


def generate_loop(q, annotations, eps_hard):
    """Pseudo-labels built one interior sample at a time."""
    q = np.asarray(q, dtype=np.float64)
    t_len, c = q.shape
    positions = annotations.positions
    classes = annotations.classes
    y = np.zeros((c, t_len))
    hard = np.zeros(t_len, dtype=bool)

    first, last = int(positions[0]), int(positions[-1])
    y[int(classes[0]), : first + 1] = 1.0
    hard[: first + 1] = True
    y[:, last:] = 0.0
    y[int(classes[-1]), last:] = 1.0
    hard[last:] = True

    for n in range(positions.size - 1):
        t_n, t_next = int(positions[n]), int(positions[n + 1])
        a, b = int(classes[n]), int(classes[n + 1])
        y[:, t_n] = 0.0
        y[a, t_n] = 1.0
        hard[t_n] = True
        interior = t_next - t_n - 1
        if interior <= 0:
            continue
        if a == b:
            y[a, t_n + 1 : t_next] = 1.0
            hard[t_n + 1 : t_next] = True
            continue
        n_a, n_b = count_assignments(q, t_n + 1, t_next - 1, a, b)
        hard_a = int(np.floor(eps_hard * n_a))
        hard_b = int(np.floor(eps_hard * n_b))
        for offset in range(interior):
            t = t_n + 1 + offset
            if offset < hard_a:
                y[a, t] = 1.0
                hard[t] = True
            elif offset >= interior - hard_b:
                y[b, t] = 1.0
                hard[t] = True
            else:
                qa, qb = normalize_two_class(q, t, a, b)
                y[a, t] = qa
                y[b, t] = qb
    return PseudoLabels(y=y, hard_mask=hard)


class KernelOverflowError(ArithmeticError):
    """exp(score/reg) left the double range; rescale scores or raise reg."""


def sinkhorn_direct(problem, max_iters=5000, tol=1e-6):
    """Sinkhorn on the scaling vectors u, v of the kernel exp(S / reg) * T."""
    k = np.exp(problem.score / problem.reg)
    if problem.prior is not None:
        k = k * problem.prior
    if not np.all(np.isfinite(k)) or np.any(k.sum(axis=1) == 0) or np.any(k.sum(axis=0) == 0):
        raise KernelOverflowError(
            "kernel exp(score/reg) is not finite and positive; rescale scores or raise reg"
        )

    def residual(q):
        row = np.abs(q.sum(axis=1) - problem.alpha).max()
        col = np.abs(q.sum(axis=0) - problem.beta).max()
        return float(max(row, col))

    u = np.ones_like(problem.alpha)
    v = np.ones_like(problem.beta)
    iters = 0
    for iters in range(1, max_iters + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(problem.alpha > 0, problem.alpha / (k @ v), 0.0)
            v = np.where(problem.beta > 0, problem.beta / (k.T @ u), 0.0)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise KernelOverflowError("scaling vectors diverged; rescale scores or raise reg")
        q = u[:, None] * k * v[None, :]
        if residual(q) <= tol:
            return TransportPlan(q, iters, residual(q), True)
    q = u[:, None] * k * v[None, :]
    return TransportPlan(q, iters, residual(q), False)
