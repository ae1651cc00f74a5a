"""Loop references for the package's array code, and a cross-check
Sinkhorn.

The per-pair and per-sample loops are the straightforward versions the
array code replaced, kept as oracles: contrast mining must pick the same
pairs (same RNG draw order), InfoNCE and the confidence loss must give
the same loss and gradient up to summation order, and pseudo-label
generation must give exactly the same labels. A pair is
``(anchor, pos_classes, pos_weights, neg_classes)``. The pseudo-label
reference counts each interval's samples per class itself, one sample at
a time, so a defect in the package's counting cannot hide in both.

Two Sinkhorn references cross-check the package's stabilized scaling
solver: ``sinkhorn_log`` iterates log-domain potentials and forms the plan
every iteration, so it must stop at the same iteration with the same plan
up to rounding; ``sinkhorn_direct`` iterates the scaling vectors of
``exp(S / reg)`` with no stabilization at all.

``mix_supervision_loop`` collects the promoted samples in a dict keyed by
position; the array version must draw the same picks and return equal
arrays. ``make_crops_loop`` returns one whole-sequence crop early for a
short sequence or at most one timestamp, and walks the midpoints one
Python int at a time; the array version must return an equal list.

The padded conv kernels are the network's previous dilated convolution:
the forward starts from the repeated bias, and the backward adds each
tap's input gradient into a strided slice of a zero-padded buffer. The
package's dense kernels must give the same forward bit for bit, and the
same backward up to the last bits of a GEMM.
"""

import math

import numpy as np

from wsseg.contrast import ContrastBatch
from wsseg.otrans import TransportPlan
from wsseg.pseudo import PseudoLabels
from wsseg.seqdata import segments_of

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


def mix_supervision_loop(annotations, labels, fraction, seed):
    if fraction == 0.0:
        return annotations.positions.copy(), annotations.classes.copy()
    rng = np.random.default_rng(seed)
    chosen = {int(p): int(c) for p, c in zip(annotations.positions, annotations.classes)}
    for c, start, stop in zip(*segments_of(labels.labels)):
        k = int(np.floor(fraction * (stop - start)))
        if k == 0:
            continue
        picks = rng.choice(np.arange(start, stop), size=k, replace=False)
        for p in picks:
            chosen[int(p)] = int(c)
    positions = np.array(sorted(chosen), dtype=np.int64)
    classes = np.array([chosen[int(p)] for p in positions], dtype=np.int64)
    return positions, classes


def make_crops_loop(t_len, annotations, crop_len):
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
        n_a = n_b = 0
        for t in range(t_n + 1, t_next):
            if q[t, a] >= q[t, b]:
                n_a += 1
            else:
                n_b += 1
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


def _residual(q, problem):
    row = np.abs(q.sum(axis=1) - problem.alpha).max()
    col = np.abs(q.sum(axis=0) - problem.beta).max()
    return float(max(row, col))


def _lse(a, axis):
    peak = a.max(axis=axis, keepdims=True)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    return np.log(np.exp(a - safe).sum(axis=axis)) + np.squeeze(safe, axis=axis)


def sinkhorn_log(problem, max_iters=5000, tol=1e-6):
    """Sinkhorn on the log-domain potentials f, g of exp(S / reg) * T,
    stopping on the worst row or column deviation of the full plan."""
    log_k = problem.score / problem.reg
    if problem.log_prior is not None:
        log_k = log_k + problem.log_prior
    with np.errstate(divide="ignore"):
        log_a = np.log(problem.alpha)
        log_b = np.log(problem.beta)
    f = np.zeros_like(log_a)
    g = np.zeros_like(log_b)
    iters = 0
    for iters in range(1, max_iters + 1):
        f = log_a - _lse(log_k + g[None, :], axis=1)
        g = log_b - _lse(log_k + f[:, None], axis=0)
        q = np.exp(f[:, None] + log_k + g[None, :])
        residual = _residual(q, problem)
        if residual <= tol:
            return TransportPlan(q, iters, residual, True)
    q = np.exp(f[:, None] + log_k + g[None, :])
    return TransportPlan(q, iters, _residual(q, problem), False)


def sinkhorn_direct(problem, max_iters=5000, tol=1e-6):
    """Sinkhorn on the scaling vectors u, v of the kernel exp(S / reg) * T."""
    with np.errstate(over="ignore"):  # an overflowed kernel raises below
        k = np.exp(problem.score / problem.reg)
        if problem.log_prior is not None:
            k = k * np.exp(problem.log_prior)
    if not np.all(np.isfinite(k)) or np.any(k.sum(axis=1) == 0) or np.any(k.sum(axis=0) == 0):
        raise KernelOverflowError(
            "kernel exp(score/reg) is not finite and positive; rescale scores or raise reg"
        )

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
        if _residual(q, problem) <= tol:
            return TransportPlan(q, iters, _residual(q, problem), True)
    q = u[:, None] * k * v[None, :]
    return TransportPlan(q, iters, _residual(q, problem), False)


def conv_forward_padded(x, w, b, dilation):
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    xp = np.zeros((cin, t_len + 2 * pad))
    xp[:, pad : pad + t_len] = x
    out = np.repeat(b[:, None], t_len, axis=1)
    for k in range(kw):
        out += w[:, :, k] @ xp[:, k * dilation : k * dilation + t_len]
    return out


def conv_backward_padded(x, w, dilation, d_out):
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    xp = np.zeros((cin, t_len + 2 * pad))
    xp[:, pad : pad + t_len] = x
    d_xp = np.zeros_like(xp)
    d_w = np.empty_like(w)
    for k in range(kw):
        sl = slice(k * dilation, k * dilation + t_len)
        d_xp[:, sl] += w[:, :, k].T @ d_out
        d_w[:, :, k] = d_out @ xp[:, sl].T
    d_x = d_xp[:, pad : pad + t_len]
    d_b = d_out.sum(axis=1)
    return d_x, d_w, d_b
