"""Output checks computed apart from the program under test.

Each function returns a list of failure messages; an empty list means the
check passed. Nothing here calls wsseg's own metric, loss or label code:
scores, segment matching and marginals are recomputed from the raw arrays,
and the gradient check uses central finite differences of forward passes.
"""

import math

import numpy as np

SCORE_KEYS = ("acc", "f_m", "ji", "iou", "o_u")
SCORE_RTOL = 1e-12


def runs(labels):
    """(classes, starts, ends) of the maximal constant runs; ends inclusive."""
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [labels.size - 1]))
    return labels[starts], starts, ends


def _best_overlap(cls_a, s_a, e_a, cls_b, s_b, e_b):
    """For each run of A: index of the same-class run of B with the largest
    overlap (earliest on ties), its overlap, or -1 when B has no run of that
    class."""
    overlap = np.minimum(e_a[:, None], e_b[None, :]) - np.maximum(s_a[:, None], s_b[None, :]) + 1
    overlap = np.maximum(overlap, 0)
    same = cls_a[:, None] == cls_b[None, :]
    masked = np.where(same, overlap, -1)
    best = np.argmax(masked, axis=1)
    best_val = masked[np.arange(best.size), best]
    best[best_val < 0] = -1
    return best, best_val


def scores(pairs, num_classes):
    """Accuracy, class-average F, Jaccard index, segment IoU and O/U over
    (pred, truth) pairs, aggregated by summing counts across sequences."""
    c = num_classes
    tp = np.zeros(c)
    n_pred = np.zeros(c)
    n_truth = np.zeros(c)
    matches = total = 0
    iou_sum, iou_n, bad = 0.0, 0, 0
    for pred, truth in pairs:
        pred = np.asarray(pred, dtype=np.int64)
        truth = np.asarray(truth, dtype=np.int64)
        hit = pred == truth
        tp += np.bincount(truth[hit], minlength=c)
        n_pred += np.bincount(pred, minlength=c)
        n_truth += np.bincount(truth, minlength=c)
        matches += int(hit.sum())
        total += pred.size

        tc, ts, te = runs(truth)
        pc, ps, pe = runs(pred)
        t_match = _best_overlap(tc, ts, te, pc, ps, pe)
        p_match = _best_overlap(pc, ps, pe, tc, ts, te)
        best, ov = t_match
        for k in range(tc.size):
            if best[k] >= 0 and ov[k] > 0:
                j = best[k]
                iou_sum += ov[k] / (max(te[k], pe[j]) - min(ts[k], ps[j]) + 1)
        iou_n += tc.size

        # Boundary errors: the parts of a segment lying outside its matched
        # counterpart, where prediction and truth disagree.
        cover = np.zeros(pred.size + 1, dtype=np.int64)

        def mark(lo, hi):
            keep = lo <= hi
            np.add.at(cover, lo[keep], 1)
            np.add.at(cover, hi[keep] + 1, -1)

        for a_s, a_e, b_s, b_e, (m, v) in ((ts, te, ps, pe, t_match), (ps, pe, ts, te, p_match)):
            ok = (m >= 0) & (v > 0)
            a_s, a_e, mb = a_s[ok], a_e[ok], m[ok]
            mark(a_s, np.minimum(b_s[mb] - 1, a_e))
            mark(np.maximum(b_e[mb] + 1, a_s), a_e)
        region = np.cumsum(cover)[:-1] > 0
        bad += int((region & ~hit).sum())

    fp = n_pred - tp
    fn = n_truth - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        rec = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f = np.where(prec + rec > 0, 2 * prec * rec / (prec + rec), 0.0)
        union = n_truth + n_pred - tp
        ji = np.where(union > 0, tp / union, 0.0)
    present = n_truth > 0
    return {
        "acc": matches / total,
        "f_m": float(f[present].mean()) if present.any() else 0.0,
        "ji": float(ji[union > 0].mean()) if (union > 0).any() else 0.0,
        "iou": iou_sum / iou_n if iou_n else 0.0,
        "o_u": bad / total,
    }


def check_scores(reported, expected, keys=SCORE_KEYS):
    fails = []
    for k in keys:
        got, want = float(reported[k]), float(expected[k])
        if not math.isclose(got, want, rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL):
            fails.append(f"score {k}: program {got!r}, recomputed {want!r}")
    return fails


def check_prob_columns(prob, atol=1e-12):
    fails = []
    if not np.all(np.isfinite(prob)) or prob.min() < 0.0:
        fails.append("probabilities are negative or not finite")
    err = float(np.abs(prob.sum(axis=0) - 1.0).max())
    if err > atol:
        fails.append(f"probability columns deviate from 1 by {err:.3g}")
    return fails


def check_finite_log(record):
    bad = [k for k, v in record.items() if isinstance(v, float) and not math.isfinite(v)]
    return [f"log value {k} is not finite" for k in bad]


STEPS = (1e-6, 1e-7)
DIRECTIONS = 5
JITTER = 1e-3


def gradient_trials(net_mod, x, params, config, seed=0):
    """Yield (analytic, central difference) pairs: the derivative of a random
    linear functional of every network output along a random unit direction
    in parameter space, for ``DIRECTIONS`` directions and each of ``STEPS``.

    The network is smooth except where a ReLU input crosses zero, and an
    input that changes sign inside the stencil spoils the central difference.
    Trained parameters can leave an input within 1e-7 of zero, which then
    spoils every direction, so the parameters are first scaled by
    1 + ``JITTER`` * N(0, 1) per entry.
    """
    rng = np.random.default_rng(seed)
    params = {k: v * (1.0 + JITTER * rng.standard_normal(v.shape))
              for k, v in sorted(params.items())}
    outputs, cache = net_mod.forward_cached(x, params, config)
    for _ in range(DIRECTIONS):
        r_prob = [rng.standard_normal(p.shape) for p in outputs.y_prob]
        r_cls = rng.standard_normal(outputs.y_s_logits.shape)
        r_v = rng.standard_normal(outputs.v.shape)
        r_z = rng.standard_normal(outputs.z.shape)
        direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))

        def phi(t):
            out = net_mod.forward(x, {k: params[k] + (t / norm) * direction[k] for k in params},
                                  config)
            return (sum(float((r * p).sum()) for r, p in zip(r_prob, out.y_prob))
                    + float(r_cls @ out.y_s_logits) + float((r_v * out.v).sum())
                    + float((r_z * out.z).sum()))

        grads = net_mod.backward(
            net_mod.OutputGrads(dz=r_z, dy_prob=r_prob, dy_s_logits=r_cls, dv=r_v),
            cache, params, config,
        )
        analytic = sum(float((grads[k] * direction[k]).sum()) for k in direction) / norm
        for h in STEPS:
            yield analytic, (phi(h) - phi(-h)) / (2 * h)


def check_gradient(trials, rtol=1e-6):
    """Passes when one trial agrees to ``rtol``. A wrong gradient disagrees
    in every direction; a correct one only where a kink is crossed."""
    last = None
    for analytic, numeric in trials:
        err = abs(analytic - numeric) / max(abs(numeric), 1e-12)
        if err <= rtol:
            return []
        last = (analytic, numeric, err)
    return [f"backward disagrees with central differences in every direction and step;"
            f" last {last[0]!r} vs {last[1]!r} (relative error {last[2]:.3g})"]


def check_plan(q, converged, tol, mass_atol=1e-9):
    """A transport plan with uniform marginals over (T, m)."""
    fails = []
    if not np.all(np.isfinite(q)) or q.min() < 0.0:
        fails.append("plan has negative or non-finite entries")
    mass = float(q.sum())
    if abs(mass - 1.0) > mass_atol:
        fails.append(f"plan mass is {mass!r}, not 1")
    if converged:
        n, m = q.shape
        row = float(np.abs(q.sum(axis=1) - 1.0 / n).max())
        col = float(np.abs(q.sum(axis=0) - 1.0 / m).max())
        if max(row, col) > tol:
            fails.append(f"converged plan misses its marginals: row {row:.3g},"
                         f" column {col:.3g}, tolerance {tol:.3g}")
    return fails


def check_pseudo(y, positions, classes, atol=1e-12):
    """Pseudo-label matrix (C, T) against its timestamp annotations."""
    fails = []
    positions = np.asarray(positions, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    c, t_len = y.shape
    if not np.all(np.isfinite(y)) or y.min() < 0.0:
        fails.append("pseudo-labels are negative or not finite")
    err = float(np.abs(y.sum(axis=0) - 1.0).max())
    if err > atol:
        fails.append(f"pseudo-label columns deviate from 1 by {err:.3g}")
    onehot = np.zeros((c, positions.size))
    onehot[classes, np.arange(positions.size)] = 1.0
    if not np.array_equal(y[:, positions], onehot):
        fails.append("pseudo-labels are not one-hot in the annotated class at a timestamp")
    # The classes of the timestamps flanking each sample; before the first
    # and after the last timestamp both are the nearest one.
    t = np.arange(t_len)
    idx = np.searchsorted(positions, t, side="right") - 1
    left = classes[np.clip(idx, 0, None)]
    right = classes[np.clip(idx + 1, 0, positions.size - 1)]
    allowed = np.zeros((c, t_len), dtype=bool)
    allowed[left, t] = True
    allowed[right, t] = True
    if np.any(y[~allowed] != 0.0):
        fails.append("pseudo-labels put mass outside the two flanking classes")
    return fails


def receptive_radius(config):
    """Samples on each side that can reach one output of the final stage."""
    per_stage = sum(config.dilation(l) * (config.kernel_width - 1) // 2
                    for l in range(config.layers_per_stage))
    return config.stages * per_stage


def check_window(full_prob, window_prob, start, radius, atol=1e-10):
    """Predictions on a window [start, start + W) equal the full-sequence
    predictions farther than ``radius`` from the window's edges."""
    w = window_prob.shape[1]
    if w <= 2 * radius:
        return [f"window of {w} samples has no interior at radius {radius}"]
    a = full_prob[:, start + radius: start + w - radius]
    b = window_prob[:, radius: w - radius]
    fails = []
    err = float(np.abs(a - b).max())
    if err > atol:
        fails.append(f"window probabilities differ from the full sequence by {err:.3g}")
    top2 = np.sort(a, axis=0)[-2:]
    clear = (top2[1] - top2[0]) > atol
    if np.any((np.argmax(a, axis=0) != np.argmax(b, axis=0)) & clear):
        fails.append("window predictions differ from the full-sequence predictions")
    return fails
