"""Recognition and segmentation metrics.

``evaluate_many`` is the one scorer; its ``EvalReport`` holds every metric below.
Recognition: sample accuracy and class-average F-score. Segmentation:
class-average Jaccard index over sample sets, mean per-truth-segment IoU,
and the overfill/underfill (O/U) boundary-error fraction of Ward et al.,
"Performance metrics for activity recognition" (ACM TIST 2011).

Segments are maximal runs of one class. A segment's match is the segment
of the other stream with the same class and the largest overlap; ties go
to the earliest. A segment with no overlapping same-class segment has no
match. The IoU of a truth segment is that of its match, 0 without one.

A sample counts for O/U when its prediction is wrong and its truth
segment or its predicted segment has a match. A matched segment shares
its match's class, so such a sample lies outside the match: it is
underfill of its truth segment or overfill of its predicted one. Errors
inside unmatched segments are insertions or deletions, not O/U.

Every count comes from the runs between the change points of either
stream: each run is the overlap of exactly one (truth segment, predicted
segment) pair, and every overlapping pair has one run. Reports aggregate
across sequences by summing counts, never by concatenating label streams,
so segments never span two sequences.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class EvalReport:
    acc: float
    f_m: float  # mean F over classes present in truth
    ji: float  # mean Jaccard over classes present in truth or pred
    iou: float  # mean over truth segments of IoU with the match
    o_u: float  # O/U samples as a fraction of all samples
    per_class_f: np.ndarray  # (C,), 0 for classes absent from truth
    per_class_ji: np.ndarray  # (C,), 0 for classes absent from truth and pred
    num_classes: int

    def as_row(self):
        return {
            "acc": self.acc,
            "f_m": self.f_m,
            "ji": self.ji,
            "iou": self.iou,
            "o_u": self.o_u,
        }


def _check_pair(pred, truth, num_classes):
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError("prediction and truth must be equal-length non-empty 1-D label arrays")
    if pred.dtype.kind not in "iu" or truth.dtype.kind not in "iu":
        raise ValueError("labels must be integer class indices")
    pred, truth = pred.astype(np.int64, copy=False), truth.astype(np.int64, copy=False)
    if min(pred.min(), truth.min()) < 0:
        raise ValueError("labels must be non-negative class indices")
    if max(pred.max(), truth.max()) >= num_classes:
        raise ValueError("label index out of range for the declared class count")
    return pred, truth


def evaluate_many(pairs, num_classes):
    """Aggregate report over (pred, truth) label-array pairs."""
    if not pairs:
        raise ValueError("no (pred, truth) pairs to evaluate")
    tp = np.zeros(num_classes)
    n_pred = np.zeros(num_classes)
    n_truth = np.zeros(num_classes)
    total = 0
    iou_sum = 0.0
    iou_n = 0
    bad = 0
    for pred, truth in pairs:
        pred, truth = _check_pair(pred, truth, num_classes)
        tpi, n_pred_i, n_truth_i, s, n, b = _pair_counts(pred, truth, num_classes)
        tp += tpi
        n_pred += n_pred_i
        n_truth += n_truth_i
        total += pred.size
        iou_sum += s
        iou_n += n
        bad += b

    f, f_present = _f_scores(tp, fp=n_pred - tp, fn=n_truth - tp, truth_counts=n_truth)
    union = n_truth + n_pred - tp
    ji_present = union > 0
    ji = np.zeros(num_classes)
    ji[ji_present] = tp[ji_present] / union[ji_present]
    return EvalReport(
        acc=int(tp.sum()) / total,
        f_m=float(f[f_present].mean()) if f_present.any() else 0.0,
        ji=float(ji[ji_present].mean()) if ji_present.any() else 0.0,
        iou=iou_sum / iou_n if iou_n else 0.0,
        o_u=bad / total,
        per_class_f=f,
        per_class_ji=ji,
        num_classes=num_classes,
    )


def _pair_counts(pred, truth, num_classes):
    """Counts of one checked pair: the per-class bincounts ``tp``,
    ``n_pred`` and ``n_truth``, the IoU sum over truth segments, the number
    of truth segments and the number of O/U samples."""
    same = pred == truth
    tp = np.bincount(truth[same], minlength=num_classes)
    n_pred = np.bincount(pred, minlength=num_classes)
    n_truth = np.bincount(truth, minlength=num_classes)

    t_cut = truth[1:] != truth[:-1]
    p_cut = pred[1:] != pred[:-1]
    start = np.flatnonzero(np.concatenate(([True], t_cut | p_cut)))
    length = np.diff(np.append(start, pred.size))
    # segment ids per run, and segment lengths
    t_id = np.cumsum(np.concatenate(([False], t_cut)))[start]
    p_id = np.cumsum(np.concatenate(([False], p_cut)))[start]
    t_len = np.diff(np.flatnonzero(np.concatenate(([True], t_cut, [True]))))
    p_len = np.diff(np.flatnonzero(np.concatenate(([True], p_cut, [True]))))

    # Same-class runs are the candidate matches. Sorting them by (truth
    # segment, -length, run index) puts each truth segment's match first.
    run_same = same[start]
    cand = np.flatnonzero(run_same)
    order = cand[np.lexsort((cand, -length[cand], t_id[cand]))]
    best = order[np.diff(t_id[order], prepend=-1) != 0]
    ov = length[best]
    iou = ov / (t_len[t_id[best]] + p_len[p_id[best]] - ov)
    # left to right in truth-segment order; np.sum adds pairwise, which
    # changes the last bits of the reported IoU
    iou_sum = sum(iou.tolist())

    # O/U: wrong samples whose truth or predicted segment has a match
    t_matched = np.zeros(t_len.size, dtype=bool)
    p_matched = np.zeros(p_len.size, dtype=bool)
    t_matched[t_id[cand]] = True
    p_matched[p_id[cand]] = True
    wrong = ~run_same & (t_matched[t_id] | p_matched[p_id])
    bad = int(length[wrong].sum())
    return tp, n_pred, n_truth, iou_sum, t_len.size, bad


def _f_scores(tp, fp, fn, truth_counts):
    prec_den = tp + fp
    rec_den = tp + fn
    prec = np.divide(tp, prec_den, out=np.zeros_like(tp), where=prec_den > 0)
    rec = np.divide(tp, rec_den, out=np.zeros_like(tp), where=rec_den > 0)
    pr = prec + rec
    f = np.divide(2.0 * prec * rec, pr, out=np.zeros_like(tp), where=pr > 0)
    return f, truth_counts > 0
