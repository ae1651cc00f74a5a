"""Recognition and segmentation metrics.

Recognition: sample accuracy and class-average F-score. Segmentation:
class-average Jaccard index over sample sets, mean per-truth-segment IoU
against the maximally-overlapping same-class prediction, and the Ward
overfill/underfill boundary-error fraction. Reports aggregate across
sequences by summing counts, never by concatenating label streams, so
segment structure is preserved.
"""

from dataclasses import dataclass

import numpy as np

from .seqdata import DenseLabels, segments_of


@dataclass
class EvalReport:
    acc: float
    f_m: float
    ji: float
    iou: float
    o_u: float
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


def _check_pair(pred, truth):
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("prediction and truth must be equal-length 1-D label arrays")
    return pred, truth


def accuracy(pred, truth):
    """Fraction of matching samples."""
    pred, truth = _check_pair(pred, truth)
    return int((pred == truth).sum()) / pred.size


def class_average_f(pred, truth, num_classes=None):
    """Mean F-score over the classes present in the truth."""
    pred, truth = _check_pair(pred, truth)
    if num_classes is None:
        num_classes = int(max(pred.max(), truth.max())) + 1
    tp, fp, fn = _confusion_counts(pred, truth, num_classes)
    f, present = _f_scores(tp, fp, fn, truth_counts=np.bincount(truth, minlength=num_classes))
    return float(f[present].mean()) if present.any() else 0.0


def jaccard_index(pred, truth, num_classes=None):
    """Mean over classes present in truth or pred of |inter| / |union|
    between the two classes' sample sets."""
    pred, truth = _check_pair(pred, truth)
    if num_classes is None:
        num_classes = int(max(pred.max(), truth.max())) + 1
    inter, union = _set_counts(pred, truth, num_classes)
    present = union > 0
    ji = np.zeros(num_classes)
    ji[present] = inter[present] / union[present]
    return float(ji[present].mean()) if present.any() else 0.0


def segment_iou(pred, truth, num_classes=None):
    """Mean over truth segments of IoU with the best same-class prediction."""
    pred, truth = _check_pair(pred, truth)
    total, count = _segment_iou_counts(pred, truth)
    return total / count if count else 0.0


def overfill_underfill(pred, truth):
    """Boundary-error samples of matched segments as a fraction of T."""
    pred, truth = _check_pair(pred, truth)
    bad = _overfill_counts(pred, truth)
    return bad / pred.size


def evaluate_pair(pred, truth, num_classes):
    """Full report for a single sequence."""
    return evaluate_many([(pred, truth)], num_classes)


def evaluate_many(pairs, num_classes):
    """Aggregate report over (pred, truth) label-array pairs."""
    if not pairs:
        raise ValueError("no (pred, truth) pairs to evaluate")
    tp = np.zeros(num_classes)
    fp = np.zeros(num_classes)
    fn = np.zeros(num_classes)
    inter = np.zeros(num_classes)
    union = np.zeros(num_classes)
    truth_counts = np.zeros(num_classes)
    pred_counts = np.zeros(num_classes)
    matches = 0
    total = 0
    iou_sum = 0.0
    iou_n = 0
    bad = 0
    for pred, truth in pairs:
        pred, truth = _check_pair(pred, truth)
        if max(int(pred.max()), int(truth.max())) >= num_classes:
            raise ValueError("label index out of range for the declared class count")
        tpi, fpi, fni = _confusion_counts(pred, truth, num_classes)
        tp += tpi
        fp += fpi
        fn += fni
        ii, ui = _set_counts(pred, truth, num_classes)
        inter += ii
        union += ui
        truth_counts += np.bincount(truth, minlength=num_classes)
        pred_counts += np.bincount(pred, minlength=num_classes)
        matches += int((pred == truth).sum())
        total += pred.size
        s, n = _segment_iou_counts(pred, truth)
        iou_sum += s
        iou_n += n
        bad += _overfill_counts(pred, truth)

    f, f_present = _f_scores(tp, fp, fn, truth_counts=truth_counts)
    ji_present = union > 0
    ji = np.zeros(num_classes)
    ji[ji_present] = inter[ji_present] / union[ji_present]
    return EvalReport(
        acc=matches / total,
        f_m=float(f[f_present].mean()) if f_present.any() else 0.0,
        ji=float(ji[ji_present].mean()) if ji_present.any() else 0.0,
        iou=iou_sum / iou_n if iou_n else 0.0,
        o_u=bad / total,
        per_class_f=f,
        per_class_ji=ji,
        num_classes=num_classes,
    )


def _confusion_counts(pred, truth, num_classes):
    tp = np.zeros(num_classes)
    fp = np.zeros(num_classes)
    fn = np.zeros(num_classes)
    match = pred == truth
    np.add.at(tp, truth[match], 1.0)
    np.add.at(fp, pred[~match], 1.0)
    np.add.at(fn, truth[~match], 1.0)
    return tp, fp, fn


def _f_scores(tp, fp, fn, truth_counts):
    prec_den = tp + fp
    rec_den = tp + fn
    prec = np.divide(tp, prec_den, out=np.zeros_like(tp), where=prec_den > 0)
    rec = np.divide(tp, rec_den, out=np.zeros_like(tp), where=rec_den > 0)
    pr = prec + rec
    f = np.divide(2.0 * prec * rec, pr, out=np.zeros_like(tp), where=pr > 0)
    return f, truth_counts > 0


def _set_counts(pred, truth, num_classes):
    inter = np.zeros(num_classes)
    union = np.zeros(num_classes)
    match = pred == truth
    np.add.at(inter, truth[match], 1.0)
    np.add.at(union, truth, 1.0)
    np.add.at(union, pred[~match], 1.0)
    return inter, union


def _segment_iou_counts(pred, truth):
    c = int(max(pred.max(), truth.max())) + 1
    pred_segs = segments_of(DenseLabels(pred, c))
    truth_segs = segments_of(DenseLabels(truth, c))
    total = 0.0
    for ts in truth_segs:
        best = _best_match(ts, pred_segs)
        if best is None:
            continue
        inter = min(ts.end, best.end) - max(ts.start, best.start) + 1
        union = max(ts.end, best.end) - min(ts.start, best.start) + 1
        total += max(inter, 0) / union
    return total, len(truth_segs)


def _overfill_counts(pred, truth):
    """Samples in error at matched-segment boundaries, each counted once.

    Underfill: inside a truth segment, before/after its matched prediction,
    where the prediction misses the class. Overfill: inside a predicted
    segment, before/after its matched truth segment, where the truth
    differs. Unmatched segments are insertions/deletions, not O/U.
    """
    c = int(max(pred.max(), truth.max())) + 1
    pred_segs = segments_of(DenseLabels(pred, c))
    truth_segs = segments_of(DenseLabels(truth, c))
    bad = np.zeros(pred.size, dtype=bool)
    for ts in truth_segs:
        ps = _best_match(ts, pred_segs, require_overlap=True)
        if ps is None:
            continue
        for lo, hi in ((ts.start, min(ps.start - 1, ts.end)), (max(ps.end + 1, ts.start), ts.end)):
            if lo <= hi:
                span = slice(lo, hi + 1)
                bad[span] |= pred[span] != ts.class_index
    for ps in pred_segs:
        ts = _best_match(ps, truth_segs, require_overlap=True)
        if ts is None:
            continue
        for lo, hi in ((ps.start, min(ts.start - 1, ps.end)), (max(ts.end + 1, ps.start), ps.end)):
            if lo <= hi:
                span = slice(lo, hi + 1)
                bad[span] |= truth[span] != ps.class_index
    return int(bad.sum())


def _best_match(truth_seg, pred_segs, require_overlap=False):
    """Same-class predicted segment with maximal overlap; ties go to the
    earliest predicted segment."""
    best = None
    best_overlap = -1
    for ps in pred_segs:
        if ps.class_index != truth_seg.class_index:
            continue
        overlap = min(truth_seg.end, ps.end) - max(truth_seg.start, ps.start) + 1
        overlap = max(overlap, 0)
        if overlap > best_overlap:
            best = ps
            best_overlap = overlap
    if require_overlap and best_overlap <= 0:
        return None
    return best
