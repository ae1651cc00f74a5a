"""Metric implementations against independent brute-force counting oracles."""

import numpy as np
import pytest

from wsseg.metrics import evaluate_many

# ------------------------------------------------------- brute-force oracles


def oracle_accuracy(pred, truth):
    return sum(1 for p, t in zip(pred, truth) if p == t) / len(pred)


def oracle_f(pred, truth):
    scores = []
    for c in sorted(set(truth)):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores) if scores else 0.0


def oracle_ji(pred, truth):
    scores = []
    for c in sorted(set(truth) | set(pred)):
        pred_set = {i for i, p in enumerate(pred) if p == c}
        truth_set = {i for i, t in enumerate(truth) if t == c}
        union = pred_set | truth_set
        if union:
            scores.append(len(pred_set & truth_set) / len(union))
    return sum(scores) / len(scores) if scores else 0.0


def oracle_segments(labels):
    segs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[i - 1]:
            segs.append((labels[start], start, i - 1))
            start = i
    return segs


def oracle_match(seg, pred_segs):
    best, best_ov = None, 0
    for ps in pred_segs:
        if ps[0] != seg[0]:
            continue
        ov = min(seg[2], ps[2]) - max(seg[1], ps[1]) + 1
        if ov > best_ov:
            best, best_ov = ps, ov
    return best


def oracle_iou(pred, truth):
    pred_segs = oracle_segments(pred)
    scores = []
    for seg in oracle_segments(truth):
        match = oracle_match(seg, pred_segs)
        if match is None:
            scores.append(0.0)
            continue
        samples = set(range(seg[1], seg[2] + 1))
        matched = set(range(match[1], match[2] + 1))
        scores.append(len(samples & matched) / len(samples | matched))
    return sum(scores) / len(scores) if scores else 0.0


def oracle_ou(pred, truth):
    """Set-based recount: underfill FNs inside truth segments outside the
    matched prediction, overfill FPs inside predicted segments outside the
    matched truth segment; union of marked samples over T."""
    pred_segs = oracle_segments(pred)
    truth_segs = oracle_segments(truth)
    marked = set()
    for seg in truth_segs:
        match = oracle_match(seg, pred_segs)
        if match is None or min(seg[2], match[2]) < max(seg[1], match[1]):
            continue
        inside = set(range(seg[1], seg[2] + 1))
        covered = set(range(match[1], match[2] + 1))
        marked |= {i for i in inside - covered if pred[i] != seg[0]}
    for seg in pred_segs:
        match = oracle_match(seg, truth_segs)
        if match is None or min(seg[2], match[2]) < max(seg[1], match[1]):
            continue
        inside = set(range(seg[1], seg[2] + 1))
        covered = set(range(match[1], match[2] + 1))
        marked |= {i for i in inside - covered if truth[i] != seg[0]}
    return len(marked) / len(pred)


# ----------------------------------------------------------------- tests


def score(pred, truth, num_classes):
    """The report of one sequence."""
    return evaluate_many([(pred, truth)], num_classes)


def test_accuracy_trivial_cases():
    assert score([0, 1, 2], [0, 1, 2], 3).acc == 1.0
    assert score([1, 2, 0], [0, 1, 2], 3).acc == 0.0
    assert score([0, 1, 1, 0], [0, 1, 0, 0], 2).acc == 0.75


def test_f_spec_example():
    truth = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    np.testing.assert_allclose(score(pred, truth, 2).f_m, (2 / 3 + 0.8) / 2, rtol=1e-12)


def test_f_absent_class_excluded():
    truth = [0, 0, 0, 0]
    pred = [0, 0, 0, 0]
    assert score(pred, truth, 5).f_m == 1.0


def test_ji_spec_example():
    truth = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    np.testing.assert_allclose(score(pred, truth, 2).ji, (0.5 + 2 / 3) / 2, rtol=1e-12)


def test_ji_disjoint_zero():
    assert score([1, 1, 0, 0], [0, 0, 1, 1], 2).ji == 0.0


def test_iou_spec_example():
    truth = [0, 0, 0, 0]
    pred = [0, 0, 1, 1]
    np.testing.assert_allclose(score(pred, truth, 2).iou, 0.5, rtol=1e-12)


@pytest.mark.parametrize(
    "pred, truth, want",
    [
        # truth 0 on [2,7]; predicted 0 on [0,3] (length 4) and [6,11]
        # (length 6) both overlap it by 2: the earlier, shorter one counts
        ([0, 0, 0, 0, 5, 5, 0, 0, 0, 0, 0, 0], [7, 7, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8], 2 / 8),
        # truth 0 on [5,10]; predicted 0 on [0,6] (length 7) and [9,11]
        # (length 3) both overlap it by 2: the earlier, longer one counts
        ([0] * 7 + [5, 5] + [0] * 3 + [6, 6], [7] * 5 + [0] * 6 + [8] * 3, 2 / 11),
    ],
    ids=["earlier-shorter", "earlier-longer"],
)
def test_iou_tie_goes_to_earliest_prediction(pred, truth, want):
    # the filler truth segments 7 and 8 have no match and score 0
    assert score(pred, truth, 9).iou == want / 3
    assert score(pred, truth, 9).iou == oracle_iou(pred, truth)


def test_iou_no_shared_class_zero():
    assert score([1, 1, 1], [0, 0, 0], 2).iou == 0.0


def test_ou_spec_examples():
    # truth A on [2,5] of T=8; filler classes never match so only the A
    # segment's boundary errors count
    truth = [7, 7, 0, 0, 0, 0, 8, 8]
    pred = [5, 0, 0, 0, 0, 0, 0, 6]  # matched A starts 1 earlier, ends 1 later
    np.testing.assert_allclose(score(pred, truth, 9).o_u, 2 / 8, rtol=1e-12)
    pred2 = [5, 5, 5, 0, 0, 6, 6, 6]  # matched A starts 1 later, ends 1 earlier
    np.testing.assert_allclose(score(pred2, truth, 9).o_u, 2 / 8, rtol=1e-12)


def test_ou_identity_zero(rng):
    labels = rng.integers(0, 4, size=50)
    assert score(labels, labels, 4).o_u == 0.0


def test_ou_spurious_boundary_never_decreases(rng):
    for _ in range(30):
        truth = np.repeat(rng.integers(0, 3, size=4), rng.integers(3, 8, size=4))
        pred = truth.copy()
        base = score(pred, truth, 3).o_u
        i = int(rng.integers(1, len(pred) - 1))
        pred2 = pred.copy()
        pred2[i] = (pred2[i] + 1) % 3
        assert score(pred2, truth, 3).o_u >= base


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        score([0, 1], [0, 1, 2], 3)


every_entry_point = pytest.mark.parametrize(
    "metric",
    [lambda pred, truth: evaluate_many([(pred, truth)], 3)],
    ids=["evaluate_many"],
)


@every_entry_point
def test_negative_labels_raise(metric):
    for pred, truth in (([-1, 0, 0], [0, 0, 0]), ([0, 0, 0], [0, -2, 0])):
        with pytest.raises(ValueError, match="non-negative"):
            metric(pred, truth)


@every_entry_point
def test_non_integer_labels_raise(metric):
    # a float label used to be truncated: [0.7, 1.2, 2.9] scored as [0, 1, 2]
    for pred, truth in (([0.7, 1.2, 2.9], [0, 1, 2]), ([0, 1, 2], [0.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="integer"):
            metric(pred, truth)


@pytest.mark.parametrize("seed", range(4))
def test_all_metrics_match_oracles_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        t = int(rng.integers(1, 65))
        c = int(rng.integers(2, 6))
        # segment-ish labels: random run lengths
        truth = rng.integers(0, c, size=t)
        pred = truth.copy()
        flips = rng.random(t) < 0.3
        pred[flips] = rng.integers(0, c, size=int(flips.sum()))
        p, tr = pred.tolist(), truth.tolist()
        report = score(pred, truth, c)
        assert report.acc == oracle_accuracy(p, tr)
        np.testing.assert_allclose(report.f_m, oracle_f(p, tr), rtol=1e-12)
        np.testing.assert_allclose(report.ji, oracle_ji(p, tr), rtol=1e-12)
        np.testing.assert_allclose(report.iou, oracle_iou(p, tr), rtol=1e-12)
        np.testing.assert_allclose(report.o_u, oracle_ou(p, tr), rtol=1e-12)
    # long pairs with hundreds of predicted segments, exact
    for _ in range(2):
        t = int(rng.integers(1000, 2001))
        c = int(rng.integers(2, 6))
        truth = np.repeat(rng.integers(0, c, size=t), rng.integers(5, 40, size=t))[:t]
        pred = truth.copy()
        flips = rng.random(t) < 0.15
        pred[flips] = rng.integers(0, c, size=int(flips.sum()))
        assert np.count_nonzero(np.diff(pred)) >= 100
        p, tr = pred.tolist(), truth.tolist()
        report = score(pred, truth, c)
        assert report.iou == oracle_iou(p, tr)
        assert report.o_u == oracle_ou(p, tr)


def test_relabeling_invariance(rng):
    truth = rng.integers(0, 4, size=40)
    pred = rng.integers(0, 4, size=40)
    perm = np.array([2, 3, 1, 0])
    base = score(pred, truth, 4).as_row()
    relabeled = score(perm[pred], perm[truth], 4).as_row()
    for field, value in base.items():
        np.testing.assert_allclose(value, relabeled[field], rtol=1e-12)


def test_report_aggregation_sums_counts(rng):
    pairs = []
    for _ in range(5):
        t = int(rng.integers(10, 40))
        truth = rng.integers(0, 3, size=t)
        pred = rng.integers(0, 3, size=t)
        pairs.append((pred, truth))
    report = evaluate_many(pairs, 3)
    # accuracy and F_m must equal the concatenated stream's
    cat = score(np.concatenate([p for p, _ in pairs]), np.concatenate([t for _, t in pairs]), 3)
    np.testing.assert_allclose(report.acc, cat.acc, rtol=1e-12)
    np.testing.assert_allclose(report.f_m, cat.f_m, rtol=1e-12)
    # segment metrics must NOT merge segments across sequence boundaries
    ious = [score(p, t, 3).iou for p, t in pairs]
    counts = [len(oracle_segments(t.tolist())) for _, t in pairs]
    want = sum(i * n for i, n in zip(ious, counts)) / sum(counts)
    np.testing.assert_allclose(report.iou, want, rtol=1e-12)
    assert report.per_class_f.shape == (3,)
    assert 0.0 <= report.o_u <= 1.0


def test_report_single_pair_fields(rng):
    truth = rng.integers(0, 3, size=30)
    pred = rng.integers(0, 3, size=30)
    report = score(pred, truth, 3)
    for value in report.as_row().values():
        assert 0.0 <= value <= 1.0


def test_evaluate_many_rejects_no_pairs():
    with pytest.raises(ValueError, match="no"):
        evaluate_many([], 3)
