"""Loss values against scalar oracles and gradients against central
finite differences on pinned small instances (T=12, C=3)."""

import numpy as np
import pytest

from wsseg.losses import (
    LossWeights,
    combined,
    l_cls,
    l_conf,
    l_seg_all,
    l_seg_timestamps,
    l_smooth,
)

from conftest import assert_grad_close, central_difference
from loop_reference import l_conf_loop


def _probs(rng, c=3, t=12):
    return rng.dirichlet(np.ones(c), size=t).T.copy()


# ---------------------------------------------------------------- l_seg


def test_seg_timestamps_perfect_prediction_zero():
    y = np.zeros((3, 5))
    y[1, 2] = 1.0
    y[0, 4] = 1.0
    y[2, :] = 1e-30  # other columns irrelevant
    assert l_seg_timestamps(y, [2, 4], [1, 0])[0] == 0.0


def test_seg_timestamps_uniform_log_c():
    y = np.full((4, 6), 0.25)
    np.testing.assert_allclose(l_seg_timestamps(y, [1, 3], [0, 2])[0], np.log(4.0), rtol=1e-12)


def test_seg_timestamps_scalar_oracle():
    y = np.zeros((2, 4))
    y[0, 1] = 0.5
    y[1, 3] = 0.25
    got = l_seg_timestamps(y, [1, 3], [0, 1])[0]
    np.testing.assert_allclose(got, (np.log(2.0) + np.log(4.0)) / 2.0, rtol=1e-12)


def test_seg_timestamps_gradient(rng):
    y = _probs(rng)
    positions = np.array([0, 4, 9])
    classes = np.array([2, 0, 1])
    _, grad = l_seg_timestamps(y, positions, classes)
    numeric = central_difference(lambda: l_seg_timestamps(y, positions, classes)[0], y)
    assert_grad_close(grad, numeric)


# ------------------------------------------------------------- l_seg_all


def test_seg_all_one_hot_match_zero():
    y = np.zeros((3, 4))
    y[0] = 1.0
    assert l_seg_all(y, y.copy())[0] == 0.0


def test_seg_all_uniform_log2():
    y = np.full((2, 5), 0.5)
    np.testing.assert_allclose(l_seg_all(y, np.full((2, 5), 0.5))[0], np.log(2.0), rtol=1e-12)


def test_seg_all_scalar_oracle():
    y = np.array([[0.5], [0.5]])
    tilde = np.array([[0.75], [0.25]])
    np.testing.assert_allclose(l_seg_all(y, tilde)[0], np.log(2.0), rtol=1e-12)


def test_seg_all_reduces_to_seg_on_one_hot(rng):
    y = _probs(rng)
    labels = rng.integers(0, 3, size=12)
    tilde = np.zeros_like(y)
    tilde[labels, np.arange(12)] = 1.0
    via_soft = l_seg_all(y, tilde)[0]
    via_hard = l_seg_timestamps(y, np.arange(12), labels)[0]
    np.testing.assert_allclose(via_soft, via_hard, rtol=1e-12)


def test_seg_all_gradient(rng):
    y = _probs(rng)
    tilde = rng.dirichlet(np.ones(3), size=12).T
    _, grad = l_seg_all(y, tilde)
    numeric = central_difference(lambda: l_seg_all(y, tilde)[0], y)
    assert_grad_close(grad, numeric)


# -------------------------------------------------------------- l_smooth


def test_smooth_constant_zero(rng):
    col = rng.dirichlet(np.ones(3))
    y = np.repeat(col[:, None], 8, axis=1)
    np.testing.assert_allclose(l_smooth(y, 4.0)[0], 0.0, atol=1e-18)


def test_smooth_saturation():
    y = np.array([[1.0, 1e-9], [1e-12, 1.0]])
    y /= y.sum(axis=0, keepdims=True)
    tau = 0.5
    np.testing.assert_allclose(l_smooth(y, tau)[0], tau ** 2, rtol=1e-6)


def test_smooth_scalar_oracle():
    # degenerate C=1 rows with probs (1, e): delta = 1, below tau -> loss 1
    y = np.array([[1.0, np.e]])
    np.testing.assert_allclose(l_smooth(y, 4.0)[0], 1.0, rtol=1e-12)


def test_smooth_gradient(rng):
    y = _probs(rng)
    _, grad = l_smooth(y, 0.5)  # small tau exercises truncation
    numeric = central_difference(lambda: l_smooth(y, 0.5)[0], y)
    assert_grad_close(grad, numeric)


# ---------------------------------------------------------------- l_conf


def test_conf_unimodal_peak_zero():
    # each annotated class's log-probability peaks at its own timestamp
    # and decays monotonically away from it: every hinge stays inactive
    t = 13
    idx = np.arange(t)
    y = np.zeros((3, t))
    y[0] = 0.5 * np.exp(-0.3 * np.abs(idx - 3))
    y[1] = 0.5 * np.exp(-0.3 * np.abs(idx - 9))
    y[2] = 1.0 - y[0] - y[1]
    assert l_conf(y, [3, 9], [0, 1])[0] == 0.0


def test_conf_single_violation_oracle():
    t = 14
    positions = [2, 12]  # T' = 2 * 10 = 20
    y = np.zeros((3, t))
    y[0, :] = 0.4
    y[0, 5] = 0.4 * np.exp(0.2)  # rise of 0.2 in log space right of t_1
    y[1, :] = 0.3  # the annotated neighbor class stays flat
    y[2] = 1.0 - y[0] - y[1]  # unannotated class absorbs the bump
    got = l_conf(y, positions, [0, 1])[0]
    np.testing.assert_allclose(got, 0.2 / 20.0, rtol=1e-9)


def test_conf_mirror_symmetry():
    t = 21
    mid = 10
    y_right = np.full((2, t), 0.4)
    y_right[0, mid + 3] = 0.4 * np.exp(0.15)
    y_left = np.full((2, t), 0.4)
    y_left[0, mid - 3] = 0.4 * np.exp(0.15)
    for y in (y_right, y_left):
        y[1] = 1.0 - y[0]
    ann_p = [2, mid, t - 3]
    ann_c = [0, 0, 0]
    a = l_conf(y_right, ann_p, ann_c)[0]
    b = l_conf(y_left, ann_p, ann_c)[0]
    np.testing.assert_allclose(a, b, rtol=1e-12)
    assert a > 0.0


def test_conf_below_two_timestamps_raises():
    y = np.full((2, 6), 0.5)
    for positions, classes in (([3], [0]), ([], [])):
        with pytest.raises(ValueError, match="two timestamps"):
            l_conf(y, positions, classes)


def test_conf_rejects_unordered_timestamps():
    y = np.full((2, 8), 0.5)
    for positions in ([5, 2], [3, 3]):
        with pytest.raises(ValueError):
            l_conf(y, positions, [0, 1])


def test_conf_gradient(rng):
    y = _probs(rng)
    positions = np.array([1, 5, 10])
    classes = np.array([0, 2, 1])
    _, grad = l_conf(y, positions, classes)
    numeric = central_difference(lambda: l_conf(y, positions, classes)[0], y)
    assert_grad_close(grad, numeric)


def test_conf_matches_loop_reference():
    rng = np.random.default_rng(2021)
    for trial in range(200):
        c = int(rng.integers(2, 7))
        t = int(rng.integers(3, 160))
        y = _probs(rng, c=c, t=t)
        if trial % 3 == 0:  # flat stretches: exact ties leave hinges inactive
            y = np.round(y, 1) + 1e-3
        n = int(rng.integers(2, min(t, 10) + 1))
        positions = np.sort(rng.choice(t, size=n, replace=False))
        classes = rng.integers(0, c, size=n)
        loss, grad = l_conf(y, positions, classes)
        want_loss, want_grad = l_conf_loop(y, positions, classes)
        assert loss == l_conf(y, positions, classes)[0]
        np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


def test_conf_gradient_random_problems():
    rng = np.random.default_rng(55)
    for _ in range(20):
        c = int(rng.integers(2, 5))
        t = int(rng.integers(4, 16))
        # kept away from 0, where 1/y curvature spoils a central difference
        y = 0.5 * _probs(rng, c=c, t=t) + 0.5 / c
        n = int(rng.integers(2, min(t, 5) + 1))
        positions = np.sort(rng.choice(t, size=n, replace=False))
        classes = rng.integers(0, c, size=n)
        _, grad = l_conf(y, positions, classes)
        numeric = central_difference(
            lambda: l_conf(y, positions, classes)[0], y, step=1e-6
        )
        assert_grad_close(grad, numeric)


# ----------------------------------------------------------------- l_cls


def test_cls_zero_logits_log2(rng):
    logits = np.zeros(4)
    for targets in ([0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]):
        np.testing.assert_allclose(
            l_cls(logits, np.array(targets))[0], np.log(2.0), rtol=1e-12
        )


def test_cls_saturated_logit():
    logits = np.array([0.0, 20.0])
    targets = np.array([0, 1])
    assert l_cls(logits, targets)[0] <= 1e-8


def test_cls_scalar_oracle():
    logits = np.array([0.0, 1.0])
    targets = np.array([0, 1])
    np.testing.assert_allclose(
        l_cls(logits, targets)[0], -np.log(1.0 / (1.0 + np.exp(-1.0))), rtol=1e-12
    )


def test_cls_background_excluded():
    # a wildly wrong background logit and target change neither loss nor gradient
    logits = np.array([-40.0, 2.0, -1.0])
    targets = np.array([1, 1, 0])
    loss, grad = l_cls(logits, targets)
    clean_loss, clean_grad = l_cls(np.array([0.0, 2.0, -1.0]), np.array([0, 1, 0]))
    assert loss == clean_loss < 1.0
    np.testing.assert_array_equal(grad, clean_grad)
    assert grad[0] == 0.0
    with pytest.raises(ValueError, match="background"):
        l_cls(np.array([1.0]), np.array([1]))


def test_cls_gradient(rng):
    logits = rng.standard_normal(5)
    targets = (rng.random(5) > 0.5).astype(float)
    _, grad = l_cls(logits, targets)
    numeric = central_difference(lambda: l_cls(logits, targets)[0], logits)
    assert_grad_close(grad, numeric)


# -------------------------------------------------------------- combined


def test_combined_zero_weights_linearity():
    weights = LossWeights(lambda_con=0.0, lambda_s=0.0, lambda_conf=0.0)
    parts = {"cls": 0.4, "seg": 1.1, "con": 9.0, "smooth": 9.0, "conf": 9.0}
    np.testing.assert_allclose(combined(parts, weights), 1.5, rtol=1e-12)


def test_combined_doubling_lambda_s():
    w1 = LossWeights(lambda_s=0.2)
    w2 = LossWeights(lambda_s=0.4)
    parts = {"cls": 0.3, "seg": 0.7, "con": 0.1, "smooth": 0.9, "conf": 0.2}
    delta = combined(parts, w2) - combined(parts, w1)
    np.testing.assert_allclose(delta, 0.2 * 0.9, rtol=1e-12)


def test_combined_pseudo_uses_segall():
    weights = LossWeights(lambda_con=0.0, lambda_s=0.0, lambda_conf=0.0)
    parts = {"cls": 0.0, "segall": 2.5}
    np.testing.assert_allclose(combined(parts, weights), 2.5, rtol=1e-12)


def test_combined_matches_each_phase_formula_exactly(rng):
    # an absent term adds 0.0, which is exact, so summing the terms present
    # reproduces each phase's own formula bit for bit
    for _ in range(200):
        w = LossWeights(*rng.random(3))
        v = dict(zip(("cls", "seg", "segall", "con", "smooth", "conf"), rng.random(6) * 10))
        tail = w.lambda_s * v["smooth"] + w.lambda_conf * v["conf"]
        warmup = {k: v[k] for k in ("seg", "smooth", "conf")}
        timestamp = {k: v[k] for k in ("cls", "seg", "con", "smooth", "conf")}
        pseudo = {k: v[k] for k in ("cls", "segall", "con", "smooth", "conf")}
        assert combined(warmup, w) == v["seg"] + tail
        assert combined(timestamp, w) == v["cls"] + v["seg"] + w.lambda_con * v["con"] + tail
        assert combined(pseudo, w) == v["cls"] + v["segall"] + w.lambda_con * v["con"] + tail
        assert combined({}, w) == 0.0


@pytest.mark.parametrize("name, value", [
    ("lambda_s", True), ("tau_contrast", True), ("lambda_con", False), ("tau_trunc", "4.0"),
    ("lambda_conf", None),
])
def test_weights_reject_a_value_that_is_not_a_number(name, value):
    with pytest.raises(ValueError, match=name):
        LossWeights(**{name: value})


def test_all_losses_nonnegative_random(rng):
    for _ in range(25):
        y = _probs(rng)
        assert l_seg_timestamps(y, [0, 5], [1, 2])[0] >= 0.0
        assert l_seg_all(y, rng.dirichlet(np.ones(3), size=12).T)[0] >= 0.0
        assert l_smooth(y, 4.0)[0] >= 0.0
        assert l_conf(y, [2, 8], [0, 1])[0] >= 0.0
        assert l_cls(rng.standard_normal(3), rng.integers(0, 2, size=3))[0] >= 0.0
