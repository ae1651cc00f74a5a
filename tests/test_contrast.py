"""Hard-example mining and sample-to-prototype InfoNCE."""

import math

import numpy as np
import pytest

from wsseg.contrast import TAU, ContrastBatch, _choices, info_nce, mine_pairs
from wsseg.proto import PrototypeBank, update_bank
from wsseg.seqdata import TimestampAnnotations

from conftest import assert_grad_close, central_difference
from loop_reference import info_nce_loop, mine_pairs_loop, to_batch


def _bank(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    bank = PrototypeBank(vectors.shape[0], vectors.shape[1])
    for c, v in enumerate(vectors):
        if np.any(v != 0.0):
            update_bank(bank, c, v)
    return bank


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _is_mixture(batch):
    return (batch.pos_w > 0.0).sum(axis=1) == 2


def _setup(rng, t_len=40, c=4, dim=6):
    vn = _unit_rows(rng, t_len, dim).T
    bank = _bank(_unit_rows(rng, c, dim))
    mask = rng.integers(0, c, size=t_len)
    y_prob = rng.dirichlet(np.ones(c), size=t_len).T
    ann = TimestampAnnotations(np.array([5, 20, 35]), np.array([1, 2, 3]))
    return vn, bank, mask, y_prob, ann


def test_mine_requires_two_initialized_classes(rng):
    vn, _, mask, y_prob, ann = _setup(rng)
    poor = PrototypeBank(4, 6)
    update_bank(poor, 1, np.ones(6) / np.sqrt(6))
    assert not mine_pairs(vn, mask, y_prob, ann, poor, seed=0)


def test_mine_two_class_pool_degenerates_to_single_negative(rng):
    vn, _, _, _, ann = _setup(rng, c=2)
    bank = _bank(_unit_rows(rng, 2, 6))
    mask = rng.integers(0, 2, size=40)
    y_prob = rng.dirichlet(np.ones(2), size=40).T
    ann2 = TimestampAnnotations(np.array([5, 20]), np.array([0, 1]))
    batch = mine_pairs(vn, mask, y_prob, ann2, bank, seed=3)
    regular = ~_is_mixture(batch)
    assert regular.any() and np.all(batch.neg[regular].sum(axis=1) == 1)


def test_mine_empty_without_eligible_samples_or_two_timestamps(rng):
    vn, _, _, y_prob, _ = _setup(rng)
    bank = _bank([[1.0, 0.0, 0, 0, 0, 0], [0.0, 1.0, 0, 0, 0, 0], [0] * 6, [0] * 6])
    mask = np.full(vn.shape[1], 3)  # every sample in an uninitialized class
    one = TimestampAnnotations(np.array([5]), np.array([1]))
    batch = mine_pairs(vn, mask, y_prob, one, bank, seed=0)
    assert not batch and batch.pos_w.shape == batch.neg.shape == (0, 4)


def test_mine_no_constraint_pairs_when_predictions_agree(rng):
    vn, bank, _, _, _ = _setup(rng)
    t_len = vn.shape[1]
    ann = TimestampAnnotations(np.array([0, t_len - 1]), np.array([1, 2]))
    mask = np.ones(t_len, dtype=int)
    y_prob = np.zeros((4, t_len))
    y_prob[1, : t_len // 2] = 1.0  # every prediction matches a flanking class
    y_prob[2, t_len // 2 :] = 1.0
    batch = mine_pairs(vn, mask, y_prob, ann, bank, seed=1, anchor_count=8)
    assert len(batch) and not _is_mixture(batch).any()


def test_mine_constraint_pairs_for_misclassified_middle(rng):
    vn, bank, _, _, _ = _setup(rng)
    t_len = vn.shape[1]
    ann = TimestampAnnotations(np.array([0, t_len - 1]), np.array([1, 2]))
    mask = np.ones(t_len, dtype=int)
    y_prob = np.zeros((4, t_len))
    y_prob[1] = 1.0
    y_prob[:, 7] = 0.0
    y_prob[3, 7] = 1.0  # class 3 is neither flanking class
    batch = mine_pairs(vn, mask, y_prob, ann, bank, seed=1, anchor_count=8)
    mixtures = np.flatnonzero(_is_mixture(batch))
    assert mixtures.size == 1
    i = mixtures[0]
    assert batch.anchors[i] == 7
    np.testing.assert_array_equal(batch.pos_w[i], [0.0, 0.5, 0.5, 0.0])
    np.testing.assert_array_equal(np.flatnonzero(batch.neg[i]), [3])


def test_mine_deterministic(rng):
    vn, bank, mask, y_prob, ann = _setup(rng)
    a = mine_pairs(vn, mask, y_prob, ann, bank, seed=77)
    b = mine_pairs(vn, mask, y_prob, ann, bank, seed=77)
    for field in ("anchors", "pos_w", "neg"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_mine_never_shares_pos_and_neg(rng):
    for seed in range(10):
        vn, bank, mask, y_prob, ann = _setup(rng)
        batch = mine_pairs(vn, mask, y_prob, ann, bank, seed=seed, anchor_count=16)
        assert len(batch)
        assert not ((batch.pos_w > 0.0) & batch.neg).any()


def test_contrast_batch_rejects_overlap():
    with pytest.raises(ValueError):
        to_batch([(0, (1,), (1.0,), (1, 2))], 3)
    with pytest.raises(ValueError):
        to_batch([(0, (1,), (1.0,), (2,)), (4, (0, 2), (0.5, 0.5), (2,))], 3)


def test_contrast_batch_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        ContrastBatch([0, 1], np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))
    with pytest.raises(ValueError):
        ContrastBatch([0], np.zeros((1, 3)), np.zeros((1, 2), dtype=bool))


def test_contrast_batch_refuses_anchors_that_are_not_integer():
    with pytest.raises(ValueError, match="anchors must be integer indices"):
        ContrastBatch([0.5, 2.0], np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))


def test_contrast_batch_length_is_pair_count():
    batch = to_batch([(0, (0,), (1.0,), (1,)), (0, (1, 2), (0.5, 0.5), (0,))], 3)
    assert len(batch) == 2 and batch
    assert not ContrastBatch(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))


def test_info_nce_no_negatives_is_zero(rng):
    vn = _unit_rows(rng, 3, 4).T
    bank = _bank(_unit_rows(rng, 2, 4))
    batch = to_batch([(0, (1,), (1.0,), ())], 2)
    assert info_nce(batch, vn, bank)[0] == 0.0


def test_info_nce_symmetric_similarities_log2():
    vn = np.array([[1.0], [0.0]])
    bank = _bank([[1.0, 0.0], [1.0, 0.0]])  # both prototypes equal: v.P equal
    batch = to_batch([(0, (0,), (1.0,), (1,))], 2)
    loss = info_nce(batch, vn, bank)[0]
    np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)


def test_info_nce_scalar_oracle():
    # v.P_pos = TAU, v.P_neg = -TAU: logits 1 and -1 -> -log(e / (e + e^-1))
    vn = np.array([[1.0], [0.0]])
    bank = _bank([[TAU, 0.0], [-TAU, 0.0]])
    batch = to_batch([(0, (0,), (1.0,), (1,))], 2)
    loss = info_nce(batch, vn, bank)[0]
    np.testing.assert_allclose(loss, 0.126928011042972, rtol=1e-10)


def test_info_nce_shift_invariance(rng):
    vn = _unit_rows(rng, 1, 3).T
    base = _unit_rows(rng, 3, 3)
    batch = to_batch([(0, (0,), (1.0,), (1, 2))], 3)
    loss_a = info_nce(batch, vn, _bank(base))[0]
    # adding a constant vector along v to every prototype shifts all
    # similarities of the single anchor equally
    shift = 0.37 * vn[:, 0]
    loss_b = info_nce(batch, vn, _bank(base + shift))[0]
    np.testing.assert_allclose(loss_a, loss_b, atol=1e-10)


def test_info_nce_nonnegative(rng):
    for seed in range(10):
        local = np.random.default_rng(seed)
        vn, bank, mask, y_prob, ann = _setup(local)
        batch = mine_pairs(vn, mask, y_prob, ann, bank, seed=seed)
        if batch:
            assert info_nce(batch, vn, bank)[0] >= 0.0


def test_info_nce_requires_a_non_empty_batch(rng):
    vn = _unit_rows(rng, 2, 3).T
    bank = _bank(_unit_rows(rng, 2, 3))
    with pytest.raises(ValueError, match="batch must be non-empty"):
        info_nce(to_batch([], 2), vn, bank)


def test_info_nce_gradient_matches_finite_differences(rng):
    vn = _unit_rows(rng, 6, 4).T.copy()
    bank = _bank(_unit_rows(rng, 3, 4))
    batch = to_batch(
        [
            (0, (0,), (1.0,), (1, 2)),
            (2, (1, 2), (0.5, 0.5), (0,)),
            (4, (2,), (1.0,), (0,)),
            (2, (0,), (1.0,), (1,)),  # a repeated anchor accumulates both gradients
        ],
        3,
    )
    loss, grad = info_nce(batch, vn, bank)
    numeric = central_difference(lambda: info_nce(batch, vn, bank)[0], vn, step=1e-4)
    assert_grad_close(grad, numeric)


def test_info_nce_gradient_is_the_strided_accumulation_bitwise():
    """The row accumulation gives the bits of ``np.add.at`` on the
    transposed gradient, repeated anchors included, and a C-contiguous
    result."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        t_len, c, dim = int(rng.integers(2, 60)), int(rng.integers(2, 6)), int(rng.integers(1, 9))
        vn = _unit_rows(rng, t_len, dim).T
        bank = _bank(_unit_rows(rng, c, dim))
        a = int(rng.integers(1, 3 * t_len))
        anchors = rng.integers(0, t_len, size=a)  # repeats certain for a > t_len
        pos = rng.integers(0, c, size=a)
        pos_w = np.zeros((a, c))
        pos_w[np.arange(a), pos] = 1.0
        neg = rng.random((a, c)) < 0.5
        neg[np.arange(a), pos] = False
        batch = ContrastBatch(anchors, pos_w, neg)
        _, got = info_nce(batch, vn, bank)
        # the coefficients of info_nce, scattered onto the strided transpose
        logits = vn[:, anchors].T @ bank.p.T / TAU
        s_pos = (pos_w * logits).sum(axis=1)
        s_neg = np.where(neg, logits, -np.inf)
        shift = np.maximum(s_pos, s_neg.max(axis=1))
        e_pos, e_neg = np.exp(s_pos - shift), np.exp(s_neg - shift[:, None])
        total = e_pos + e_neg.sum(axis=1)
        coef = ((e_pos / total - 1.0)[:, None] * pos_w + e_neg / total[:, None]) / (TAU * a)
        want = np.zeros_like(vn)
        np.add.at(want.T, anchors, coef @ bank.p)
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_info_nce_mixture_positive_uses_weighted_vector(rng):
    vn = np.array([[1.0], [0.0]])
    bank = _bank([[0.6, 0.8], [0.6, -0.8], [-1.0, 0.0]])
    batch = to_batch([(0, (0, 1), (0.5, 0.5), (2,))], 3)
    p_mix = 0.5 * bank.p[0] + 0.5 * bank.p[1]
    s_pos = p_mix @ vn[:, 0] / TAU
    s_neg = bank.p[2] @ vn[:, 0] / TAU
    want = -(s_pos - np.logaddexp(s_pos, s_neg))
    np.testing.assert_allclose(info_nce(batch, vn, bank)[0], want, rtol=1e-10)


# ------------------------------------------------- loop reference oracles


def _random_problem(rng):
    c = int(rng.integers(2, 13))
    dim = int(rng.integers(2, 13))
    t_len = int(rng.integers(5, 260))
    vn = _unit_rows(rng, t_len, dim).T.copy()
    bank = PrototypeBank(c, dim)
    for cls in range(c):
        if rng.random() < 0.8:
            update_bank(bank, cls, _unit_rows(rng, 1, dim)[0])
    mask = rng.integers(0, c, size=t_len)
    y_prob = rng.dirichlet(np.ones(c), size=t_len).T
    n = int(rng.integers(0, min(t_len, 8) + 1))
    positions = np.sort(rng.choice(t_len, size=n, replace=False))
    ann = TimestampAnnotations(positions, rng.integers(0, c, size=n))
    return vn, mask, y_prob, ann, bank, int(rng.integers(1, 100))


def test_mine_matches_loop_reference():
    rng = np.random.default_rng(2310)
    mined = 0
    kept = set()  # negatives kept per regular anchor
    for seed in range(200):
        vn, mask, y_prob, ann, bank, anchor_count = _random_problem(rng)
        kept.add(math.ceil(0.5 * math.ceil(0.6 * (bank.initialized.sum() - 1))))
        got = mine_pairs(vn, mask, y_prob, ann, bank, seed=seed, anchor_count=anchor_count)
        ref = mine_pairs_loop(vn, mask, y_prob, ann, bank, seed=seed, anchor_count=anchor_count)
        want = to_batch(ref, bank.p.shape[0])
        for field in ("anchors", "pos_w", "neg"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        mined += len(got) > 0
    assert mined > 150
    assert {1, 2, 3, 4} <= kept


def _per_row_choices(rng, rows, pop, keep):
    picks = [rng.choice(pop, size=keep, replace=False) for _ in range(rows)]
    return np.array(picks, dtype=np.int64).reshape(rows, keep)


class _ChoiceSpy(np.random.Generator):
    """A PCG64 generator that counts its ``choice`` calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def choice(self, *args, **kwargs):
        self.calls += 1
        return super().choice(*args, **kwargs)


def test_choices_matches_per_row_choice():
    meta = np.random.default_rng(4242)
    seen = set()
    fallbacks = 0
    for _ in range(10_000):
        pop = int(meta.integers(1, 12))
        keep = int(meta.integers(0, pop + 1))
        rows = int(meta.integers(0, 80))
        seed = int(meta.integers(2 ** 32))
        earlier = int(meta.integers(0, 3))  # an odd count leaves a buffered 32-bit half
        got_rng, want_rng = _ChoiceSpy(seed), np.random.default_rng(seed)
        for g in (got_rng, want_rng):
            for _ in range(earlier):
                g.integers(7)
        buffered = bool(got_rng.bit_generator.state["has_uint32"])
        got = _choices(got_rng, rows, pop, keep)
        fallbacks += got_rng.calls
        want = _per_row_choices(want_rng, rows, pop, keep)
        assert got.dtype == want.dtype and np.array_equal(got, want), (rows, pop, keep, seed)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        seen.update([("buffered", buffered), ("rows 0", rows == 0),
                     ("keep = pop", keep == pop), ("pop 1", pop == 1)])
    assert all((name, flag) in seen for name in ("buffered", "rows 0", "keep = pop", "pop 1")
               for flag in (False, True))
    assert fallbacks == 0  # every problem went through the batched replay


def test_choices_batches_a_rejected_draw_and_pop_10000():
    # a buffered half of 0 drawn into [0, 3) lands in Lemire's rejection
    # branch, which rng.integers takes just as rng.choice does
    got_rng, want_rng = _ChoiceSpy(5), np.random.default_rng(5)
    for g in (got_rng, want_rng):
        state = g.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        g.bit_generator.state = state
    got = _choices(got_rng, 6, 3, 1)
    assert got_rng.calls == 0
    np.testing.assert_array_equal(got, _per_row_choices(want_rng, 6, 3, 1))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # the largest population numpy always draws by Floyd's algorithm
    got_rng, want_rng = _ChoiceSpy(7), np.random.default_rng(7)
    got = _choices(got_rng, 2, 10_000, 1_000)
    assert got_rng.calls == 0
    np.testing.assert_array_equal(got, _per_row_choices(want_rng, 2, 10_000, 1_000))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_choices_falls_back_to_per_row_choice():
    # above a population of 10,000 numpy may shuffle a tail instead
    got_rng, want_rng = _ChoiceSpy(6), np.random.default_rng(6)
    got = _choices(got_rng, 2, 20_000, 1_000)
    assert got_rng.calls == 2
    np.testing.assert_array_equal(got, _per_row_choices(want_rng, 2, 20_000, 1_000))


def test_info_nce_matches_loop_reference():
    rng = np.random.default_rng(911)
    checked = 0
    for seed in range(200):
        vn, mask, y_prob, ann, bank, anchor_count = _random_problem(rng)
        pairs = mine_pairs_loop(vn, mask, y_prob, ann, bank, seed=seed, anchor_count=anchor_count)
        if not pairs:
            continue
        loss, grad = info_nce(to_batch(pairs, bank.p.shape[0]), vn, bank)
        want_loss, want_grad = info_nce_loop(pairs, vn, bank, TAU)
        np.testing.assert_allclose(loss, want_loss, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
        checked += 1
    assert checked > 150
