"""Hybrid hard/soft pseudo-label generation from transport plans."""

import numpy as np
import pytest

from wsseg.pseudo import generate
from wsseg.seqdata import TimestampAnnotations

from loop_reference import generate_loop, normalize_two_class


def test_normalize_two_class_cases():
    q = np.array([[0.3, 0.1], [0.0, 0.0], [0.2, 0.2]])
    np.testing.assert_allclose(normalize_two_class(q, 0, 0, 1), (0.75, 0.25), rtol=1e-12)
    assert normalize_two_class(q, 1, 0, 1) == (0.5, 0.5)
    assert normalize_two_class(q, 2, 0, 1) == (0.5, 0.5)


def _ann(positions, classes):
    return TimestampAnnotations(np.array(positions), np.array(classes))


def test_generate_ties_go_to_the_earlier_class():
    # equal columns: every interior sample counts for class a, and at
    # eps_hard 1 all of them are hard a
    q = np.full((9, 3), 0.5)
    out = generate(q, _ann([1, 7], [2, 1]), eps_hard=1.0)
    assert out.hard_mask.all()
    np.testing.assert_array_equal(out.y.argmax(axis=0), [2] * 7 + [1] * 2)


def test_generate_region_arithmetic_oracle():
    # interval of 4 interior samples, counts (2, 2), eps 0.5:
    # 1 hard a, 2 soft, 1 hard b
    t_len = 7
    q = np.zeros((t_len, 3))
    q[:4, 1] = 0.8
    q[:4, 2] = 0.2
    q[4:, 1] = 0.2
    q[4:, 2] = 0.8
    ann = _ann([1, 6], [1, 2])
    out = generate(q, ann, eps_hard=0.5)
    np.testing.assert_array_equal(out.hard_mask, [True, True, True, False, False, True, True])
    np.testing.assert_array_equal(out.y[:, 2], [0.0, 1.0, 0.0])  # hard a
    np.testing.assert_array_equal(out.y[:, 5], [0.0, 0.0, 1.0])  # hard b
    np.testing.assert_allclose(out.y[:, 3], [0.0, 0.8, 0.2])  # soft
    np.testing.assert_allclose(out.y[:, 4], [0.0, 0.2, 0.8])


def test_generate_eps_zero_all_soft():
    q = np.random.default_rng(0).dirichlet(np.ones(3), size=10)
    ann = _ann([0, 9], [0, 1])
    out = generate(q, ann, eps_hard=0.0)
    assert not out.hard_mask[1:9].any()
    assert out.hard_mask[0] and out.hard_mask[9]


def test_generate_eps_one_saturated_single_transition():
    q = np.zeros((10, 2))
    q[:6, 0] = 1.0
    q[6:, 1] = 1.0
    ann = _ann([0, 9], [0, 1])
    out = generate(q, ann, eps_hard=1.0)
    assert out.hard_mask.all()
    labels = np.argmax(out.y, axis=0)
    changes = np.flatnonzero(np.diff(labels))
    assert changes.size == 1


def test_generate_flanks_use_nearest_timestamp():
    q = np.full((12, 2), 0.5)
    ann = _ann([4, 8], [1, 0])
    out = generate(q, ann, eps_hard=0.0)
    np.testing.assert_array_equal(np.argmax(out.y[:, :5], axis=0), [1] * 5)
    np.testing.assert_array_equal(np.argmax(out.y[:, 8:], axis=0), [0] * 4)
    assert out.hard_mask[:5].all() and out.hard_mask[8:].all()


def _random_case(rng):
    t_len = int(rng.integers(8, 80))
    c = int(rng.integers(2, 6))
    q = rng.dirichlet(np.ones(c), size=t_len)
    n = int(rng.integers(1, max(2, t_len // 4)))
    positions = np.sort(rng.choice(t_len, size=n, replace=False))
    classes = rng.integers(0, c, size=n)
    return q, _ann(positions, classes), c


def test_generate_invariants_random(rng):
    for _ in range(200):
        q, ann, c = _random_case(rng)
        eps = float(rng.random())
        out = generate(q, ann, eps_hard=eps)
        np.testing.assert_allclose(out.y.sum(axis=0), 1.0, atol=1e-9)
        # timestamp columns exact one-hots
        for p, cls in zip(ann.positions, ann.classes):
            col = np.zeros(c)
            col[cls] = 1.0
            np.testing.assert_array_equal(out.y[:, p], col)
        # interval mass only on flanking classes
        for i in range(len(ann) - 1):
            lo, hi = ann.positions[i], ann.positions[i + 1]
            a, b = ann.classes[i], ann.classes[i + 1]
            others = [k for k in range(c) if k not in (a, b)]
            assert np.all(out.y[others, lo:hi] == 0.0)


def test_generate_hard_regions_single_transition(rng):
    for _ in range(100):
        q, ann, c = _random_case(rng)
        out = generate(q, ann, eps_hard=float(rng.random()))
        for i in range(len(ann) - 1):
            lo, hi = int(ann.positions[i]), int(ann.positions[i + 1])
            a, b = int(ann.classes[i]), int(ann.classes[i + 1])
            hard = [
                int(np.argmax(out.y[:, t]))
                for t in range(lo, hi + 1)
                if out.hard_mask[t]
            ]
            # hard labels inside an interval: a block of a then a block of b
            switches = sum(1 for u, w in zip(hard, hard[1:]) if u != w)
            assert switches <= 1
            if switches == 1 and a != b:
                assert hard[0] == a and hard[-1] == b


def test_generate_monotone_in_eps(rng):
    for _ in range(100):
        q, ann, c = _random_case(rng)
        e1, e2 = sorted(rng.random(2))
        low = generate(q, ann, eps_hard=float(e1))
        high = generate(q, ann, eps_hard=float(e2))
        assert np.all(high.hard_mask[low.hard_mask])


def test_generate_matches_loop_reference(rng):
    for _ in range(200):
        q, ann, _ = _random_case(rng)
        if rng.random() < 0.3:  # rows where both flanking classes vanish
            q[rng.random(q.shape[0]) < 0.3] = 0.0
        eps = float(rng.choice([0.0, 1.0, rng.random()]))
        got = generate(q, ann, eps_hard=eps)
        want = generate_loop(q, ann, eps_hard=eps)
        assert np.array_equal(got.y, want.y)
        assert np.array_equal(got.hard_mask, want.hard_mask)


def test_generate_rejects_bad_eps(rng):
    q, ann, _ = _random_case(rng)
    with pytest.raises(ValueError):
        generate(q, ann, eps_hard=1.5)
