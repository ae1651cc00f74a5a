"""Prototype estimation and momentum bank updates."""

import numpy as np
import pytest

from wsseg.proto import MOMENTUM, PrototypeBank, estimate_prototype, update_bank


def test_single_sample_prototype(rng):
    v = rng.standard_normal((3, 6))
    got = estimate_prototype(v, np.array([0, 0, 0.7, 0, 0, 0]), np.array([2]), k=4)
    np.testing.assert_allclose(got, v[:, 2])


def test_equal_weights_mean(rng):
    v = rng.standard_normal((2, 4))
    cam = np.array([0.5, 0.0, 0.5, 0.0])
    got = estimate_prototype(v, cam, np.array([0, 2]), k=8)
    np.testing.assert_allclose(got, v[:, [0, 2]].mean(axis=1))


def test_weighted_mean_oracle():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    cam = np.array([3.0, 1.0])
    got = estimate_prototype(v, cam, np.array([0, 1]), k=2)
    np.testing.assert_allclose(got, [0.75, 0.25])


def test_top_k_selection():
    v = np.arange(8.0)[None, :]
    cam = np.array([0.1, 0.9, 0.8, 0.2, 0.0, 0.0, 0.0, 0.7])
    got = estimate_prototype(v, cam, np.arange(8), k=3)
    want = (1 * 0.9 + 2 * 0.8 + 7 * 0.7) / (0.9 + 0.8 + 0.7)
    np.testing.assert_allclose(got, [want])


def test_absent_cases(rng):
    v = rng.standard_normal((2, 5))
    assert estimate_prototype(v, np.ones(5), np.array([], dtype=int), k=2) is None
    assert estimate_prototype(v, np.zeros(5), np.array([1, 3]), k=2) is None


def test_convexity_norm_bound(rng):
    v = rng.standard_normal((4, 20))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    for _ in range(20):
        mask = rng.choice(20, size=6, replace=False)
        cam = np.abs(rng.standard_normal(20))
        p = estimate_prototype(v, cam, mask, k=4)
        assert np.linalg.norm(p) <= 1.0 + 1e-12


def test_update_bank_momentum_cases():
    bank = PrototypeBank(3, 2)
    update_bank(bank, 1, np.array([2.0, 4.0]))  # the first update sets the row
    np.testing.assert_array_equal(bank.p[1], [2.0, 4.0])
    np.testing.assert_array_equal(bank.initialized, [False, True, False])
    assert MOMENTUM == 0.9  # the weight of the new estimate in every later update
    update_bank(bank, 1, np.array([12.0, 14.0]))
    np.testing.assert_allclose(bank.p[1], [11.0, 13.0], rtol=1e-12)


def test_update_bank_leaves_other_rows(rng):
    bank = PrototypeBank(4, 3)
    update_bank(bank, 0, rng.standard_normal(3))
    before = bank.p.copy()
    update_bank(bank, 2, rng.standard_normal(3))
    np.testing.assert_array_equal(bank.p[[0, 1, 3]], before[[0, 1, 3]])
    np.testing.assert_array_equal(bank.initialized, [True, False, True, False])


def test_update_bank_range_error():
    bank = PrototypeBank(2, 2)
    with pytest.raises(ValueError):
        update_bank(bank, 5, np.zeros(2))


@pytest.mark.parametrize("k", [0, -1])
def test_estimate_prototype_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        estimate_prototype(np.ones((2, 3)), np.ones(3), np.array([0, 1]), k=k)


@pytest.mark.parametrize("mask", [np.array([0.5, 2.0]), np.array([True, False, True])],
                         ids=["float", "bool"])
def test_estimate_prototype_refuses_a_mask_that_is_not_integer(mask):
    # a boolean mask used to be cast to the indices 0 and 1
    with pytest.raises(ValueError, match="mask must be integer indices"):
        estimate_prototype(np.ones((2, 3)), np.ones(3), mask, k=2)
