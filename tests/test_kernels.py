"""The dilated-convolution kernels against the naive oracle."""

import numpy as np
import pytest

from wsseg import kernels

from conftest import naive_dilated_conv

pytestmark = pytest.mark.parametrize("dilation", [1, 2, 4, 8])


def _instance(rng, dilation, cin=3, cout=5, t_len=23):
    x = rng.standard_normal((cin, t_len))
    w = rng.standard_normal((cout, cin, 3))
    b = rng.standard_normal(cout)
    return x, w, b


def test_numpy_forward_matches_naive_oracle(rng, dilation):
    x, w, b = _instance(rng, dilation)
    got = kernels.dilated_conv_forward(x, w, b, dilation)
    want = naive_dilated_conv(x, w, b, dilation)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_backward_matches_brute_force(rng, dilation):
    """dL/dtheta for L = sum(weights * out) against perturbation of the oracle."""
    x, w, b = _instance(rng, dilation, cin=2, cout=3, t_len=9)
    probe = rng.standard_normal((3, 9))
    d_x, d_w, d_b = kernels.dilated_conv_backward(x, w, dilation, probe)

    step = 1e-6
    for arr, grad in ((x, d_x), (w, d_w), (b, d_b)):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(0, flat.size, max(1, flat.size // 10)):
            orig = flat[i]
            flat[i] = orig + step
            hi = (probe * naive_dilated_conv(x, w, b, dilation)).sum()
            flat[i] = orig - step
            lo = (probe * naive_dilated_conv(x, w, b, dilation)).sum()
            flat[i] = orig
            np.testing.assert_allclose(gflat[i], (hi - lo) / (2 * step), rtol=1e-5, atol=1e-7)
