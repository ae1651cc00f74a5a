"""The dilated-convolution kernels against the naive oracle and against the
padded kernels they replaced."""

import numpy as np
import pytest

from wsseg import kernels

from conftest import naive_dilated_conv
from loop_reference import conv_backward_padded, conv_forward_padded

# (dilation, kernel width); width 3, the network's, keeps the plain dilation id
SHAPES = pytest.mark.parametrize("dilation, kw", [
    pytest.param(d, kw, id=str(d) if kw == 3 else f"{d}-kw{kw}")
    for kw in (3, 1, 5) for d in (1, 2, 4, 8)
])


def _instance(rng, kw, cin=3, cout=5, t_len=23):
    x = rng.standard_normal((cin, t_len))
    w = rng.standard_normal((cout, cin, kw))
    b = rng.standard_normal(cout)
    return x, w, b


@SHAPES
def test_numpy_forward_matches_naive_oracle(rng, dilation, kw):
    x, w, b = _instance(rng, kw)
    got = kernels.dilated_conv_forward(x, w, b, dilation)
    want = naive_dilated_conv(x, w, b, dilation)
    np.testing.assert_allclose(got, want, atol=1e-12)


@SHAPES
def test_backward_matches_brute_force(rng, dilation, kw):
    """dL/dtheta for L = sum(weights * out) against perturbation of the oracle."""
    x, w, b = _instance(rng, kw, cin=2, cout=3, t_len=9)
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


def test_kernels_match_the_padded_kernels_on_random_problems():
    """1,500 random problems: the forward is bitwise equal everywhere; the
    backward is bitwise equal at the network's 16x16 channels and within
    1e-12 relative elsewhere, where a GEMM over a strided window may round
    its last bit differently."""
    rng = np.random.default_rng(2026)
    for i in range(1500):
        kw = int(rng.choice([1, 3, 5]))
        dilation = int(rng.integers(1, 129))
        t_len = int(rng.integers(1, 2101))
        if i % 5 == 0:
            cin = cout = 16
        else:
            cin, cout = (int(n) for n in rng.integers(1, 41, size=2))
        x = rng.standard_normal((cin, t_len))
        w = rng.standard_normal((cout, cin, kw))
        b = rng.standard_normal(cout)
        d_out = rng.standard_normal((cout, t_len))
        where = f"kw={kw} dilation={dilation} T={t_len} cin={cin} cout={cout}"

        got = kernels.dilated_conv_forward(x, w, b, dilation)
        assert np.array_equal(got, conv_forward_padded(x, w, b, dilation)), where
        for name, got, want in zip(("d_x", "d_w", "d_b"),
                                   kernels.dilated_conv_backward(x, w, dilation, d_out),
                                   conv_backward_padded(x, w, dilation, d_out)):
            assert got.shape == want.shape, (name, where)
            if cin == cout == 16:
                assert np.array_equal(got, want), (name, where)
            else:
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-12 * scale, (name, where)
