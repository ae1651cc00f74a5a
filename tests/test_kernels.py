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


def test_float32_kernels_stay_within_the_rounding_bound():
    """300 random problems in float32 against the float64 kernels on the
    same float32-rounded values: every result is float32, and each entry is
    within gamma_n * sum|terms|, gamma_n = n*u / (1 - n*u), u = 2**-24, for
    a reduction of length n: cin*kw + 1 for the forward, cout*kw for d_x
    and T for d_w and d_b (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1)."""
    rng = np.random.default_rng(2027)
    u = 2.0 ** -24
    for _ in range(300):
        kw = int(rng.choice([1, 3, 5]))
        dilation = int(rng.integers(1, 129))
        t_len = int(rng.integers(1, 2101))
        cin, cout = (int(n) for n in rng.integers(1, 41, size=2))
        x, w, d_out = (rng.standard_normal(shape).astype(np.float32)
                       for shape in ((cin, t_len), (cout, cin, kw), (cout, t_len)))
        b = rng.standard_normal(cout).astype(np.float32)
        wide = [a.astype(np.float64) for a in (x, w, b, d_out)]
        absolute = [np.abs(a) for a in wide]
        where = f"kw={kw} dilation={dilation} T={t_len} cin={cin} cout={cout}"

        got = [kernels.dilated_conv_forward(x, w, b, dilation),
               *kernels.dilated_conv_backward(x, w, dilation, d_out)]
        x64, w64, b64, d64 = wide
        want = [kernels.dilated_conv_forward(x64, w64, b64, dilation),
                *kernels.dilated_conv_backward(x64, w64, dilation, d64)]
        xa, wa, ba, da = absolute
        terms = [kernels.dilated_conv_forward(xa, wa, ba, dilation),
                 *kernels.dilated_conv_backward(xa, wa, dilation, da)]
        lengths = (cin * kw + 1, cout * kw, t_len, t_len)
        for name, g, ref, size, n in zip(("out", "d_x", "d_w", "d_b"), got, want, terms, lengths):
            assert g.dtype == np.float32, (name, where)
            gamma = n * u / (1 - n * u)
            assert np.all(np.abs(g - ref) <= gamma * size), (name, where)
