"""Dilated 1-D convolution kernels, the hot loops of the network.

Both kernels are numpy: one BLAS matmul per kernel tap over a zero-padded
copy of the input.

Array layout is channels-first: activations are ``(channels, T)``, weights
``(out_channels, in_channels, kernel_width)``. Temporal length is preserved
with symmetric zero padding of ``dilation * (kernel_width - 1) // 2``.
"""

import numpy as np


def dilated_conv_forward(x, w, b, dilation):
    """out[o, t] = b[o] + sum_{i,k} w[o, i, k] * x_padded[i, t + k*dilation]."""
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    xp = np.zeros((cin, t_len + 2 * pad))
    xp[:, pad : pad + t_len] = x
    out = np.repeat(b[:, None], t_len, axis=1)
    for k in range(kw):
        out += w[:, :, k] @ xp[:, k * dilation : k * dilation + t_len]
    return out


def dilated_conv_backward(x, w, dilation, d_out):
    """Gradients of the forward pass wrt input, weights and bias."""
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    xp = np.zeros((cin, t_len + 2 * pad))
    xp[:, pad : pad + t_len] = x
    d_xp = np.zeros_like(xp)
    d_w = np.empty_like(w)
    for k in range(kw):
        sl = slice(k * dilation, k * dilation + t_len)
        d_xp[:, sl] += w[:, :, k].T @ d_out
        d_w[:, :, k] = d_out @ xp[:, sl].T
    d_x = d_xp[:, pad : pad + t_len]
    d_b = d_out.sum(axis=1)
    return d_x, d_w, d_b


# perfbench/kernel_check.py reads these names; drop them when it changes
dilated_conv_forward_np = dilated_conv_forward
dilated_conv_backward_np = dilated_conv_backward
