"""Dilated 1-D convolution kernels, the hot loops of the network.

Both kernels are numpy: each tap is one BLAS matmul over a shifted window
of a zero-padded copy. The forward and the weight gradient read the padded
input, the input gradient reads the padded output gradient. Each sum
accumulates in tap order into a dense ``(channels, T)`` array, the
products after the first through one reused buffer.

The forward's tap arithmetic is one routine, ``conv_taps``, which writes
into arrays that its caller owns and allocates nothing.
``dilated_conv_forward`` pads a copy and allocates the sum and tap arrays
for it; the network's cache-free passes call ``conv_taps`` directly over
a ``net.Workspace``, possibly on several threads at once. Only
``dilated_conv_forward`` and ``dilated_conv_backward`` are seen by a
tracer that wraps module attributes, and both run on the calling thread.

Array layout is channels-first: activations are ``(channels, T)``, weights
``(out_channels, in_channels, kernel_width)``. Temporal length is preserved
with symmetric zero padding of ``dilation * (kernel_width - 1) // 2``, so
the kernel width must be odd.
"""

import numpy as np


def _padded(a, pad):
    """``a`` with ``pad`` zero columns on each side, in ``a``'s dtype."""
    out = np.zeros((a.shape[0], a.shape[1] + 2 * pad), dtype=a.dtype)
    out[:, pad : pad + a.shape[1]] = a
    return out


def conv_taps(xp, w, b, dilation, out, tap):
    """Write b[o] + sum_{i,k} w[o, i, k] * xp[i, t + k*dilation] into
    ``out``, whose column count is T, and return it.

    ``xp`` is the input with its zero padding, at least
    ``T + dilation * (kw - 1)`` columns; ``tap`` is a scratch array of
    ``out``'s shape and dtype. Allocates nothing.
    """
    t_len = out.shape[1]
    np.matmul(w[:, :, 0], xp[:, :t_len], out=out)
    out += b[:, None]
    for k in range(1, w.shape[2]):
        np.matmul(w[:, :, k], xp[:, k * dilation : k * dilation + t_len], out=tap)
        out += tap
    return out


def dilated_conv_forward(x, w, b, dilation):
    """out[o, t] = b[o] + sum_{i,k} w[o, i, k] * x_padded[i, t + k*dilation]."""
    xp = _padded(x, dilation * (w.shape[2] - 1) // 2)
    out = np.empty((w.shape[0], x.shape[1]), dtype=np.result_type(w, xp))
    return conv_taps(xp, w, b, dilation, out, np.empty_like(out))


def dilated_conv_backward(x, w, dilation, d_out):
    """Gradients of the forward pass wrt input, weights and bias.

    Tap k moves output column t to input column t + k*dilation - pad, so
    d_x sums, in tap order, ``w[:, :, k].T`` times the window of the padded
    d_out that starts at (kw - 1 - k) * dilation.
    """
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    buf = _padded(d_out, pad)
    d_x = w[:, :, 0].T @ buf[:, (kw - 1) * dilation : (kw - 1) * dilation + t_len]
    tap = np.empty_like(d_x)
    for k in range(1, kw):
        start = (kw - 1 - k) * dilation
        np.matmul(w[:, :, k].T, buf[:, start : start + t_len], out=tap)
        d_x += tap
    if cin == cout:
        buf[:, pad : pad + t_len] = x  # the padding is still zero
    else:
        buf = _padded(x, pad)
    d_w = np.empty_like(w)
    for k in range(kw):
        d_w[:, :, k] = d_out @ buf[:, k * dilation : k * dilation + t_len].T
    d_b = d_out.sum(axis=1)
    return d_x, d_w, d_b


# perfbench/kernel_check.py reads these names; drop them when it changes
dilated_conv_forward_np = dilated_conv_forward
dilated_conv_backward_np = dilated_conv_backward
