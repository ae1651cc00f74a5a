"""Check the dilated-convolution kernels against a per-sample loop reference
and print the work each shape computes.

Usage, from the repository root: python3 perfbench/kernel_check.py

For every shape the numpy kernels and the kernels the network is bound to
(numba when installed) must match the reference to 1e-12 relative. GFLOP
and bytes moved are computed from the shapes, with 8-byte floats and each
array read or written once; they are not measured. Exits 1 on a mismatch.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from wsseg import kernels, net  # noqa: E402

# (feature_dim, T, dilation): the shapes of benchmarks/bench_kernels.py, then
# the network's own at crop length
SHAPES = [(16, 512, 4), (16, 2000, 16), (32, 2000, 8), (64, 2000, 32),
          (16, 1024, 1), (16, 1024, 64)]
RTOL = 1e-12


def reference_forward(x, w, b, dilation):
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    out = np.empty((cout, t_len))
    for t in range(t_len):
        acc = b.copy()
        for k in range(kw):
            src = t + k * dilation - pad
            if 0 <= src < t_len:
                acc += w[:, :, k] @ x[:, src]
        out[:, t] = acc
    return out


def reference_backward(x, w, dilation, d_out):
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    pad = dilation * (kw - 1) // 2
    d_x = np.zeros_like(x)
    d_w = np.zeros_like(w)
    for t in range(t_len):
        for k in range(kw):
            src = t + k * dilation - pad
            if 0 <= src < t_len:
                d_x[:, src] += w[:, :, k].T @ d_out[:, t]
                d_w[:, :, k] += np.outer(d_out[:, t], x[:, src])
    return d_x, d_w, d_out.sum(axis=1)


def close(a, b):
    return np.abs(a - b).max() <= RTOL * max(np.abs(b).max(), 1.0)


def work(f, t_len, kw):
    """(forward GFLOP, backward GFLOP, forward bytes, backward bytes)."""
    taps = f * f * kw * t_len
    fwd_flop = 2 * taps + f * t_len
    bwd_flop = 4 * taps + f * t_len
    act, wts = f * t_len * 8, f * f * kw * 8
    fwd_bytes = act + wts + f * 8 + act  # read x, w, b; write out
    bwd_bytes = 2 * act + wts + act + wts + f * 8  # read x, d_out, w; write d_x, d_w, d_b
    return fwd_flop / 1e9, bwd_flop / 1e9, fwd_bytes, bwd_bytes


def main():
    rng = np.random.default_rng(0)
    pairs = [("numpy", kernels.dilated_conv_forward_np, kernels.dilated_conv_backward_np)]
    if net.dilated_conv_forward is not kernels.dilated_conv_forward_np:
        pairs.append(("bound", net.dilated_conv_forward, net.dilated_conv_backward))
    ok = True
    print(f"{'shape':<24} {'fwd GFLOP':>10} {'bwd GFLOP':>10} {'fwd MB':>8} {'bwd MB':>8}  match")
    for f, t_len, dil in SHAPES:
        x = rng.standard_normal((f, t_len))
        w = rng.standard_normal((f, f, 3))
        b = rng.standard_normal(f)
        d_out = rng.standard_normal((f, t_len))
        want_fwd = reference_forward(x, w, b, dil)
        want_bwd = reference_backward(x, w, dil, d_out)
        verdicts = []
        for name, fwd, bwd in pairs:
            got_bwd = bwd(x, w, dil, d_out)
            good = close(fwd(x, w, b, dil), want_fwd) and all(
                close(g, r) for g, r in zip(got_bwd, want_bwd))
            ok &= good
            verdicts.append(f"{name} {'ok' if good else 'MISMATCH'}")
        g_f, g_b, b_f, b_b = work(f, t_len, 3)
        print(f"F={f:<3} T={t_len:<5} dil={dil:<3}      {g_f:>10.5f} {g_b:>10.5f}"
              f" {b_f / 1e6:>8.3f} {b_b / 1e6:>8.3f}  {', '.join(verdicts)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
