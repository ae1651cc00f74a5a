"""Multi-stage dilated temporal convolutional network with hand-written
reverse-mode gradients.

Stage 1 reads the raw channel stream; each later stage refines the
previous stage's per-sample softmax probabilities. Three heads hang off
the final stage's feature map: a per-sample classifier (one per stage), a
multi-label sequence classifier on global-average-pooled features (a
single linear map, so its weight doubles as the CAM projection), and a
two-layer MLP projector producing per-sample embeddings.

Parameters live in a flat ``{name: ndarray}`` dict; ``backward`` returns a
dict with the same keys. Gradients flow through every path, including the
softmax hand-off between stages.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import dilated_conv_backward, dilated_conv_forward
from .seqdata import SensorSequence


class StaleCacheError(RuntimeError):
    """The forward cache was built from different parameter arrays."""


@dataclass
class TcnConfig:
    in_dim: int
    num_classes: int
    stages: int = 2
    layers_per_stage: int = 10
    feature_dim: int = 64
    kernel_width: int = 3
    projector_dim: int = 32

    def __post_init__(self):
        if min(self.in_dim, self.num_classes, self.stages, self.layers_per_stage) < 1:
            raise ValueError("network dimensions must be >= 1")
        if min(self.feature_dim, self.kernel_width, self.projector_dim) < 1:
            raise ValueError("network dimensions must be >= 1")

    def dilation(self, layer: int) -> int:
        return 2 ** layer


@dataclass
class NetworkOutputs:
    z: np.ndarray  # (F, T) final-stage feature map
    y_prob: list  # per stage (C, T), columns sum to 1; last entry is canonical
    y_s_logits: np.ndarray  # (C,) multi-label logits
    v: np.ndarray  # (projector_dim, T) raw projected embeddings


@dataclass
class ForwardCache:
    x: np.ndarray
    stage_inputs: list  # input map fed to each stage
    g_lists: list  # per stage: [G_0 .. G_L] feature maps
    apre_lists: list  # per stage: pre-ReLU dilated-conv outputs
    y_prob: list
    gap: np.ndarray
    proj_pre: np.ndarray  # pre-ReLU hidden activations of the projector
    proj_hidden: np.ndarray
    param_ids: dict


@dataclass
class OutputGrads:
    """Upstream gradients at the network outputs; None means zero."""

    dz: np.ndarray | None = None
    dy_prob: list | None = None  # per stage, entries may be None
    dy_s_logits: np.ndarray | None = None
    dv: np.ndarray | None = None


def init_params(config, seed):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], seed-controlled."""
    rng = np.random.default_rng(seed)
    p = {}

    def uni(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    f, c, kw = config.feature_dim, config.num_classes, config.kernel_width
    for s in range(config.stages):
        in_dim = config.in_dim if s == 0 else c
        p[f"s{s}.in.w"] = uni((f, in_dim), in_dim)
        p[f"s{s}.in.b"] = uni((f,), in_dim)
        for l in range(config.layers_per_stage):
            p[f"s{s}.l{l}.wd"] = uni((f, f, kw), f * kw)
            p[f"s{s}.l{l}.bd"] = uni((f,), f * kw)
            p[f"s{s}.l{l}.wr"] = uni((f, f), f)
            p[f"s{s}.l{l}.br"] = uni((f,), f)
        p[f"s{s}.out.w"] = uni((c, f), f)
        p[f"s{s}.out.b"] = uni((c,), f)
    p["ml.w"] = uni((c, f), f)
    p["ml.b"] = uni((c,), f)
    p["proj.w1"] = uni((f, f), f)
    p["proj.b1"] = uni((f,), f)
    p["proj.w2"] = uni((config.projector_dim, f), f)
    p["proj.b2"] = uni((config.projector_dim,), f)
    return p


def _residual_layer_cached(h, wd, bd, wr, br, dilation):
    """H + W_r * ReLU(W_d (*) H + b_d) + b_r, length-preserving; also
    returns the pre-ReLU conv output for the backward pass."""
    apre = dilated_conv_forward(h, wd, bd, dilation)
    a = np.maximum(apre, 0.0)
    out = h + wr @ a + br[:, None]
    return out, apre


def softmax_columns(logits):
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def softmax_columns_backward(d_prob, prob):
    """d_logits for column-wise softmax given d_prob at the probabilities."""
    inner = (d_prob * prob).sum(axis=0, keepdims=True)
    return prob * (d_prob - inner)


def global_average_pool(z):
    """Per-channel arithmetic mean over time."""
    return z.mean(axis=1)


def l2_normalize_columns(v, eps=1e-12):
    """Column-wise unit vectors plus the norms needed for the backward pass."""
    norms = np.sqrt((v * v).sum(axis=0))
    safe = np.maximum(norms, eps)
    return v / safe[None, :], safe


def l2_normalize_backward(d_vn, vn, norms):
    """Pull a gradient at normalized columns back to the raw columns."""
    inner = (d_vn * vn).sum(axis=0, keepdims=True)
    return (d_vn - vn * inner) / norms[None, :]


def forward(x, params, config):
    outputs, _ = forward_cached(x, params, config)
    return outputs


def forward_cached(x, params, config):
    """Run the network and keep every intermediate needed by backward."""
    data = x.data if isinstance(x, SensorSequence) else np.asarray(x, dtype=np.float64)
    if data.shape[0] != config.in_dim:
        raise ValueError(f"input has {data.shape[0]} channels, config expects {config.in_dim}")

    stage_inputs, g_lists, apre_lists, y_prob = [], [], [], []
    inp = data
    z = None
    for s in range(config.stages):
        stage_inputs.append(inp)
        g = params[f"s{s}.in.w"] @ inp + params[f"s{s}.in.b"][:, None]
        g_list = [g]
        apre_list = []
        for l in range(config.layers_per_stage):
            g, apre = _residual_layer_cached(
                g,
                params[f"s{s}.l{l}.wd"],
                params[f"s{s}.l{l}.bd"],
                params[f"s{s}.l{l}.wr"],
                params[f"s{s}.l{l}.br"],
                config.dilation(l),
            )
            g_list.append(g)
            apre_list.append(apre)
        logits = params[f"s{s}.out.w"] @ g + params[f"s{s}.out.b"][:, None]
        prob = softmax_columns(logits)
        y_prob.append(prob)
        g_lists.append(g_list)
        apre_lists.append(apre_list)
        z = g
        inp = prob

    gap = global_average_pool(z)
    y_s_logits = params["ml.w"] @ gap + params["ml.b"]
    proj_pre = params["proj.w1"] @ z + params["proj.b1"][:, None]
    proj_hidden = np.maximum(proj_pre, 0.0)
    v = params["proj.w2"] @ proj_hidden + params["proj.b2"][:, None]

    outputs = NetworkOutputs(z=z, y_prob=y_prob, y_s_logits=y_s_logits, v=v)
    cache = ForwardCache(
        x=data,
        stage_inputs=stage_inputs,
        g_lists=g_lists,
        apre_lists=apre_lists,
        y_prob=y_prob,
        gap=gap,
        proj_pre=proj_pre,
        proj_hidden=proj_hidden,
        param_ids={k: id(v_) for k, v_ in params.items()},
    )
    return outputs, cache


def backward(grads, cache, params, config):
    """Accumulate parameter gradients for the given output gradients.

    Heads that receive no upstream gradient contribute exact zeros.
    """
    for k, v_ in params.items():
        if cache.param_ids.get(k) != id(v_):
            raise StaleCacheError(f"cache does not match current params (key {k!r})")

    g = {k: np.zeros_like(v_) for k, v_ in params.items()}
    t_len = cache.x.shape[1]
    z = cache.g_lists[-1][-1]

    d_z = np.zeros_like(z)
    if grads.dz is not None:
        d_z = d_z + grads.dz

    if grads.dv is not None:
        d_hidden = params["proj.w2"].T @ grads.dv
        g["proj.w2"] += grads.dv @ cache.proj_hidden.T
        g["proj.b2"] += grads.dv.sum(axis=1)
        d_pre = d_hidden * (cache.proj_pre > 0.0)
        g["proj.w1"] += d_pre @ z.T
        g["proj.b1"] += d_pre.sum(axis=1)
        d_z += params["proj.w1"].T @ d_pre

    if grads.dy_s_logits is not None:
        g["ml.w"] += np.outer(grads.dy_s_logits, cache.gap)
        g["ml.b"] += grads.dy_s_logits
        d_gap = params["ml.w"].T @ grads.dy_s_logits
        d_z += d_gap[:, None] / t_len

    dy_list = list(grads.dy_prob) if grads.dy_prob is not None else [None] * config.stages
    if len(dy_list) != config.stages:
        raise ValueError("dy_prob must have one entry per stage")

    carry = None  # gradient wrt the previous stage's probabilities
    for s in reversed(range(config.stages)):
        d_prob = None
        if dy_list[s] is not None:
            d_prob = np.array(dy_list[s], dtype=np.float64, copy=True)
        if carry is not None:
            d_prob = carry if d_prob is None else d_prob + carry

        d_g = d_z if s == config.stages - 1 else np.zeros_like(cache.g_lists[s][-1])
        if d_prob is not None:
            d_logits = softmax_columns_backward(d_prob, cache.y_prob[s])
            g[f"s{s}.out.w"] += d_logits @ cache.g_lists[s][-1].T
            g[f"s{s}.out.b"] += d_logits.sum(axis=1)
            d_g = d_g + params[f"s{s}.out.w"].T @ d_logits

        for l in reversed(range(config.layers_per_stage)):
            apre = cache.apre_lists[s][l]
            a = np.maximum(apre, 0.0)
            wr = params[f"s{s}.l{l}.wr"]
            g[f"s{s}.l{l}.wr"] += d_g @ a.T
            g[f"s{s}.l{l}.br"] += d_g.sum(axis=1)
            d_apre = (wr.T @ d_g) * (apre > 0.0)
            d_in, d_wd, d_bd = dilated_conv_backward(
                cache.g_lists[s][l], params[f"s{s}.l{l}.wd"], config.dilation(l), d_apre
            )
            g[f"s{s}.l{l}.wd"] += d_wd
            g[f"s{s}.l{l}.bd"] += d_bd
            d_g = d_g + d_in

        g[f"s{s}.in.w"] += d_g @ cache.stage_inputs[s].T
        g[f"s{s}.in.b"] += d_g.sum(axis=1)
        carry = params[f"s{s}.in.w"].T @ d_g if s > 0 else None

    return g
