"""Multi-stage dilated temporal convolutional network with hand-written
reverse-mode gradients.

Stage 1 reads the raw channel stream; each later stage refines the
previous stage's per-sample softmax probabilities. Three heads hang off
the final stage's feature map: a per-sample classifier (one per stage), a
multi-label sequence classifier on global-average-pooled features (a
single linear map, so its weight doubles as the CAM projection), and a
two-layer MLP projector producing per-sample embeddings.

Three passes share one stage loop, and each keeps only what its caller
reads:

- ``forward_cached`` returns every head plus a ``ForwardCache`` holding
  each layer's feature map and ReLU output, for ``backward`` (training);
- ``forward`` returns every head and keeps no cache (pseudo-labels,
  CAMs);
- ``probabilities`` returns the per-stage class probabilities only, and
  runs no projector, pooling or multi-label head (scoring).

The two cache-free passes write every layer over a ``Workspace``: a
feature map zero-padded by the largest dilation, a conv sum and a tap
product, through ``kernels.conv_taps``. ``probabilities`` takes one that
its caller owns, so a caller that scores many sequences allocates nothing
per layer; ``trainer.predict`` fans its sequences out over the CPUs with
one workspace per thread. ``forward`` makes one per call.
``forward_cached`` makes new arrays per layer through
``kernels.dilated_conv_forward``. ``probabilities``, the pass that runs
on worker threads, calls nothing that perfbench's tracer wraps: no traced
function runs on a worker thread.

All three compute the same floating-point operations in the same order,
so their shared outputs are bitwise equal, whatever the workspace, the
thread and the BLAS thread count.

Parameters live in a flat ``{name: ndarray}`` dict; ``backward`` returns a
dict with the same keys. Gradients flow through every path, including the
softmax hand-off between stages.

The parameters alone decide the dtype: the input is cast to it, and every
array a pass makes has it, given output gradients of that dtype.
"""

import numbers
from dataclasses import astuple, dataclass, fields

import numpy as np

from .kernels import conv_taps, dilated_conv_backward, dilated_conv_forward


class StaleCacheError(RuntimeError):
    """The forward cache was built from different parameter arrays."""


# What a config field annotated with the key takes, and how to say so.
_FIELD_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def check_fields(config):
    """Raise ``ValueError`` naming the first field of the dataclass
    ``config`` whose value does not fit its ``int`` or ``float`` annotation.
    Numpy numbers fit; a bool fits neither. Fields of any other annotation,
    such as nested configs and arrays, are not checked."""
    for f in fields(config):
        if f.type not in _FIELD_TYPES:
            continue
        value = getattr(config, f.name)
        kind, what = _FIELD_TYPES[f.type]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


@dataclass
class TcnConfig:
    in_dim: int
    num_classes: int
    stages: int = 2
    layers_per_stage: int = 10
    feature_dim: int = 64
    projector_dim: int = 32
    kernel_width = 3  # not a field; odd, so symmetric zero padding keeps the length

    def __post_init__(self):
        check_fields(self)
        if min(astuple(self)) < 1:
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
    stage_inputs: list  # input map fed to each stage; the first is the network input
    g_lists: list  # per stage: [G_0 .. G_L] feature maps
    relu_lists: list  # per stage: each layer's ReLU output, ReLU(W_d (*) G + b_d)
    y_prob: list
    gap: np.ndarray
    proj_hidden: np.ndarray  # ReLU output of the projector's hidden layer
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


def _residual_layer(h, wd, bd, wr, br, dilation):
    """H + W_r * ReLU(W_d (*) H + b_d) + b_r, length-preserving; also
    returns the ReLU output for the backward pass."""
    a = np.maximum(dilated_conv_forward(h, wd, bd, dilation), 0.0)
    out = wr @ a
    out += h
    out += br[:, None]
    return out, a


def _residual_layer_in_place(g, padded, conv_sum, tap, wd, bd, wr, br, dilation):
    """``_residual_layer`` over a workspace's views: the same operations
    in the same order, the sum made in ``tap`` and copied over ``g``, the
    interior of ``padded``."""
    offset = (padded.shape[1] - g.shape[1]) // 2 - dilation * (wd.shape[2] - 1) // 2
    conv_taps(padded[:, offset:], wd, bd, dilation, conv_sum, tap)
    np.maximum(conv_sum, 0.0, out=conv_sum)
    np.matmul(wr, conv_sum, out=tap)
    tap += g
    tap += br[:, None]
    g[...] = tap


def _linear(w, b, x, out=None):
    """w @ x + b per column, into ``out`` when given, the bias added in
    place."""
    out = np.matmul(w, x, out=out)
    out += b[:, None]
    return out


def softmax_columns(logits):
    e = logits - logits.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def softmax_columns_backward(d_prob, prob):
    """d_logits for column-wise softmax given d_prob at the probabilities."""
    inner = (d_prob * prob).sum(axis=0, keepdims=True)
    return prob * (d_prob - inner)


def global_average_pool(z):
    """Per-channel arithmetic mean over time."""
    return z.mean(axis=1)


def l2_normalize_columns(v):
    """Column-wise unit vectors plus the norms needed for the backward pass."""
    norms = np.sqrt((v * v).sum(axis=0))
    safe = np.maximum(norms, 1e-12)
    return v / safe[None, :], safe


def l2_normalize_backward(d_vn, vn, norms):
    """Pull a gradient at normalized columns back to the raw columns."""
    inner = (d_vn * vn).sum(axis=0, keepdims=True)
    return (d_vn - vn * inner) / norms[None, :]


class Workspace:
    """The three arrays that the cache-free passes write over, for
    sequences of up to ``capacity`` samples in ``dtype``: a feature map
    zero-padded by the largest dilation's padding, a conv sum and a tap
    product.

    The caller owns it and may hand it to any number of passes, one at a
    time. Each pass zeroes the padding again, which a longer sequence
    before it may have written over.
    """

    def __init__(self, config, capacity, dtype):
        self.features = config.feature_dim
        self.pad = config.dilation(config.layers_per_stage - 1) * (config.kernel_width - 1) // 2
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        self._padded = np.empty(self.features * (capacity + 2 * self.pad), self.dtype)
        self._sum = np.empty(self.features * capacity, self.dtype)
        self._tap = np.empty(self.features * capacity, self.dtype)

    def views(self, t_len):
        """(feature map ``(F, t_len)``, the padded map it is the interior
        of, conv sum and tap product ``(F, t_len)``); all but the first are
        C-contiguous."""
        if t_len > self.capacity:
            raise ValueError(f"a workspace for {self.capacity} samples got {t_len}")
        f, pad = self.features, self.pad
        padded = self._padded[: f * (t_len + 2 * pad)].reshape(f, -1)
        padded[:, :pad] = 0.0
        padded[:, pad + t_len :] = 0.0
        conv_sum = self._sum[: f * t_len].reshape(f, t_len)
        tap = self._tap[: f * t_len].reshape(f, t_len)
        return padded[:, pad : pad + t_len], padded, conv_sum, tap


def _input(x, params, config):
    data = np.asarray(x, dtype=params["s0.in.w"].dtype)
    if data.shape[0] != config.in_dim:
        raise ValueError(f"input has {data.shape[0]} channels, config expects {config.in_dim}")
    return data


def _stages(data, params, config, kept=None, workspace=None):
    """The stage loop of every pass; returns (final feature map, per-stage
    probabilities).

    When ``kept`` is a list, every layer makes new arrays, and one (stage
    input, [G_0 .. G_L], [A_1 .. A_L]) tuple per stage is appended to it.
    Otherwise every layer writes over ``workspace``, and the returned
    feature map is a view into it.
    """
    y_prob = []
    inp = data
    if kept is None:
        g, padded, conv_sum, tap = workspace.views(data.shape[1])
    for s in range(config.stages):
        w_in, b_in = params[f"s{s}.in.w"], params[f"s{s}.in.b"]
        if kept is None:
            g[...] = _linear(w_in, b_in, inp, out=conv_sum)
        else:
            g = _linear(w_in, b_in, inp)
            kept.append((inp, [g], []))
        for l in range(config.layers_per_stage):
            layer = [params[f"s{s}.l{l}.{k}"] for k in ("wd", "bd", "wr", "br")]
            if kept is None:
                _residual_layer_in_place(g, padded, conv_sum, tap, *layer, config.dilation(l))
            else:
                g, a = _residual_layer(g, *layer, config.dilation(l))
                kept[-1][1].append(g)
                kept[-1][2].append(a)
        inp = softmax_columns(_linear(params[f"s{s}.out.w"], params[f"s{s}.out.b"], g))
        y_prob.append(inp)
    return g, y_prob


def _heads(z, params):
    """(pooled features, multi-label logits, projector hidden ReLU output,
    projected embeddings) of the final feature map."""
    gap = global_average_pool(z)
    y_s_logits = params["ml.w"] @ gap + params["ml.b"]
    hidden = _linear(params["proj.w1"], params["proj.b1"], z)
    np.maximum(hidden, 0.0, out=hidden)
    v = _linear(params["proj.w2"], params["proj.b2"], hidden)
    return gap, y_s_logits, hidden, v


def probabilities(x, params, config, workspace):
    """Per-stage (C, T) class probabilities, the last entry canonical; no
    other head runs and nothing is kept. The layers write over
    ``workspace``, a ``Workspace`` of the parameters' dtype that the caller
    owns."""
    data = _input(x, params, config)
    if workspace.dtype != data.dtype:
        raise ValueError(f"workspace of dtype {workspace.dtype}, parameters of {data.dtype}")
    return _stages(data, params, config, workspace=workspace)[1]


def forward(x, params, config):
    """Every head, with no cache kept; the layers write over a new
    ``Workspace``."""
    data = _input(x, params, config)
    workspace = Workspace(config, data.shape[1], data.dtype)
    z, y_prob = _stages(data, params, config, workspace=workspace)
    z = z.copy()
    _, y_s_logits, _, v = _heads(z, params)
    return NetworkOutputs(z=z, y_prob=y_prob, y_s_logits=y_s_logits, v=v)


def forward_cached(x, params, config):
    """Every head, plus every intermediate backward needs."""
    kept = []
    z, y_prob = _stages(_input(x, params, config), params, config, kept=kept)
    gap, y_s_logits, proj_hidden, v = _heads(z, params)
    outputs = NetworkOutputs(z=z, y_prob=y_prob, y_s_logits=y_s_logits, v=v)
    stage_inputs, g_lists, relu_lists = map(list, zip(*kept))
    cache = ForwardCache(
        stage_inputs=stage_inputs,
        g_lists=g_lists,
        relu_lists=relu_lists,
        y_prob=y_prob,
        gap=gap,
        proj_hidden=proj_hidden,
        param_ids={k: id(v_) for k, v_ in params.items()},
    )
    return outputs, cache


def backward(grads, cache, params, config, acc=None):
    """Parameter gradients for the given output gradients.

    Without ``acc`` they are returned as a fresh dict with the keys of
    ``params``; with ``acc`` (such a dict) they are added into it in place
    and ``acc`` is returned. Heads that receive no upstream gradient
    contribute exact zeros. ``ValueError`` when a given output gradient
    does not have the parameters' dtype.
    """
    for k, v_ in params.items():
        if cache.param_ids.get(k) != id(v_):
            raise StaleCacheError(f"cache does not match current params (key {k!r})")
    dy_list = list(grads.dy_prob) if grads.dy_prob is not None else [None] * config.stages
    if len(dy_list) != config.stages:
        raise ValueError("dy_prob must have one entry per stage")
    z = cache.g_lists[-1][-1]  # in the parameters' dtype
    for d in (grads.dz, grads.dy_s_logits, grads.dv, *dy_list):
        if d is not None and d.dtype != z.dtype:
            raise ValueError(f"output gradient of dtype {d.dtype}, parameters of {z.dtype}")

    g = {k: np.zeros_like(v_) for k, v_ in params.items()} if acc is None else acc
    t_len = cache.stage_inputs[0].shape[1]

    d_z = np.zeros_like(z)
    if grads.dz is not None:
        d_z = d_z + grads.dz

    if grads.dv is not None:
        d_hidden = params["proj.w2"].T @ grads.dv
        g["proj.w2"] += grads.dv @ cache.proj_hidden.T
        g["proj.b2"] += grads.dv.sum(axis=1)
        d_pre = d_hidden * (cache.proj_hidden > 0.0)
        g["proj.w1"] += d_pre @ z.T
        g["proj.b1"] += d_pre.sum(axis=1)
        d_z += params["proj.w1"].T @ d_pre

    if grads.dy_s_logits is not None:
        g["ml.w"] += np.outer(grads.dy_s_logits, cache.gap)
        g["ml.b"] += grads.dy_s_logits
        d_gap = params["ml.w"].T @ grads.dy_s_logits
        d_z += d_gap[:, None] / t_len

    carry = None  # gradient wrt the previous stage's probabilities
    for s in reversed(range(config.stages)):
        d_prob = dy_list[s]  # read, never written
        if carry is not None:
            d_prob = carry if d_prob is None else d_prob + carry

        d_g = d_z if s == config.stages - 1 else np.zeros_like(cache.g_lists[s][-1])
        if d_prob is not None:
            d_logits = softmax_columns_backward(d_prob, cache.y_prob[s])
            g[f"s{s}.out.w"] += d_logits @ cache.g_lists[s][-1].T
            g[f"s{s}.out.b"] += d_logits.sum(axis=1)
            d_g = d_g + params[f"s{s}.out.w"].T @ d_logits

        for l in reversed(range(config.layers_per_stage)):
            a = cache.relu_lists[s][l]
            wr = params[f"s{s}.l{l}.wr"]
            g[f"s{s}.l{l}.wr"] += d_g @ a.T
            g[f"s{s}.l{l}.br"] += d_g.sum(axis=1)
            d_apre = wr.T @ d_g
            d_apre *= a > 0.0
            d_in, d_wd, d_bd = dilated_conv_backward(
                cache.g_lists[s][l], params[f"s{s}.l{l}.wd"], config.dilation(l), d_apre
            )
            g[f"s{s}.l{l}.wd"] += d_wd
            g[f"s{s}.l{l}.bd"] += d_bd
            d_g += d_in

        g[f"s{s}.in.w"] += d_g @ cache.stage_inputs[s].T
        g[f"s{s}.in.b"] += d_g.sum(axis=1)
        carry = params[f"s{s}.in.w"].T @ d_g if s > 0 else None

    return g
