"""Network forward contracts and finite-difference gradient checks."""

import tracemalloc

import numpy as np
import pytest

from wsseg import net

from conftest import assert_grad_close, central_difference, naive_dilated_conv

SMALL = net.TcnConfig(
    in_dim=2, num_classes=3, stages=2, layers_per_stage=2, feature_dim=4, projector_dim=3
)


def test_residual_layer_identity_with_zero_weights(rng):
    h = rng.standard_normal((4, 10))
    zeros_w = np.zeros((4, 4, 3))
    zeros_b = np.zeros(4)
    out = net._residual_layer(h, zeros_w, zeros_b, np.zeros((4, 4)), zeros_b, 2)[0]
    np.testing.assert_array_equal(out, h)


def test_residual_layer_t1(rng):
    h = rng.standard_normal((4, 1))
    wd = rng.standard_normal((4, 4, 3))
    bd = rng.standard_normal(4)
    wr = rng.standard_normal((4, 4))
    br = rng.standard_normal(4)
    out = net._residual_layer(h, wd, bd, wr, br, 4)[0]
    assert out.shape == (4, 1)
    want = h + wr @ np.maximum(naive_dilated_conv(h, wd, bd, 4), 0.0) + br[:, None]
    np.testing.assert_allclose(out, want, atol=1e-10)


def test_residual_layer_matches_naive_conv_oracle(rng):
    h = rng.standard_normal((5, 17)) * 0.3
    wd = rng.standard_normal((5, 5, 3)) * 0.3
    bd = rng.standard_normal(5) * 0.3
    wr = rng.standard_normal((5, 5)) * 0.3
    br = rng.standard_normal(5) * 0.3
    out, relu = net._residual_layer(h, wd, bd, wr, br, 2)
    want_relu = np.maximum(naive_dilated_conv(h, wd, bd, 2), 0.0)
    np.testing.assert_allclose(relu, want_relu, atol=1e-10)
    np.testing.assert_allclose(out, h + wr @ want_relu + br[:, None], atol=1e-10)


def test_forward_shapes():
    params = net.init_params(SMALL, 0)
    x = np.random.default_rng(0).standard_normal((2, 16))
    out = net.forward(x, params, SMALL)
    assert out.z.shape == (4, 16)
    assert len(out.y_prob) == 2 and all(p.shape == (3, 16) for p in out.y_prob)
    assert out.y_s_logits.shape == (3,)
    assert out.v.shape == (3, 16)


def test_forward_wide_shape_contract():
    config = net.TcnConfig(
        in_dim=3, num_classes=4, stages=1, layers_per_stage=3, feature_dim=16, projector_dim=8
    )
    params = net.init_params(config, 1)
    x = np.random.default_rng(1).standard_normal((3, 128))
    out = net.forward(x, params, config)
    assert out.z.shape == (16, 128)
    assert out.y_prob[-1].shape == (4, 128)
    assert out.y_s_logits.shape == (4,)
    assert out.v.shape == (8, 128)


def test_forward_pure_and_columns_normalized(rng):
    params = net.init_params(SMALL, 3)
    x = rng.standard_normal((2, 20))
    a = net.forward(x, params, SMALL)
    b = net.forward(x, params, SMALL)
    for pa, pb in zip(a.y_prob, b.y_prob):
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_allclose(pa.sum(axis=0), 1.0, atol=1e-6)
    np.testing.assert_array_equal(a.v, b.v)


def test_forward_rejects_wrong_channel_count(rng):
    params = net.init_params(SMALL, 0)
    with pytest.raises(ValueError):
        net.forward(rng.standard_normal((5, 8)), params, SMALL)


# every (stages, t_len) with float64 and with float32 parameters
PASSES = pytest.mark.parametrize("stages, t_len, dtype", [
    pytest.param(stages, t_len, dtype,
                 id=f"{t_len}-{stages}" + ("-float32" if dtype == np.float32 else ""))
    for dtype in (np.float64, np.float32) for t_len in (1, 5, 300) for stages in (1, 2, 3)
])


def _params(config, seed, dtype):
    return {k: v.astype(dtype) for k, v in net.init_params(config, seed).items()}


@PASSES
def test_the_three_passes_agree_bitwise(stages, t_len, dtype):
    """The shared outputs are bitwise equal, and every array the passes
    make has the parameters' dtype, though the input is float64."""
    config = net.TcnConfig(
        in_dim=2, num_classes=3, stages=stages, layers_per_stage=4, feature_dim=6, projector_dim=3
    )
    params = _params(config, stages, dtype)
    x = np.random.default_rng(t_len).standard_normal((2, t_len))
    probs = net.probabilities(x, params, config, net.Workspace(config, t_len, dtype))
    plain = net.forward(x, params, config)
    cached, cache = net.forward_cached(x, params, config)
    assert len(probs) == stages
    for p, q, r in zip(probs, plain.y_prob, cached.y_prob):
        assert np.array_equal(p, q) and np.array_equal(p, r)
    assert np.array_equal(plain.z, cached.z)
    assert np.array_equal(plain.v, cached.v)
    assert np.array_equal(plain.y_s_logits, cached.y_s_logits)
    relus = [a for stage in cache.relu_lists for a in stage] + [cache.proj_hidden]
    assert len(relus) == stages * config.layers_per_stage + 1
    assert all(np.all(a >= 0.0) for a in relus)
    heads = [a for out in (plain, cached) for a in (*out.y_prob, out.z, out.v, out.y_s_logits)]
    kept = [*cache.stage_inputs, *(g for stage in cache.g_lists for g in stage), *cache.y_prob,
            cache.gap, *relus]
    assert all(a.dtype == dtype for a in [*probs, *heads, *kept])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_reused_workspace_gives_the_bits_of_a_new_one(dtype):
    """Longer and shorter sequences in turn, down to one sample, over one
    workspace: each sequence's probabilities equal those of a pass over a
    workspace of its own."""
    config = net.TcnConfig(
        in_dim=2, num_classes=3, stages=2, layers_per_stage=4, feature_dim=6, projector_dim=3
    )
    params = _params(config, 4, dtype)
    workspace = net.Workspace(config, 300, dtype)
    rng = np.random.default_rng(5)
    for t_len in (300, 1, 120, 299, 7, 1):
        x = rng.standard_normal((2, t_len))
        reused = net.probabilities(x, params, config, workspace)
        own = net.Workspace(config, t_len, dtype)
        for p, q in zip(reused, net.probabilities(x, params, config, own)):
            assert np.array_equal(p, q)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stages", [1, 2])
def test_a_scoring_pass_allocates_nothing_per_layer(stages, dtype):
    """Every layer of ``net.probabilities`` writes over its caller's
    workspace, so a warm call peaks at the same traced byte count at 3 and
    at 7 layers per stage, below the size of one feature map; threaded
    scoring relies on it (a pass that allocated per layer made worker
    arenas trim and grow their heaps)."""
    t_len, features = 700, 32
    x = np.random.default_rng(0).standard_normal((2, t_len))
    peaks = []
    for layers in (3, 7):
        config = net.TcnConfig(in_dim=2, num_classes=3, stages=stages, layers_per_stage=layers,
                               feature_dim=features, projector_dim=3)
        params = _params(config, 0, dtype)
        workspace = net.Workspace(config, t_len, dtype)
        net.probabilities(x, params, config, workspace)
        tracemalloc.start()
        try:
            net.probabilities(x, params, config, workspace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] == peaks[1] < features * t_len * np.dtype(dtype).itemsize


def test_a_workspace_refuses_a_longer_sequence_or_another_dtype():
    params = net.init_params(SMALL, 0)
    x = np.zeros((2, 9))
    with pytest.raises(ValueError, match="workspace for 8 samples got 9"):
        net.probabilities(x, params, SMALL, net.Workspace(SMALL, 8, np.float64))
    with pytest.raises(ValueError, match="workspace of dtype float32"):
        net.probabilities(x, params, SMALL, net.Workspace(SMALL, 9, np.float32))


@pytest.mark.parametrize("name, value", [
    ("in_dim", 3.0), ("num_classes", True), ("stages", "1"), ("layers_per_stage", None),
    ("feature_dim", 8.0), ("projector_dim", 4.5),
])
def test_config_rejects_non_integer_dimensions(name, value):
    dims = dict(in_dim=3, num_classes=2, stages=1, layers_per_stage=2, feature_dim=4)
    with pytest.raises(ValueError, match=name):
        net.TcnConfig(**dict(dims, **{name: value}))


def _backward_with_one_dy_prob_entry():
    params = net.init_params(SMALL, 0)  # two stages
    _, cache = net.forward_cached(np.zeros((2, 4)), params, SMALL)
    net.backward(net.OutputGrads(dy_prob=[None]), cache, params, SMALL)


@pytest.mark.parametrize("call, message", [
    (lambda: net.TcnConfig(in_dim=3, num_classes=2, layers_per_stage=0),
     "network dimensions must be >= 1"),
    (_backward_with_one_dy_prob_entry, "dy_prob must have one entry per stage"),
], ids=["zero-layers", "dy-prob-length"])
def test_network_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_global_average_pool():
    np.testing.assert_array_equal(net.global_average_pool(np.full((3, 5), 2.0)), [2, 2, 2])
    np.testing.assert_array_equal(net.global_average_pool(np.array([[4.0], [1.0]])), [4, 1])
    np.testing.assert_array_equal(
        net.global_average_pool(np.array([[1.0, 3.0], [0.0, 4.0]])), [2.0, 2.0]
    )


def test_backward_zero_upstream_gives_zero_grads(rng):
    params = net.init_params(SMALL, 5)
    x = rng.standard_normal((2, 16))
    _, cache = net.forward_cached(x, params, SMALL)
    grads = net.backward(net.OutputGrads(), cache, params, SMALL)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_backward_unused_heads_zero(rng):
    params = net.init_params(SMALL, 5)
    x = rng.standard_normal((2, 16))
    out, cache = net.forward_cached(x, params, SMALL)
    grads = net.backward(
        net.OutputGrads(dy_prob=[None, rng.standard_normal((3, 16))]),
        cache,
        params,
        SMALL,
    )
    assert np.all(grads["proj.w1"] == 0.0) and np.all(grads["ml.w"] == 0.0)
    assert np.any(grads["s0.l0.wd"] != 0.0)  # flows through the stage hand-off


def test_backward_stale_cache_detected(rng):
    params = net.init_params(SMALL, 5)
    x = rng.standard_normal((2, 16))
    _, cache = net.forward_cached(x, params, SMALL)
    params["ml.w"] = params["ml.w"] + 1.0
    with pytest.raises(net.StaleCacheError):
        net.backward(net.OutputGrads(), cache, params, SMALL)


@PASSES
def test_backward_accumulates_into_acc(stages, t_len, dtype):
    """backward(..., acc) adds exactly the four-argument result into acc,
    for every head and for the trainer's heads (no dz, no dv); output
    gradients of the parameters' dtype give gradients of that dtype."""
    config = net.TcnConfig(
        in_dim=2, num_classes=3, stages=stages, layers_per_stage=4, feature_dim=6, projector_dim=3
    )
    params = _params(config, stages, dtype)
    rng = np.random.default_rng(t_len)
    x = rng.standard_normal((2, t_len))
    out, cache = net.forward_cached(x, params, config)

    def normal(shape):
        return rng.standard_normal(shape).astype(dtype)

    every_head = net.OutputGrads(
        dz=normal(out.z.shape),
        dy_prob=[normal(p.shape) for p in out.y_prob],
        dy_s_logits=normal(out.y_s_logits.shape),
        dv=normal(out.v.shape),
    )
    trainer_heads = net.OutputGrads(dy_prob=every_head.dy_prob,
                                    dy_s_logits=every_head.dy_s_logits)
    for grads in (every_head, trainer_heads):
        fresh = net.backward(grads, cache, params, config)
        again = net.backward(grads, cache, params, config)
        assert fresh is not again and fresh.keys() == again.keys() == params.keys()
        assert all(np.array_equal(fresh[k], again[k]) for k in params)
        assert all(fresh[k].dtype == dtype for k in params)
        acc = {k: normal(v.shape) for k, v in params.items()}
        before = {k: v.copy() for k, v in acc.items()}
        assert net.backward(grads, cache, params, config, acc) is acc
        for k in params:
            assert np.array_equal(acc[k], before[k] + fresh[k]), k


@pytest.mark.parametrize("head", ["dz", "dy_prob", "dy_s_logits", "dv"])
def test_backward_refuses_output_gradients_of_another_dtype(head):
    """float32 parameters fed a float64 output gradient would run the whole
    backward in float64; backward refuses instead."""
    params = _params(SMALL, 0, np.float32)
    out, cache = net.forward_cached(np.ones((2, 7)), params, SMALL)
    given = {"dz": out.z, "dy_prob": out.y_prob[-1], "dy_s_logits": out.y_s_logits, "dv": out.v}
    wide = given[head].astype(np.float64)
    grads = net.OutputGrads(dy_prob=[out.y_prob[0], wide]) if head == "dy_prob" else (
        net.OutputGrads(**{head: wide}))
    with pytest.raises(ValueError, match="dtype float64, parameters of float32"):
        net.backward(grads, cache, params, SMALL)


def _probe_scalar(x, params, config, probes):
    """Deterministic scalar touching every head: random-weighted sums."""
    out = net.forward(x, params, config)
    total = (probes["z"] * out.z).sum()
    for s, p in enumerate(out.y_prob):
        total += (probes[f"y{s}"] * p).sum()
    total += (probes["ys"] * out.y_s_logits).sum()
    total += (probes["v"] * out.v).sum()
    return total


def test_full_backward_matches_finite_differences(rng):
    """Every parameter group of every head, D=2 T=16 F=4 C=3, rel err <= 1e-3."""
    params = net.init_params(SMALL, 11)
    x = rng.standard_normal((2, 16))
    probes = {
        "z": rng.standard_normal((4, 16)),
        "y0": rng.standard_normal((3, 16)),
        "y1": rng.standard_normal((3, 16)),
        "ys": rng.standard_normal(3),
        "v": rng.standard_normal((3, 16)),
    }
    out, cache = net.forward_cached(x, params, SMALL)
    grads = net.backward(
        net.OutputGrads(
            dz=probes["z"],
            dy_prob=[probes["y0"], probes["y1"]],
            dy_s_logits=probes["ys"],
            dv=probes["v"],
        ),
        cache,
        params,
        SMALL,
    )
    fn = lambda: _probe_scalar(x, params, SMALL, probes)
    for key in sorted(params):
        numeric = central_difference(fn, params[key], step=1e-4)
        assert_grad_close(grads[key], numeric)


def test_sum_of_features_gradient_oracle(rng):
    """Canonical probe: loss = sum of the feature map under frozen params."""
    params = net.init_params(SMALL, 21)
    x = rng.standard_normal((2, 16))
    out, cache = net.forward_cached(x, params, SMALL)
    grads = net.backward(
        net.OutputGrads(dz=np.ones_like(out.z)), cache, params, SMALL
    )
    fn = lambda: net.forward(x, params, SMALL).z.sum()
    for key in ("s1.l1.wd", "s1.in.w", "s0.l0.wr", "s0.out.b"):
        numeric = central_difference(fn, params[key], step=1e-4)
        assert_grad_close(grads[key], numeric)


def test_softmax_ce_stationary_at_one_hot(rng):
    """Composing softmax backward with CE gradient is zero at a correct
    one-hot prediction column."""
    prob = np.full((3, 4), 1e-9)
    prob[1, :] = 1.0 - 2e-9
    d_prob = np.zeros_like(prob)
    d_prob[1, 0] = -1.0 / prob[1, 0]  # CE gradient at the annotated column
    d_logits = net.softmax_columns_backward(d_prob, prob)
    np.testing.assert_allclose(d_logits[:, 0], 0.0, atol=1e-7)


def test_l2_normalize_and_backward(rng):
    v = rng.standard_normal((4, 6)) * 3.0
    vn, norms = net.l2_normalize_columns(v)
    np.testing.assert_allclose((vn ** 2).sum(axis=0), 1.0, atol=1e-12)
    probe = rng.standard_normal(vn.shape)
    analytic = net.l2_normalize_backward(probe, vn, norms)
    fn = lambda: (probe * net.l2_normalize_columns(v)[0]).sum()
    numeric = central_difference(fn, v, step=1e-6)
    assert_grad_close(analytic, numeric)
