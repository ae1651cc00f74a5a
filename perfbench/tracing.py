"""Spans around the public functions of each wsseg module, recorded from
outside the package.

``Tracer.install`` replaces module attributes with timing wrappers and
``uninstall`` puts the originals back, so untraced operations run the
program untouched. A function is wrapped under the name its caller looks
up: ``net`` binds the conv kernels and ``trainer`` binds the prototype
and metric functions at import, so those bindings are wrapped as well as
the defining module's attribute. A name that no longer exists is listed
as absent instead of raising.

Spans are kept in memory as ``[layer, start, end, parent, counter]``;
their name, start, end and parent are written out when the run ends. A
layer's self time is its spans' duration minus their direct children's,
so the self times of all layers add up to the root spans' wall time.
"""

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _conv_fwd(counts, args, kwargs, out):
    x, w = args[0], args[1]
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    counts["kernels.calls"] += 1
    counts["kernels.flop"] += 2 * cout * cin * kw * t_len + cout * t_len


def _conv_bwd(counts, args, kwargs, out):
    x, w = args[0], args[1]
    cout, cin, kw = w.shape
    t_len = x.shape[1]
    counts["kernels.calls"] += 1
    # d_x and d_w each take one multiply-add per tap; d_b one add per output
    counts["kernels.flop"] += 4 * cout * cin * kw * t_len + cout * t_len


def _forward(counts, args, kwargs, out):
    x = getattr(args[0], "data", args[0])
    counts["net.forward_calls"] += 1
    counts["net.samples"] += np.shape(x)[1]


def _backward(counts, args, kwargs, out):
    counts["net.backward_calls"] += 1


def _update(counts, args, kwargs, out):
    counts["proto.updates"] += 1


def _mine(counts, args, kwargs, out):
    n = len(out)
    counts["contrast.pairs"] += n
    counts["contrast.empty"] += n == 0


def _plan(counts, args, kwargs, out):
    counts["otrans.calls"] += 1
    counts["otrans.iters"] += out.iterations_used
    counts["otrans.iters_max"] = max(counts["otrans.iters_max"], out.iterations_used)
    counts["otrans.unconverged"] += not out.converged


def _fallback(counts, args, kwargs, out):
    counts["pseudo.fallback"] += out[0] is None


def _hard(counts, args, kwargs, out):
    counts["pseudo.hard"] += int(out.hard_mask.sum())
    counts["pseudo.samples"] += out.hard_mask.size


def _segments(counts, args, kwargs, out):
    pairs = args[0] if args else kwargs.get("pairs")
    if isinstance(pairs, list):
        for pred, _ in pairs:
            counts["metrics.pred_segments"] += 1 + int(np.count_nonzero(np.diff(pred)))


# (module, attribute, layer, counter)
WRAPPED = [
    ("net", "dilated_conv_forward", "kernels.fwd", _conv_fwd),
    ("kernels", "dilated_conv_forward", "kernels.fwd", _conv_fwd),
    ("net", "dilated_conv_backward", "kernels.bwd", _conv_bwd),
    ("kernels", "dilated_conv_backward", "kernels.bwd", _conv_bwd),
    ("net", "forward", "net.forward", _forward),
    ("net", "forward_cached", "net.forward", _forward),
    ("net", "l2_normalize_columns", "net.forward", None),
    ("net", "backward", "net.backward", _backward),
    ("net", "l2_normalize_backward", "net.backward", None),
    ("losses", "l_conf", "losses.conf", None),
    ("losses", "l_seg_timestamps", "losses.other", None),
    ("losses", "l_seg_all", "losses.other", None),
    ("losses", "l_smooth", "losses.other", None),
    ("losses", "l_cls", "losses.other", None),
    ("losses", "combined", "losses.other", None),
    ("cam", "compute_cams", "cam", None),
    ("cam", "normalize_cams", "cam", None),
    ("cam", "pseudo_mask", "cam", None),
    ("trainer", "estimate_prototype", "proto", None),
    ("proto", "estimate_prototype", "proto", None),
    ("trainer", "update_bank", "proto", _update),
    ("proto", "update_bank", "proto", _update),
    ("contrast", "mine_pairs", "contrast.mine", _mine),
    ("contrast", "info_nce", "contrast.info_nce", None),
    ("otrans", "solve_order_preserving", "otrans", _plan),
    ("trainer", "generate_pseudo_for_sequence", "pseudo", _fallback),
    ("pseudo", "generate", "pseudo", _hard),
    ("trainer", "evaluate_many", "metrics", _segments),
    ("metrics", "evaluate_many", "metrics", _segments),
    ("trainer", "sample_timestamps", "seqdata", None),
    ("trainer", "sequence_multilabel", "seqdata", None),
    ("trainer", "segments_of", "seqdata", None),
    ("seqdata", "generate_synthetic", "seqdata", None),
    ("trainer", "train", "trainer", None),
    ("trainer", "evaluate", "trainer", None),
]

ROOT_LAYER = "trainer"

# Per-layer metrics: self times in seconds per operation, counts per
# operation. Every layer of WRAPPED has one time metric.
TIME_METRICS = {
    "kernels.fwd": "kernels.fwd_s",
    "kernels.bwd": "kernels.bwd_s",
    "net.forward": "net.forward_s",
    "net.backward": "net.backward_s",
    "losses.conf": "losses.conf_s",
    "losses.other": "losses.other_s",
    "cam": "cam.s",
    "proto": "proto.s",
    "contrast.mine": "contrast.mine_s",
    "contrast.info_nce": "contrast.info_nce_s",
    "otrans": "otrans.s",
    "pseudo": "pseudo.s",
    "metrics": "metrics.s",
    "seqdata": "seqdata.s",
    "trainer": "trainer.s",
}
COUNT_METRICS = [
    "kernels.calls", "net.forward_calls", "net.backward_calls", "net.samples",
    "proto.updates", "contrast.pairs", "contrast.empty", "otrans.calls", "otrans.iters",
    "otrans.unconverged", "pseudo.fallback", "metrics.pred_segments",
]


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"wsseg.{name}")
                        for name in sorted({entry[0] for entry in WRAPPED})}
        self.spans = []  # [layer, start, end, parent index or None, counter]
        self.stack = []
        self.roots = defaultdict(list)  # root kind -> span indices
        self.counts = defaultdict(lambda: defaultdict(float))  # root kind -> counts
        self.kind = None
        self.absent = []
        self._saved = []

    def install(self):
        absent = []
        for mod_name, attr, layer, counter in WRAPPED:
            module = self.modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer, counter))
            self._saved.append((module, attr, fn))
        self.absent = absent

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, layer, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [layer, 0.0, 0.0, parent, counter]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            # a call nested in one with the same counter (forward ->
            # forward_cached) is counted once, by the outer span
            if counter is not None and spans[parent][4] is not counter:
                counter(self.counts[self.kind], args, kwargs, out)
            return out

        return traced

    @contextmanager
    def root(self, kind):
        """Top-level span of one operation or set-up; returns its index."""
        idx = len(self.spans)
        span = [ROOT_LAYER, 0.0, 0.0, None, None]
        self.spans.append(span)
        self.roots[kind].append(idx)
        self.kind = kind
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield idx
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self, kind):
        """(self seconds per layer, wall seconds of the roots, span count)
        summed over the roots of one kind."""
        wanted = set(self.roots[kind])
        root_of = []
        child = [0.0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                root_of.append(i)
            else:
                root_of.append(root_of[parent])
                child[parent] += end - start
        totals = defaultdict(float)
        n_spans = 0
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            if root_of[i] in wanted:
                totals[layer] += (end - start) - child[i]
                n_spans += 1
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in wanted)
        return totals, wall, n_spans

    def write(self, path):
        with open(path, "w") as fh:
            for layer, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": layer, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracer, n_ops, n_setups):
    """Per-layer metric values per traced epoch or scoring pass, of which
    there were ``n_ops``, as {name: (value, unit)}."""
    totals, wall, n_spans = tracer.self_times("op")
    out = {}
    for layer, name in TIME_METRICS.items():
        out[name] = (totals.get(layer, 0.0) / n_ops, "s")
    c = tracer.counts["op"]
    for name in COUNT_METRICS:
        out[name] = (c.get(name, 0.0) / n_ops, "count")
    kernel_s = totals.get("kernels.fwd", 0.0) + totals.get("kernels.bwd", 0.0)
    flop = c.get("kernels.flop", 0.0)
    out["kernels.gflop"] = (flop / 1e9 / n_ops, "GFLOP")
    out["kernels.gflop_per_s"] = (flop / 1e9 / kernel_s if kernel_s > 0 else 0.0, "GFLOP/s")
    out["pseudo.hard_fraction"] = (
        c["pseudo.hard"] / c["pseudo.samples"] if c.get("pseudo.samples") else 0.0, "ratio")
    out["otrans.iters_max"] = (c.get("otrans.iters_max", 0.0), "count")
    out["trace.spans"] = (n_spans / n_ops, "count")
    out["trace.mean_epoch_s"] = (wall / n_ops, "s")
    setup_totals, _, _ = tracer.self_times("setup")
    out["seqdata.setup_s"] = (setup_totals.get("seqdata", 0.0) / max(n_setups, 1), "s")
    return out, sum(totals.values()), wall
