"""Self-test of the benchmark's checks: each must pass on the program's
real output and fail on a deliberately corrupted copy of it.

Usage, from the repository root: python3 perfbench/selftest.py
Exits 0 when every check behaves, 1 otherwise.
"""

import math
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from wsseg import metrics, net, otrans, pseudo, seqdata  # noqa: E402


def small_problem():
    rng = np.random.default_rng(5)
    spec = seqdata.SyntheticSpec(num_classes=4, num_channels=3, length=600, seg_len_min=80,
                                 seg_len_max=200, noise_sigma=0.5, segment_jitter=0.3)
    seq, labels = seqdata.generate_synthetic(spec, 7)
    config = net.TcnConfig(in_dim=3, num_classes=4, stages=2, layers_per_stage=3,
                           feature_dim=8, projector_dim=5)
    params = net.init_params(config, 3)
    return rng, seq, labels, config, params


def cases():
    rng, seq, labels, config, params = small_problem()
    x = seq.data[:, :300]

    # backward: real gradient vs one scaled by 1.01
    def scaled_backward(*args):
        return {k: 1.01 * v for k, v in net.backward(*args).items()}

    bad_net = types.SimpleNamespace(forward=net.forward, forward_cached=net.forward_cached,
                                    OutputGrads=net.OutputGrads, backward=scaled_backward)
    yield ("gradient", checks.check_gradient(checks.gradient_trials(net, x, params, config)),
           checks.check_gradient(checks.gradient_trials(bad_net, x, params, config)))

    # transport plan: real plan vs one with a row perturbed
    emb = rng.standard_normal((400, 5))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    protos = rng.standard_normal((3, 5)) * 0.3
    plan = otrans.solve_order_preserving(emb, protos, rho=0.1, tol=1e-6)
    bad_q = plan.q.copy()
    bad_q[17] *= 1.5
    yield ("plan", checks.check_plan(plan.q, plan.converged, 1e-6),
           checks.check_plan(bad_q, plan.converged, 1e-6))

    # pseudo-labels: real labels vs a column that does not sum to 1
    ann = seqdata.sample_timestamps(labels, 9)
    q = np.zeros((labels.labels.size, 4))
    present = np.unique(ann.classes)
    q[:, present] = otrans.solve_order_preserving(
        rng.standard_normal((labels.labels.size, 5)), rng.standard_normal((present.size, 5)),
        rho=0.1).q
    y = pseudo.generate(q, ann, 0.5).y
    bad_y = y.copy()
    mid = (int(ann.positions[0]) + int(ann.positions[1])) // 2
    bad_y[:, mid] *= 0.9
    yield ("pseudo-labels", checks.check_pseudo(y, ann.positions, ann.classes),
           checks.check_pseudo(bad_y, ann.positions, ann.classes))

    # scores: the program's report vs the same report with F_m off by 1e-6
    prob = net.forward(seq.data, params, config).y_prob[-1]
    pred = np.argmax(prob, axis=0)
    pairs = [(pred, labels.labels), (np.roll(labels.labels, 37), labels.labels)]
    report = metrics.evaluate_many(pairs, 4).as_row()
    expected = checks.scores(pairs, 4)
    wrong = dict(report, f_m=report["f_m"] + 1e-6)
    yield "scores", checks.check_scores(report, expected), checks.check_scores(wrong, expected)

    # probability columns
    bad_prob = prob.copy()
    bad_prob[0, 10] += 1e-9
    yield "probability columns", checks.check_prob_columns(prob), checks.check_prob_columns(bad_prob)

    # window predictions: a real window vs one with an interior column changed
    radius = checks.receptive_radius(config)
    start, width = 50, 2 * radius + 100
    win = net.forward(seq.data[:, start:start + width], params, config).y_prob[-1]
    bad_win = win.copy()
    bad_win[:, radius + 5] = bad_win[::-1, radius + 5]
    yield ("window", checks.check_window(prob, win, start, radius),
           checks.check_window(prob, bad_win, start, radius))

    # finite train log
    record = {"loss_total": 1.5, "val_f_m": 0.4}
    yield ("finite log", checks.check_finite_log(record),
           checks.check_finite_log(dict(record, loss_total=math.nan)))


def main():
    ok = True
    for name, clean, corrupted in cases():
        good = not clean and bool(corrupted)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: clean input"
              f" {'passes' if not clean else 'fails: ' + '; '.join(clean)},"
              f" corrupted input {'fails: ' + corrupted[0] if corrupted else 'passes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
