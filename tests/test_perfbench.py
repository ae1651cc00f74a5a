"""The benchmark's stand-alone checks still import and pass against the
package, its tracer finds every function it wraps, and a short traced run
of each workload passes its own output checks. A traced run takes an
untraced operation and then a traced one, so the check covers both and
the tracer's counters read the outputs they wrap. Each fails loudly if a
name it reads from ``wsseg`` goes away or a benchmark check fails. No
function the tracer wraps may run on a worker thread of the scoring pass,
because the tracer keeps one span stack for all threads."""

import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["kernel_check.py", "selftest.py"])
def test_perfbench_script_exits_zero(script):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr


def _assert_run_passes(workload, *flags):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0.1", "--trace", "1", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stdout


@pytest.mark.parametrize("workload", ["train-timestamp", "train-pseudo", "infer"])
def test_perfbench_workload_passes_its_checks(workload):
    _assert_run_passes(workload)


def test_perfbench_infer_passes_at_the_near_tie_corpus_seed():
    # at corpus seed 37 some argmax columns are near ties, so a scoring pass
    # at another precision than the benchmark's float64 recomputation fails
    # every operation there
    _assert_run_passes("infer", "--seed", "37")


def test_tracer_finds_every_wrapped_name(monkeypatch):
    # a missing name only prints a note in a run and its layer reads 0
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    originals = [getattr(tracer.modules[mod], attr, None) for mod, attr, _, _ in tracing.WRAPPED]
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    restored = [getattr(tracer.modules[mod], attr) for mod, attr, _, _ in tracing.WRAPPED]
    assert all(a is b for a, b in zip(restored, originals))


def test_benchmark_configs_use_prototypes(monkeypatch):
    # both workload configs weight contrast in, as the ablation's variants 3 and 4 do
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    assert all(workloads.full_method_config(v).use_prototypes for v in (3, 4))


def test_no_wrapped_function_runs_on_a_scoring_worker(monkeypatch):
    # the tracer keeps one span stack for all threads, so every function it
    # wraps must run on the thread that calls trainer.evaluate
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from wsseg import net, seqdata, trainer

    threads = {}
    for mod, attr, _, _ in tracing.WRAPPED:
        module = importlib.import_module(f"wsseg.{mod}")
        fn = getattr(module, attr)

        def spy(*args, _fn=fn, _name=f"{mod}.{attr}", **kwargs):
            threads.setdefault(_name, set()).add(threading.current_thread())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    scoring = set()
    probabilities = net.probabilities

    def scoring_spy(*args):
        scoring.add(threading.current_thread())
        return probabilities(*args)

    monkeypatch.setattr(net, "probabilities", scoring_spy)
    monkeypatch.setattr(trainer, "_cpus", lambda: 3)
    config = trainer.TrainConfig(
        net=net.TcnConfig(in_dim=2, num_classes=3, stages=2, layers_per_stage=3, feature_dim=4,
                          projector_dim=4),
        epochs_max=1, epochs_init=1, batch_size=2, crop_len=60, proto_k=4, anchor_count=8)
    rng = np.random.default_rng(0)
    data = [trainer.LabeledSequence(seqdata.SensorSequence(rng.standard_normal((2, t))),
                                    seqdata.DenseLabels(np.arange(t) % 3, 3)) for t in (90, 60, 30)]
    trainer.evaluate(trainer.new_state(config), data)
    assert len(scoring) == 3
    assert threads and all(seen == {threading.main_thread()} for seen in threads.values())
