"""End-to-end benchmark of wsseg training epochs and inference.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-timestamp|train-pseudo|infer
        [--seed 2024] [--seconds 35] [--trace 0|1]

``--seed`` is the corpus seed (2024 reproduces the acceptance corpus);
the training seed is fixed. Set-up runs ``SETUPS`` times and the median
is reported. Then operations (one training epoch on each of a few
corpora, or one scoring pass) run back to back, one at a time from one
process, until ``--seconds`` have passed; each operation's outputs are
checked after it ends, outside its timing. Every operation does the same
work from the same state, and the median operation time, per epoch, is
reported. Operations start on each CPU in turn (see ``start_on_cpu``).
With ``--trace 1`` every second operation runs traced and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUPS = 3
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)

# No more BLAS threads than CPUs; must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))


def blas_record(np):
    """BLAS library name, version and thread count as loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{blas.get('name')} {blas.get('version')}, threads={threads}"


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def start_on_cpu(cpu):
    """Move the process to ``cpu`` and let it run on all its CPUs again.

    A shared host's other tenants contend for one CPU at a time, and an
    operation on a contended CPU takes up to 1.7 times as long. The
    scheduler leaves a lone busy thread on the CPU it started on, so a run
    would take the contention of that one CPU, for better or worse.
    Starting operations on each CPU in turn spreads a run over all of them.
    The process keeps its full affinity, so BLAS threads may use every CPU.
    """
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, CPUS)


def measure(workload, seconds, tracer):
    """Run operations until ``seconds`` have passed. Returns the wall times
    of the untraced and the traced operations that passed their checks,
    the number attempted and the failure messages."""
    untraced, traced, failures = [], [], []
    attempted = 0
    at_least = 1 if tracer is None else 2
    workload.capture.install()
    try:
        deadline = time.perf_counter() + seconds
        while attempted < at_least or time.perf_counter() < deadline:
            trace_this = tracer is not None and attempted % 2 == 1
            start_on_cpu(CPUS[(attempted // 2 if tracer else attempted) % NPROC])
            attempted += 1
            workload.capture.clear()
            state = workload.new_state()
            try:
                if trace_this:
                    tracer.install()
                    try:
                        with tracer.root("op") as idx:
                            result = workload.operation(state)
                    finally:
                        tracer.uninstall()
                    elapsed = tracer.spans[idx][2] - tracer.spans[idx][1]
                else:
                    t0 = time.perf_counter()
                    result = workload.operation(state)
                    elapsed = time.perf_counter() - t0
                fails = workload.check(result)
            except Exception:  # an operation that raises counts as failed
                fails = [traceback.format_exc(limit=3)]
            if fails:
                failures.append(f"operation {attempted}: " + "; ".join(fails))
            else:
                (traced if trace_this else untraced).append(elapsed)
    finally:
        workload.capture.uninstall()
    return untraced, traced, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="wsseg end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "wsseg" / "__init__.py").is_file():
        print(f"perfbench: no wsseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracing
    import workloads
    from wsseg import backend

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from"
                     f" {', '.join(workloads.WORKLOADS)}")

    print(f"commit: {commit()}")
    print(f"python {platform.python_version()}, numpy {np.__version__},"
          f" BLAS {blas_record(np)}, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']},"
          f" nproc {NPROC}, kernel backend {backend.backend_name()}")
    print(f"workload {args.workload}, corpus seed {args.seed},"
          f" training seed {workloads.TRAIN_SEED}, {args.seconds:g} s, trace {args.trace}")

    tracer = tracing.Tracer() if args.trace else None

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times, warm_hashes = [], set()
    for i in range(SETUPS):
        start_on_cpu(CPUS[i % NPROC])
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
            try:
                with tracer.root("setup"):
                    workload.setup()
            finally:
                tracer.uninstall()
        else:
            workload.setup()
        setup_times.append(time.perf_counter() - t0)
        warm_hashes.add(workloads.params_digest(workload.warm.params))
    run_fails = workload.prepare_checks()
    if len(warm_hashes) != 1:
        run_fails.append("repeated set-ups gave different warm-start parameters")
    print(f"warm start: {workload.warm.epoch} phase-1 epoch(s); {workload.inputs}")

    untraced, traced, attempted, failures = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    if tracer is None:
        if not untraced:
            run_fails.append("no operation passed its checks")
        else:
            op_s = statistics.median(untraced)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "epoch_s": (op_s / workload.epochs_per_op, "s"),
                "samples_per_s": (workload.samples / op_s, "samples/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    elif not traced or not untraced:
        run_fails.append("too few operations to compare traced with untraced runs")
    else:
        metrics, self_sum, wall = tracing.layer_metrics(
            tracer, len(traced) * workload.epochs_per_op, SETUPS)
        if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
            run_fails.append(f"self times add to {self_sum!r} s, traced wall is {wall!r} s")
        if tracer.absent:
            print("absent functions (reported as 0): " + ", ".join(tracer.absent))
        plain, with_trace = statistics.median(untraced), statistics.median(traced)
        metrics.update({
            "trace.untraced_epoch_s": (plain / workload.epochs_per_op, "s"),
            "trace.epoch_s": (with_trace / workload.epochs_per_op, "s"),
            "trace.untraced_samples_per_s": (workload.samples / plain, "samples/s"),
            "trace.samples_per_s": (workload.samples / with_trace, "samples/s"),
            "trace.overhead_pct": (100.0 * (with_trace / plain - 1.0), "%"),
        })
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}
        print(f"count metrics sha256: {workloads.digest(counts)}")

    n_ok = len(untraced) + len(traced)
    print(f"setup_s each: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for label, times in (("untraced", untraced), ("traced", traced)):
        if len(times) >= 2:
            q = statistics.quantiles(times, n=4, method="inclusive")
            print(f"{label} operation s: n={len(times)} min {min(times):.4f} q1 {q[0]:.4f}"
                  f" median {q[1]:.4f} q3 {q[2]:.4f} max {max(times):.4f}")
    print(f"operations: {attempted} attempted, {attempted - n_ok} failed")
    print(f"output sha256: {workload.reference_hash}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in run_fails + failures:
        print(f"FAIL: {msg}")

    result = {
        "correct": not run_fails and not failures,
        "attempted": attempted,
        "failed": attempted - n_ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
