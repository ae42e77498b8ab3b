"""avparse benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workloads are defined in ``workloads.py``; the metric names and units are
the ones ``BENCHMARK.json`` lists. ``--trace 0`` reports the end-to-end
metrics, measured with no tracing installed. ``--trace 1`` reports the
per-layer metrics: the scan-kernel sweep (``sweep.py``, in a fresh
process), then timed passes that alternate between traced (``tracing.py``)
and untraced; the ratio of their medians is ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
videos: training records (CMRC included) times epochs, plus the videos of
each evaluation pass. A video fails when its pass raises or its output fails
a correctness check; ``failed / attempted`` is the failure fraction. The
exit code is non-zero when a check fails or the traced run's self-check
does not hold.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# Before numpy is imported: one BLAS/OpenMP thread, in this process and in
# the sweep process it starts.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SWEEP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import avparse from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "avparse", "__init__.py")):
        raise SystemExit(f"error: no avparse package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import avparse

    if os.path.dirname(os.path.dirname(os.path.abspath(avparse.__file__))) != SRC:
        raise SystemExit(f"error: avparse imported from {avparse.__file__}, not {SRC}")


def provenance(args) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def run_sweep(seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join(HERE, "sweep.py"), str(seed)],
                          env=env, capture_output=True, text=True, timeout=SWEEP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"scan sweep failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(run, import_s: float) -> dict:
    import resource

    results = [r for _, r in run.passes]
    losses = {}
    for k, r in run.passes:
        losses.setdefault(k, r.losses[-1])
    return {
        "train_videos_per_s": statistics.median(r.train_videos / r.train_s for r in results),
        "eval_videos_per_s": statistics.median(r.eval_videos / r.eval_s for r in results),
        "setup_s": import_s + statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "loss_final": statistics.fmean(losses.values()),
    }


def per_layer(run, args) -> tuple[dict, dict]:
    from tracing import NullTracer, Tracer, layer_metrics

    sweep = run_sweep(args.seed)
    for name, why in sweep["absent"].items():
        print(f"absent: {name}: {why}", flush=True)
    tracer = Tracer()
    tracer.install()
    try:
        run.set_up_all(tracer)
    finally:
        tracer.uninstall()
    # Traced and untraced passes alternate, so slow drift in the machine's
    # speed reaches both alike; their medians give the tracing overhead.
    walls = {True: [], False: []}
    started = time.perf_counter()
    n = 0
    while n < 4 or time.perf_counter() - started < args.seconds:
        traced = n % 2 == 0
        k = (n // 2) % len(run.instances)
        if traced:
            tracer.install()
            try:
                with tracer.span("pass"):
                    result = run.one_pass(k, tracer)
            finally:
                tracer.uninstall()
        else:
            result = run.one_pass(k, NullTracer())
        if result is not None:
            walls[traced].append(result.train_s + result.eval_s)
        n += 1
    if not walls[True] or not walls[False]:
        raise RuntimeError("timed passes failed; no per-layer metrics")
    metrics, check = layer_metrics(tracer, setups=len(run.instances),
                                   passes=len(walls[True]),
                                   epochs=len(walls[True]) * run.w.epochs)
    metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0)
    metrics.update(sweep["metrics"])
    return metrics, check


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, HERE)
    import workloads
    from tracing import NullTracer

    import_s = time.perf_counter() - STARTED
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print("provenance: " + json.dumps(provenance(args)), flush=True)

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, work_dir)
    check = None
    try:
        if args.trace:
            values, check = per_layer(run, args)
        else:
            run.set_up_all(NullTracer())
            run.timed_loop(args.seconds, NullTracer())
            values = end_to_end(run, import_s) if run.passes else {}
        run.final_checks()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    if check is not None:
        print("trace self-check: " + json.dumps(check), flush=True)
        if not check["ok"]:
            run.problems.append("trace self-check failed")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        run.problems.append(f"metrics not produced: {missing}")
    for problem in run.problems:
        print("FAILED: " + problem, flush=True)
    for k, r in run.passes:
        print(f"pass on instance {k}: train {r.train_s:.3f} s for {r.train_videos} videos, "
              f"eval {r.eval_s:.3f} s for {r.eval_videos} videos", flush=True)
    print(f"passes: {len(run.passes)}, setup_s per instance: "
          + ", ".join(f"{s:.3f}" for s in run.setup_s)
          + f", failed_frac: {run.failed / max(1, run.attempted):.6f}", flush=True)
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
