"""Benchmark for rvf: end-to-end timings untraced, per-layer timings traced.

Run from the repository root:

    python3 perfbench/run.py --workload pointmass-full --seed 1 --seconds 25 --trace 0

Workloads are listed in perfbench/README.md.  The run sets up the workload's
inputs from --seed, repeats whole rounds of its operations until --seconds
have passed, checks the outputs against refs.py, and prints one JSON object
as its last line: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Details and the call tree go to perfbench/out/.
"""

import os
import time

# BLAS threads are pinned before numpy loads; every figure is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse          # noqa: E402
import contextlib        # noqa: E402
import importlib         # noqa: E402
import json              # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
RVF_MODULES = ("harness", "bnn_critic", "actor", "math_core", "envs_data",
               "linear_mdp", "oracles", "cli")
# Cold set-ups timed in fresh processes, started at even intervals over the
# run; `setup_s` is the fastest of them and of this process's own set-up.
SETUP_SAMPLES = 5


def cold_setup_s(args) -> float:
    """CPU time of one cold set-up of the workload in a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def machine_info(np) -> dict:
    blas = {}
    with contextlib.suppress(Exception):   # show_config's layout varies
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {"cpu_count": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "blas": blas, "numpy": np.__version__,
            "python": sys.version.split()[0],
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print its CPU seconds")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "rvf")):
        print(f"error: no rvf sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    import rvf
    for name in RVF_MODULES:
        importlib.import_module(f"rvf.{name}")
    import layers
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    machine = machine_info(np)
    if not args.setup_only:
        print("machine:", json.dumps(machine))

    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer)
    if args.trace:
        patcher.install(layers.patch_targets(rvf))
        span = tracer.span
    else:
        span = lambda name: contextlib.nullcontext()   # noqa: E731

    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](rvf, args.workload, args.seed,
                                            run_dir, span)
        workload.setup()
        # CPU time of this process since it started: interpreter start-up,
        # imports and the workload's set-up, without time spent waiting for
        # the disk or for a core.  The process is single-threaded.
        setups = [time.process_time()]
        if args.setup_only:
            print(setups[0])
            return 0

        rounds, op_times = [], {}
        t_loop = time.perf_counter()
        while not rounds or time.perf_counter() - t_loop < args.seconds:
            # One sample of set-up time is one draw of the machine's speed:
            # cold set-ups spread over the run let its fast stretches show.
            if not args.trace and len(setups) <= SETUP_SAMPLES and \
                    time.perf_counter() - t_loop >= \
                    (len(setups) - 1) * args.seconds / SETUP_SAMPLES:
                setups.append(cold_setup_s(args))
            t0 = time.perf_counter()
            for op, seconds in workload.round().items():
                op_times.setdefault(op, []).append(seconds)
            rounds.append(time.perf_counter() - t0)
        # A round at each operation's fastest: a slow period of the machine
        # slows the operations inside it and is skipped, even when no whole
        # round fits between two slow periods.
        best_round_s = sum(min(times) for times in op_times.values())

        with span("check"):
            checks = workload.checks()
        summary = workload.summary()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        patcher.restore()
        shutil.rmtree(run_dir, ignore_errors=True)

    for c in checks:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} ({c.detail})")
    summary.update(rounds=len(rounds), round_s=rounds, setup_s=setups,
                   best_op_s={op: min(t) for op, t in op_times.items()})
    print("summary:", json.dumps(summary))

    if args.trace:
        metrics, absent = layers.layer_metrics(tracer, patcher, workload.work())
        if absent:
            print("absent:", ", ".join(absent))
    else:
        metrics = {"setup_s": {"value": min(setups), "unit": "s"},
                   "best_round_s": {"value": best_round_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": all(c.ok for c in checks),
              "attempted": workload.ops_per_round * len(rounds),
              "failed": 0, "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "summary": summary,
              "checks": [c.__dict__ for c in checks], "result": result}
    if args.trace:
        record["call_tree"] = tracer.tree()
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
