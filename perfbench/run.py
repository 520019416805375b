"""Benchmark of the toxicspans package: three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1    # every workload, each in its own process

The package is imported from ``src/``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Full records (inputs, environment,
checks, failures by operation) and span traces go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
# BLAS threads in every workload process (at or below nproc, set before numpy loads)
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-short", "predict-long", "cli-pipeline")


def import_package() -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "toxicspans"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import toxicspans

    if Path(toxicspans.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: toxicspans imported from {toxicspans.__file__}, not {package}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_digest() -> str:
    """Digest of the package and benchmark sources: the program measured."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "toxicspans").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, when numpy bundles OpenBLAS."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def check_against_earlier_runs(run, digest: str) -> None:
    """Runs of one seed on one program must write identical checkpoints."""
    path = OUT / "checkpoint_sha256.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name, sha in run.checkpoint_sha256.items():
        key = f"{digest}:{run.workload}:{run.seed}:{name}"
        earlier = known.setdefault(key, sha)
        run.check("checkpoint_bytes_match_earlier_runs", earlier == sha, "training", key)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def measure(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from tracer import Tracer
    from workloads import WORKLOADS, Run, TargetReached, clock

    workload = WORKLOADS[workload_name]()
    run = Run(workload=workload_name, seed=seed, seconds=seconds, workdir=workdir, traced=trace)
    workload.prepare(run)
    if not trace:
        # set-up repetitions are spread between the units, so that a burst
        # of load on the machine reaches few of them
        setups, state, index = [], None, 0
        start, cpu_start = time.perf_counter(), clock()
        while True:
            units_due = index < workload.min_units or time.perf_counter() - start < seconds
            if not units_due and len(setups) >= SETUP_REPEATS:
                break
            gc.collect()  # start every timed phase from the same collector state
            began = clock()
            fresh = workload.setup(run)
            setups.append(clock() - began)
            if state is None:
                state = fresh
            if units_due:
                gc.collect()
                workload.unit(run, state, index)
                index += 1
        run.facts["clock"] = {"wall_s": time.perf_counter() - start, "reference_cpu_s": clock() - cpu_start,
                              "units": index, "setups": len(setups)}
        run.metrics["setup_s"] = statistics.median(setups)
        workload.finish(run, state)
        run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return run, None

    def once() -> float:
        gc.collect()
        start = clock()
        state = workload.setup(run)
        workload.unit(run, state, 0)
        workload.finish(run, state)
        return clock() - start

    untraced = once()
    run.tracer = tracer = Tracer(passthrough=(TargetReached,))
    tracer.install()
    try:
        traced = once()
    finally:
        tracer.uninstall()
    layers, absent = tracer.metrics()
    layers["trace.overhead_s"] = traced - untraced
    trace_path = OUT / "traces" / f"{workload_name}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, {"workload": workload_name, "seed": seed, "untraced_s": untraced,
                              "traced_s": traced, "absent": absent})
    run.facts["trace"] = {"file": str(trace_path.relative_to(ROOT)), "absent": absent,
                           "untraced_s": untraced, "traced_s": traced}
    return run, layers


def run_one(args: argparse.Namespace) -> int:
    import_package()
    import speed

    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    speed.start()
    try:
        run, layers = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    run.facts["cpu_speed"] = speed.summary()
    check_against_earlier_runs(run, source_digest())
    values = layers if args.trace else run.metrics
    missing = [m["name"] for m in wanted if m["name"] not in values]
    run.check("all_metrics_measured", not missing, "run", f"missing {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    # measured but left out of BENCHMARK.json (too noisy on a shared machine to bound)
    unbounded = {name: value for name, value in values.items() if name not in metrics}
    attempted, failed = sum(run.attempted.values()), sum(run.failed.values())
    correct = failed == 0 and all(run.checks.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "metrics": metrics, "unbounded_metrics": unbounded,
        "environment": environment(), "facts": run.facts,
        "attempted_by_operation": dict(run.attempted), "failed_by_operation": dict(run.failed),
        "failed_share": {kind: run.failed[kind] / n for kind, n in run.attempted.items()},
        "checks": run.checks, "checkpoint_sha256": run.checkpoint_sha256, "notes": run.notes[:50],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{args.workload:>13}  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in unbounded.items():
        print(f"{args.workload:>13}  {name:<28} {value:>14.6g} (not bounded)")
    print(f"{args.workload:>13}  failed share by operation: {record['failed_share']}")
    print(f"{args.workload:>13}  environment: {record['environment']}")
    for fact in ("clock", "cpu_speed"):
        if fact in run.facts:
            print(f"{args.workload:>13}  {fact}: {run.facts[fact]}")
    for note in run.notes[:10]:
        print(f"{args.workload:>13}  note: {note}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of all metrics."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        summary[name] = json.loads(lines[-1])
        status |= not summary[name]["correct"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
