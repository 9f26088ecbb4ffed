#!/usr/bin/env python3
"""Benchmark of the embfuse pipeline: parse -> fuse -> train -> eval.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's public functions, records spans and reports the per-layer metrics
(half the time untraced, half traced, so the tracing overhead is measured).
``--workload all`` runs every workload untraced, each in its own process,
and exits non-zero if any output check failed. The last line of output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up repeats at least SETUP_MIN_REPS times and until SETUP_BUDGET_S seconds
# are spent, so a quick set-up gets enough repeats for a steady median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 12, 4.0
WORKLOAD_NAMES = ("paper_sweep", "tiny_lrfind", "ingest_fuse")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    """Cap BLAS threads at the usable cores and unset EMBFUSE_THREADS.

    Runs before numpy is imported, so BLAS reads the capped values. The sweep
    runs serially because BLAS already uses every core.
    """
    cores = len(os.sched_getaffinity(0))
    embfuse_vars = {k: v for k, v in os.environ.items() if k.startswith("EMBFUSE_")}
    os.environ.pop("EMBFUSE_THREADS", None)
    for var in _THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(min(max(wanted, 1), cores))
    return {"nproc": cores, "embfuse_vars_given": embfuse_vars,
            "embfuse_vars_used": {k: v for k, v in os.environ.items() if k.startswith("EMBFUSE_")},
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def import_program():
    """Import embfuse from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "embfuse", "__init__.py")):
        sys.exit(f"perfbench: no embfuse package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import embfuse
    from embfuse import corpus, embedding_io, fusion, model, optim
    if os.path.dirname(os.path.dirname(os.path.abspath(embfuse.__file__))) != SRC:
        sys.exit(f"perfbench: embfuse was imported from {embfuse.__file__}, not {SRC}")
    return types.SimpleNamespace(corpus=corpus, embedding_io=embedding_io, fusion=fusion,
                                 model=model, optim=optim)


def environment(pinned: dict, seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return dict(pinned, numpy=np.__version__, blas=blas, python=platform.python_version(),
                seed=seed)


def import_probe_s() -> float:
    """Wall time of a fresh interpreter that imports embfuse from this checkout."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import embfuse"],
                   check=True, timeout=120)
    return time.perf_counter() - t0


def run_phase(wl, seconds: float, tracer=None) -> list:
    """Closed loop: run and check iterations until their timed work fills ``seconds``.

    A further iteration starts only while the timed work so far, plus half an
    average iteration, stays inside ``seconds``, so a run of long iterations
    measures close to ``seconds`` instead of overshooting by one iteration.
    """
    its = []
    busy = 0.0
    while not its or busy + 0.5 * busy / len(its) < seconds:
        if tracer is None:
            it = wl.iteration()
        else:
            with tracer.span("bench.iteration"):
                it = wl.iteration()
        busy += it.wall
        wl.check(it)
        it.outputs = ()
        its.append(it)
    return its


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pinned = pin_environment()
    api = import_program()
    sys.path.insert(0, HERE)
    import oracles
    import workloads

    tally = oracles.Tally()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](api, seed, workdir, tally)
        # set-up: a fresh interpreter importing the program, then the inputs
        setups = []
        while len(setups) < SETUP_MIN_REPS or (
                sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPS):
            started = import_probe_s()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(started + time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        wl.warm_up()
        if trace:
            import spans as tracing
            plain = run_phase(wl, seconds / 2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run_phase(wl, seconds / 2, tracer)
            peak = wl.parse_peak_mb()
            overhead = workloads.mean_wall(traced) / workloads.mean_wall(plain) - 1.0
            layer = tracing.layer_metrics(tracer, len(traced), peak, overhead)
            with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
                declared = {m["name"]: m for m in json.load(fh)["per_layer"]}
            metrics = {k: {"value": v, "unit": declared[k]["unit"]} for k, v in layer.items()}
            for key, value in layer.items():
                tag = " (computed)" if declared[key]["computed"] else ""
                print(f"layer {name} {key} {value!r} {declared[key]['unit']}{tag}")
            for missing in tracer.absent:
                print(f"absent {missing}")
            for err in tracer.hook_errors[:10]:
                print(f"hook-error {err}")
        else:
            its = run_phase(wl, seconds)
            for key, (value, unit) in wl.headline(its).items():
                print(f"metric {name} {key} {value!r} {unit}")
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "items_per_s": {"value": workloads.rate(its), "unit": "1/s"},
                "iteration_s": {"value": workloads.mean_wall(its), "unit": "s"},
            }
            print(f"iterations {name} {len(its)}")
        wl.check_once()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass                        # another run still uses it

    for key in ("setup_s", "peak_rss_mb"):
        if key in metrics:
            print(f"metric {name} {key} {metrics[key]['value']!r} {metrics[key]['unit']}")
    for message in tally.messages:
        print(f"FAILED {message}")
    print("env " + json.dumps(environment(pinned, seed), sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced, each in a child process; non-zero if any check fails."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
