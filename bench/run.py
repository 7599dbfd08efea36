"""Benchmark launcher: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload well1d --seed 1 --seconds 20 --trace 0

Pins BLAS/OpenMP thread counts to 1, times the set-up in fresh processes,
runs the workload in a process of its own, and prints one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
A run record with provenance is written to ``bench/_out/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("well1d", "plane2d", "hybrid_orbits", "signal_metric")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 20
MEASURE_TIMEOUT_S = 140

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))


def provenance() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """Run ``workloads.py`` with ``args``; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> dict | None:
    """Measure one workload; returns the result, or None if a process failed."""
    env = {**os.environ, **{k: "1" for k in THREAD_ENV}, "PYTHONHASHSEED": "0"}
    common = ["--workload", name, "--seed", str(args.seed), "--size", args.size]
    try:
        probes = [run_child([*common, "--setup-only"], env, SETUP_TIMEOUT_S)
                  for _ in range(SETUP_PROBES)]
        child = run_child([*common, "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], env, MEASURE_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"{name}: benchmark failed: {exc}", file=sys.stderr)
        return None
    probes.append(child)
    setups = [p["setup_s"] for p in probes]

    if args.trace:
        metrics = child["per_layer"]
    else:
        values = {**child, "setup_s": statistics.median(setups)}
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in END_TO_END}
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}

    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "provenance": provenance(),
              "setup_samples_s": setups,
              "setup_raw_samples_s": [p["setup_raw_s"] for p in probes],
              "op_times_s": child["op_times_s"],
              "op_ref_times_s": child["op_ref_times_s"],
              "cal_blocks_s": child["cal_blocks_s"], "cal_before": child["cal_before"],
              "failed_frac": child["failed"] / child["attempted"], **result}
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run_{name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                   help="one workload, or all of them in turn (one JSON line each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem size; tiny is for the self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "switchflow" / "__init__.py").is_file():
        print(f"no switchflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(provenance()), file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        print(f"{name}: " + ", ".join(f"{k} = {v['value']:.6g} {v['unit']}"
                                      for k, v in result["metrics"].items()), file=sys.stderr)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
