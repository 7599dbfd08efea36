"""Self-test of the benchmark: tiny runs, perturbed outputs, missing sources.

    python3 bench/selftest.py

Exits 0 when every check passes; prints one line per check.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_tiny(spec: dict) -> None:
    """Every workload, traced and untraced, prints every metric of BENCHMARK.json."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            for seed in (workloads.DEFAULT_SEED, 7):
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
                     "--size", "tiny"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, timeout=120)
                what = f"tiny {name} seed {seed} trace {trace}"
                if proc.returncode != 0:
                    check(False, f"{what}: exit code {proc.returncode}")
                    continue
                res = json.loads(proc.stdout.splitlines()[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(sorted(res) == ["attempted", "correct", "failed", "metrics"]
                      and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                      and got == want, what)


def perturbed(res: dict, name: str) -> list[dict]:
    """Copies of a correct result, each with one deliberate error."""
    bad = []
    if name in ("well1d", "plane2d"):
        r = copy.deepcopy(res)
        comp = max(r["components"], key=lambda c: c["cell_count"])
        comp["cell_runs"][-1][1] -= 1
        comp["cell_count"] -= 1
        comp["csv_cells"].pop()
        bad.append(r)
        bad.append(dict(res, exit_code=4))
    elif name == "hybrid_orbits":
        r = copy.deepcopy(res)
        r["a"][0] += 1e-6
        bad.append(r)
        bad.append(dict(res, dist_swapped=res["dist"][-1] + 1e-6))
    else:
        bad.append(dict(res, delta=res["delta"] + 1e-6, delta_swapped=res["delta"] + 1e-6))
        bad.append(dict(res, lhs=res["bound"] + 1.0))
    return bad


def perturbations() -> None:
    """The output check accepts the real output and rejects perturbed ones."""
    for name in workloads.WORKLOADS:
        work, ref = workloads.setup(name, "tiny", workloads.DEFAULT_SEED)
        _, problems, res = workloads.attempt(work, ref, 0)
        check(not problems, f"{name}: recorded output passes")
        op_ref = work.reference_for(ref, 0)
        for k, r in enumerate(perturbed(res, name)):
            check(bool(work.problems(0, r, op_ref)), f"{name}: perturbation {k} fails")
        work.op = lambda inp: 1 / 0
        _, problems, _ = workloads.attempt(work, ref, 1)
        check(bool(problems), f"{name}: an exception in the op counts as failed")


def without_sources() -> None:
    """Without ``src/`` the benchmark exits non-zero and prints no result."""
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "well1d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=120)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without src/: non-zero exit and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    perturbations()
    without_sources()
    run_tiny(spec)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
