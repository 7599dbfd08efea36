"""The four benchmark workloads and the process that measures one of them.

Run through ``bench/run.py``, which pins thread counts and starts one
process per workload. ``python3 bench/workloads.py --record`` re-records
``references.json`` from the code in ``src/``.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "_out"
REFERENCES = BENCH_DIR / "references.json"
DEFAULT_SEED = 0
TOL = 1e-10

COMPLETE2 = {"vertices": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]], "labels": ["A", "B"]}

# Two-well system of scripts/configs/two_well_complete.json.
TWO_WELL = {
    "graph": COMPLETE2,
    "system": {"box": [[0.0, 2.0]], "h": 0.1, "substeps": 20,
               "fields": ["-x1*(x1-1)*(x1-2)", "-x1*(x1-2)"]},
    "analysis": {"eps": 0.02, "references": [[0.0, 1.0], [2.0, 2.0]]},
}

# Van der Pol (A) against a stable focus (B); m*h = 1 at full size.
PLANE = {
    "graph": COMPLETE2,
    "system": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 6.0, "substeps": 20,
               "fields": [["x2", "-x1+(1-x1**2)*x2"], ["-x1+x2", "-x1-x2"]]},
    "analysis": {"eps": 0.05, "references": []},
}

# Problem size per workload; "tiny" is for the self-test.
SIZES = {
    "full": {"well1d": {"cells": [2000], "m": 3}, "plane2d": {"cells": [20, 20], "m": 6},
             "hybrid_orbits": {"cells": 20}, "signal_metric": {"max_core": 40}},
    "tiny": {"well1d": {"cells": [200], "m": 1}, "plane2d": {"cells": [8, 8], "m": 2},
             "hybrid_orbits": {"cells": 3}, "signal_metric": {"max_core": 5}},
}

# Seeded workloads are compared with the reference for their first ops.
REFERENCE_OPS = {"hybrid_orbits": 16, "signal_metric": 64}
MIN_TIMED_OPS = 3

# Host-speed calibration. The shared host's speed drifts by up to 2x, over
# spans from under a second to minutes, for all code alike, so raw op times
# of runs made minutes apart differ by more than any useful bound. The run
# alternates blocks of ops, each at least CAL_EVERY_S long, with blocks of a
# fixed calibration kernel that uses numpy but no switchflow code, each
# CAL_SHARE of the preceding op block's length. Each op time is scaled by
# CAL_REF_S over the mean sample time of the calibration blocks before and
# after it. CAL_REF_S is the sample time at the host's fast speed, so
# scaled times read as seconds at that speed.
CAL_REPS = 1000
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1
CAL_SHARE = 0.15
SETUP_CAL_S = 0.05


def calibrate() -> float:
    """Time one calibration sample: small-array numpy calls, dict updates and
    a vectorised pass, the kinds of work the workloads' ops do."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.array([0.3, -0.2])
    v = np.linspace(0.0, 1.0, 4096)
    acc: dict[int, int] = {}
    for k in range(CAL_REPS):
        x = x + 0.01 * np.array([x[1], -x[0]])
        acc[k % 61] = acc.get(k % 61, 0) + k
        if k % 16 == 0:
            v = np.sqrt(v * v + 1e-3)
    return time.perf_counter() - t0


def import_switchflow():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sf = importlib.import_module("switchflow")
    if not Path(sf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"switchflow was imported from {sf.__file__}, not {SRC}")
    return sf


def _diff(path: str, got, want) -> list[str]:
    """Mismatches between a result and its reference; floats to 1e-9 relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        return [p for key in want for p in _diff(f"{path}.{key}", got.get(key), want[key])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected {len(want)} entries, got {got!r:.80}"]
        return [p for k, (g, w) in enumerate(zip(got, want)) for p in _diff(f"{path}[{k}]", g, w)]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{path}: got {got!r}, expected {want!r}"]


def _cells_of_runs(runs) -> list[int]:
    return [c for lo, hi in runs for c in range(lo, hi + 1)]


# Fields of a chain_summary.json component compared with the reference; the
# config echo is left out, since removing options changes it.
REFERENCE_KEYS = ("cell_count", "cell_runs", "hausdorff_to_references")


class ChainSets:
    """One in-process ``switchflow chain-sets`` call on a fixed config.

    The config does not depend on the seed, so every op is compared with the
    recorded components.
    """

    def __init__(self, name: str, base: dict, size: dict, seed: int):
        self.name = name
        self.out_dir = OUT / name
        self.doc = copy.deepcopy(base)
        self.doc["analysis"].update(cells=size["cells"], m=size["m"])
        self.doc["run"] = {"seed": seed, "out": str(self.out_dir), "tol": TOL}

    def setup(self, sf) -> None:
        from switchflow import cli
        from switchflow.config import ExperimentConfig
        self.cli = cli
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "config.json"
        self.config_path.write_text(json.dumps(self.doc, indent=2))
        cfg = ExperimentConfig.from_file(self.config_path)
        self.n_cells = math.prod(cfg.analysis.cells)
        walks = [1] * cfg.graph.n
        for _ in range(cfg.analysis.m - 1):
            walks = [sum(walks[v] for u2, v in cfg.graph.edges if u2 == u)
                     for u in range(cfg.graph.n)]
        self.items_per_op = self.n_cells * sum(walks)
        self.argv = ["--config", str(self.config_path), "--out", str(self.out_dir),
                     "chain-sets"]

    def make_input(self, i: int):
        return None

    def op(self, _):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        return code, buf.getvalue()

    def result(self, _, raw) -> dict:
        code, printed = raw
        if code != 0:
            return {"exit_code": code}
        summary = json.loads((self.out_dir / "chain_summary.json").read_text())
        csv_cells: dict[str, list[int]] = defaultdict(list)
        lines = (self.out_dir / "components.csv").read_text().splitlines()
        for line in lines[2:]:
            cid, cell = line.split(",")[:2]
            csv_cells[cid].append(int(cell))
        comps = []
        for k, c in enumerate(summary["components"]):
            comp = {key: c[key] for key in REFERENCE_KEYS if key in c}
            comp["csv_cells"] = sorted(csv_cells.get(str(k), []))
            comps.append(comp)
        comps.sort(key=lambda c: c["cell_runs"][0][0] if c["cell_runs"] else -1)
        return {"exit_code": code, "printed": json.loads(printed),
                "component_count": summary["component_count"], "components": comps}

    def problems(self, i: int, res: dict, ref) -> list[str]:
        if res["exit_code"] != 0:
            return [f"exit code {res['exit_code']}"]
        out = []
        if res["printed"].get("component_count") != res["component_count"]:
            out.append("printed component count differs from chain_summary.json")
        if res["component_count"] != len(res["components"]):
            out.append("component_count differs from the number of components")
        seen: set[int] = set()
        for k, comp in enumerate(res["components"]):
            cells = _cells_of_runs(comp["cell_runs"])
            if not cells or len(cells) != comp["cell_count"]:
                out.append(f"component {k}: cell_count does not match its runs")
            if cells != comp["csv_cells"]:
                out.append(f"component {k}: components.csv disagrees with its runs")
            if seen.intersection(cells) or not all(0 <= c < self.n_cells for c in cells):
                out.append(f"component {k}: cells overlap another component or leave the grid")
            seen.update(cells)
        if ref is not None:
            want = {"component_count": ref["component_count"], "components": ref["components"]}
            out.extend(_diff(self.name, res, want))
        return out

    def reference_of(self, results: list[dict]) -> dict:
        res = results[0]
        return {"component_count": res["component_count"],
                "components": [{k: c[k] for k in REFERENCE_KEYS if k in c}
                               for c in res["components"]]}

    def reference_for(self, ref, i: int):
        return ref


class SeededWorkload:
    """A workload whose op ``i`` draws its inputs from ``(seed, i)``.

    The reference holds the first results of the default seed.
    """

    REFERENCE_FIELDS: tuple[str, ...] = ()

    def reference_of(self, results: list[dict]) -> dict:
        return {"seed": DEFAULT_SEED,
                "ops": [{k: r[k] for k in self.REFERENCE_FIELDS} for r in results]}

    def reference_for(self, ref, i: int):
        if ref is None or self.seed != ref["seed"] or i >= len(ref["ops"]):
            return None
        return ref["ops"][i]


class HybridOrbits(SeededWorkload):
    """Pairs (x, f), (x + delta, g) advanced one signal cell at a time."""

    REFERENCE_FIELDS = ("a", "b", "dist")

    def __init__(self, name: str, size: dict, seed: int):
        self.name = name
        self.cells = size["cells"]
        self.seed = seed
        self.items_per_op = 2 * self.cells

    def setup(self, sf) -> None:
        import numpy as np
        from switchflow import flow
        from switchflow.config import ExperimentConfig
        self.np = np
        self.sf = sf
        self.flow = flow
        self.system = ExperimentConfig.from_dict(
            {"graph": PLANE["graph"], "system": PLANE["system"]}).system
        self.h = self.system.step

    def make_input(self, i: int):
        np, sf = self.np, self.sf
        rng = np.random.default_rng([self.seed, i])

        def word(lo: int, hi: int) -> tuple[int, ...]:
            return tuple(int(s) for s in rng.integers(0, 2, size=int(rng.integers(lo, hi))))

        left, core, right = word(1, 4), word(0, 11), word(1, 4)
        shift = int(rng.integers(-3, 4))
        tau = float(rng.uniform(0.0, self.h))
        flips = rng.random(len(core)) < 0.25
        near_core = tuple(1 - s if flip else s for s, flip in zip(core, flips))
        g = self.system.graph
        f1 = sf.SwitchingSignal(sf.SymbolicSequence(g, left, core, right, shift), tau, self.h)
        f2 = sf.SwitchingSignal(sf.SymbolicSequence(g, left, near_core, right, shift),
                                tau, self.h)
        x = rng.uniform(-1.5, 1.5, size=2)
        y = x + rng.normal(0.0, 1e-2, size=2)
        return (sf.HybridState(tuple(float(v) for v in x), f1),
                sf.HybridState(tuple(float(v) for v in y), f2))

    def op(self, inp):
        flow, system, h = self.flow, self.system, self.h
        a, b = inp
        dist = []
        for _ in range(self.cells):
            a = flow.skew_product(system, h, a)
            b = flow.skew_product(system, h, b)
            dist.append(flow.product_metric(a, b, TOL))
        return a, b, dist

    def result(self, inp, raw) -> dict:
        a, b, dist = raw
        return {"a": [float(v) for v in a.x], "b": [float(v) for v in b.x], "dist": dist,
                "dist_swapped": self.flow.product_metric(b, a, TOL)}

    def problems(self, i: int, res: dict, ref) -> list[str]:
        out = []
        values = res["a"] + res["b"] + res["dist"]
        if not all(math.isfinite(v) for v in values):
            out.append("non-finite state or distance")
        if any(d < 0 for d in res["dist"]):
            out.append("negative distance")
        if not math.isclose(res["dist_swapped"], res["dist"][-1], rel_tol=0, abs_tol=1e-12):
            out.append("product metric is not symmetric")
        if ref is not None:
            out.extend(_diff(f"{self.name}[{i}]", res, ref))
        return out



class SignalMetric(SeededWorkload):
    """Seeded literal pairs: parse, metric, isometry gap, continuity bound.

    Op ``i`` uses graph ``i % GRAPHS`` of a seeded pool, so that every run
    averages over several graph shapes and seeds differ only in the draw.
    """

    REFERENCE_FIELDS = ("delta", "omega", "gap", "lhs", "bound")
    LABELS = "ABCD"
    GRAPHS = 8

    def __init__(self, name: str, size: dict, seed: int):
        self.name = name
        self.max_core = size["max_core"]
        self.seed = seed
        self.items_per_op = 1
        self.h = 0.5

    def setup(self, sf) -> None:
        import numpy as np
        from switchflow import literals, sequences, signals
        self.np = np
        self.literals, self.sequences, self.signals = literals, sequences, signals
        rng = np.random.default_rng([self.seed])
        self.graphs = []
        for _ in range(self.GRAPHS):
            n = int(rng.integers(3, 5))
            order = [int(v) for v in rng.permutation(n)]
            edges = {(order[k], order[(k + 1) % n]) for k in range(n)}
            edges |= {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.35}
            succ = [sorted(v for u2, v in edges if u2 == u) for u in range(n)]
            self.graphs.append((sf.DirectedGraph.from_edges(n, sorted(edges), self.LABELS[:n]),
                                succ))

    @staticmethod
    def _path_to(succ, u: int, target: int) -> list[int]:
        """Vertices after u on a shortest walk of at least one edge to target."""
        prev: dict[int, int | None] = {v: None for v in succ[u]}
        queue = list(prev)
        while target not in prev:
            v = queue.pop(0)
            for w in succ[v]:
                if w not in prev:
                    prev[w] = v
                    queue.append(w)
        path = [target]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        return path[::-1]

    def _cycle(self, rng, succ, start: int) -> list[int]:
        walk = [start]
        for _ in range(int(rng.integers(0, 4))):
            walk.append(int(rng.choice(succ[walk[-1]])))
        return walk + self._path_to(succ, walk[-1], start)[:-1]

    def _literal(self, rng, succ) -> tuple[list[int], list[int], list[int], int]:
        left = self._cycle(rng, succ, int(rng.integers(len(succ))))
        core: list[int] = []
        for _ in range(int(rng.integers(0, self.max_core + 1))):
            core.append(int(rng.choice(succ[(core or left)[-1]])))
        right = self._cycle(rng, succ, int(rng.choice(succ[(core or left)[-1]])))
        return left, core, right, int(rng.integers(-5, 6))

    def _text(self, seq, tau: float) -> str:
        def word(w):
            return " ".join(self.LABELS[s] for s in w)
        left, core, right, shift = seq
        return (f"left=({word(left)}) core=[{word(core)}] right=({word(right)}) "
                f"shift={shift} tau={tau!r} h={self.h!r}")

    def make_input(self, i: int):
        graph, succ = self.graphs[i % self.GRAPHS]
        rng = self.np.random.default_rng([self.seed, i])
        aligned = bool(rng.random() < 0.5)
        a = self._literal(rng, succ)
        b = (self._literal(rng, succ) if rng.random() < 0.5
             else (*a[:3], a[3] + int(rng.integers(-3, 4))))
        taus = (0.0, 0.0) if aligned else tuple(float(rng.uniform(0.0, self.h)) for _ in "ab")
        t = float(rng.uniform(-3 * self.h, 3 * self.h))
        return graph, self._text(a, taus[0]), self._text(b, taus[1]), aligned, t

    def op(self, inp):
        graph, a_text, b_text, aligned, t = inp
        fa = self.literals.parse_signal(graph, a_text)
        fb = self.literals.parse_signal(graph, b_text)
        delta = self.signals.metric_delta(fa, fb, TOL)
        omega = self.sequences.metric_omega(fa.base, fb.base, TOL) if aligned else None
        lhs, bound = self.signals.continuity_gap(fa, fb, t, TOL)
        return fa, fb, delta, omega, lhs, bound

    def result(self, inp, raw) -> dict:
        fa, fb, delta, omega, lhs, bound = raw
        return {"delta": delta, "omega": omega,
                "gap": None if omega is None else abs(omega - delta),
                "lhs": lhs, "bound": bound,
                "delta_swapped": self.signals.metric_delta(fb, fa, TOL),
                "bound_slack": 4.0 ** math.ceil(abs(inp[-1]) / self.h) * TOL + 1e-12}

    def problems(self, i: int, res: dict, ref) -> list[str]:
        out = []
        if not 0.0 <= res["delta"] <= 5.0 / 3.0 + TOL:
            out.append(f"metric {res['delta']!r} outside [0, 5/3]")
        if not math.isclose(res["delta_swapped"], res["delta"], rel_tol=0, abs_tol=1e-12):
            out.append("metric is not symmetric")
        if res["gap"] is not None and not res["gap"] <= 2 * TOL:
            out.append(f"isometry gap {res['gap']!r} exceeds 2*tol")
        if not res["lhs"] <= res["bound"] + res["bound_slack"]:
            out.append(f"continuity gap {res['lhs']!r} exceeds its bound {res['bound']!r}")
        if ref is not None:
            out.extend(_diff(f"{self.name}[{i}]", res, ref))
        return out


WORKLOADS = ("well1d", "plane2d", "hybrid_orbits", "signal_metric")


def make_workload(name: str, size: str, seed: int):
    dims = SIZES[size][name]
    if name == "well1d":
        return ChainSets(name, TWO_WELL, dims, seed)
    if name == "plane2d":
        return ChainSets(name, PLANE, dims, seed)
    if name == "hybrid_orbits":
        return HybridOrbits(name, dims, seed)
    if name == "signal_metric":
        return SignalMetric(name, dims, seed)
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str, size: str, seed: int):
    """Import switchflow, build the workload's inputs and load its reference."""
    sf = import_switchflow()
    work = make_workload(name, size, seed)
    work.setup(sf)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    return work, refs.get(name, {}).get(size)


def attempt(work, ref, i: int, tracer=None) -> tuple[float, list[str], dict | None]:
    """Run, time and check op ``i``; an exception counts as a failure."""
    inp = work.make_input(i)
    try:
        if tracer is None:
            t0 = time.perf_counter()
            raw = work.op(inp)
            elapsed = time.perf_counter() - t0
        else:
            raw, elapsed = tracer.run_op(i, work.op, inp)
        res = work.result(inp, raw)
        return elapsed, work.problems(i, res, work.reference_for(ref, i)), res
    except Exception as exc:  # a failed op is counted, and the run goes on
        return math.nan, [f"{type(exc).__name__}: {exc}"], None


def calibration_block(seconds: float) -> float:
    """Mean time of calibration samples taken for ``seconds`` (at least one)."""
    samples: list[float] = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples.append(calibrate())
    return sum(samples) / len(samples)


def measure(work, ref, seconds: float, trace: bool) -> dict:
    """Warm up with op 0, then time ops for ``seconds``.

    An op is not started when the previous op's time says it would end past
    ``seconds``, but at least MIN_TIMED_OPS are timed. Calibration blocks
    come before the first timed op, after every CAL_EVERY_S of ops and at
    the end. A traced run alternates untraced and traced ops, so that the
    tracing overhead is measured under the same conditions.
    """
    tracer = None
    if trace:
        from spans import PER_LAYER, Tracer
        tracer = Tracer()
        tracer.prepare()
    times = {False: [], True: []}
    cal_before: list[int] = []  # calibration block before each untraced time
    cal: list[float] = []
    attempted = failed = 0
    i = 0
    last = 0.0
    start = block_start = time.perf_counter()
    while i <= MIN_TIMED_OPS or time.perf_counter() - start + last < seconds:
        traced = trace and i > 0 and i % 2 == 0
        elapsed, problems, _ = attempt(work, ref, i, tracer if traced else None)
        attempted += 1
        if problems:
            failed += 1
            print(f"{work.name} op {i} failed: {'; '.join(problems[:3])}", file=sys.stderr)
        else:
            last = elapsed
            if i > 0:
                times[traced].append(elapsed)
                if not traced:
                    cal_before.append(len(cal) - 1)
        if i == 0:
            calibrate()
            start = time.perf_counter()
            cal.append(calibration_block(CAL_EVERY_S * CAL_SHARE))
            block_start = time.perf_counter()
        elif time.perf_counter() - block_start >= CAL_EVERY_S:
            cal.append(calibration_block((time.perf_counter() - block_start) * CAL_SHARE))
            block_start = time.perf_counter()
        i += 1
    cal.append(calibration_block((time.perf_counter() - block_start) * CAL_SHARE))
    plain = times[False] or [math.nan]
    scaled = [t * CAL_REF_S / (0.5 * (cal[k] + cal[k + 1]))
              for t, k in zip(times[False], cal_before)] or [math.nan]
    out = {"attempted": attempted, "failed": failed, "op_times_s": times[False],
           "op_ref_times_s": scaled, "cal_blocks_s": cal, "cal_before": cal_before}
    if trace:
        metrics = tracer.layer_metrics(len(times[True]))
        metrics["trace.overhead_frac"] = (statistics.median(times[True] or [math.nan])
                                          / statistics.median(plain) - 1.0)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans_{work.name}.npz")
        out["per_layer"] = {name: {"value": metrics[name], "unit": unit}
                            for name, unit, _ in PER_LAYER}
    else:
        import numpy as np
        out["op_s.p50"] = float(np.percentile(scaled, 50))
        out["op_s.p90"] = float(np.percentile(scaled, 90))
        out["items_per_s"] = work.items_per_op * len(scaled) / float(np.sum(scaled))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def record() -> None:
    """Record the reference outputs of the default seed from ``src/``."""
    refs = {}
    for name in WORKLOADS:
        refs[name] = {}
        for size in SIZES:
            work, _ = setup(name, size, DEFAULT_SEED)
            results = []
            for i in range(REFERENCE_OPS.get(name, 1)):
                _, problems, res = attempt(work, None, i)
                if problems:
                    raise SystemExit(f"{name} ({size}) op {i}: {problems}")
                results.append(res)
            refs[name][size] = work.reference_of(results)
            print(f"recorded {name} ({size})", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    work, ref = setup(args.workload, args.size, args.seed)
    setup_raw = time.perf_counter() - t0
    calibrate()
    out = {"setup_raw_s": setup_raw,
           "setup_s": setup_raw * CAL_REF_S / calibration_block(SETUP_CAL_S)}
    if not args.setup_only:
        out.update(measure(work, ref, args.seconds, bool(args.trace)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
