"""Command-line harness: graph analysis, simulation, metrics, chain sets.

Every command takes ``--config`` (a JSON experiment document) and writes
machine-readable results whose provenance header embeds the resolved
configuration.  Exit codes: 0 success, 2 validation failure, 3 numeric
failure, 4 resource guard.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .chains import (
    SizingError,
    build_chain_graph,
    build_grid,
    chain_components,
    hausdorff_distance,
)
from .config import ExperimentConfig
from .flow import HybridState, IntegrationError, product_metric, switched_flow
from .graph import ValidationError, morse_order, scc
from .literals import format_signal, parse_sequence, parse_signal
from .sequences import ChaosCertificate, SymbolicSequence, chaos_certificate, metric_omega
from .signals import metric_delta, shift, sigma_embed, stitch_signals

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4

# most trajectory samples, or signal cells crossed, before `simulate` refuses
MAX_SAMPLES = 1_000_000
# most symbols the `stitch-demo` outputs may hold before it refuses the run;
# (links + 3)**2 * (window + 3) bounds them: each of the links + 3 outputs
# copies its predecessor's past, which grows by one link of at most
# window + 3 cells per output
MAX_STITCH_SYMBOLS = 10_000_000


def _check_out_dir(out_dir: Path) -> None:
    """Refuse ``out_dir``, creating nothing, unless its nearest existing
    ancestor is a directory."""
    try:
        nearest = next((p for p in (out_dir, *out_dir.parents) if p.exists()), out_dir)
    except OSError as exc:  # a search permission denied
        raise ValidationError(f"cannot write to {out_dir}: {exc}") from exc
    if not nearest.is_dir():
        raise ValidationError(f"cannot write to {out_dir}: {nearest} is not a directory")


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = {"config": cfg.resolved(), **payload}
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], lines: list[str], cfg: ExperimentConfig) -> None:
    """Write the CSV text ``lines`` under the provenance line and ``header``."""
    _write_text(path, "\n".join([f"# config={cfg.provenance_json()}", ",".join(header),
                                 *lines]) + "\n")


def cmd_analyze_graph(cfg: ExperimentConfig, out_dir: Path) -> int:
    g = cfg.graph
    decomp = scc(g)
    order = morse_order(decomp)
    certificates = []
    for cid, comp in enumerate(decomp.components):
        try:
            cert = chaos_certificate(g, comp)
        except ValidationError:
            cert = ChaosCertificate("empty_lift")
        entry = {"component": cid, "kind": cert.kind}
        if cert.orbit is not None:
            entry["orbit"] = [g.label_of(v) for v in cert.orbit]
        if cert.witness is not None:
            entry["witness"] = g.label_of(cert.witness)
        certificates.append(entry)
    payload = {
        "validation": "ok",
        "components": [[g.label_of(v) for v in sorted(c)] for c in decomp.components],
        "condensation_edges": sorted([list(e) for e in decomp.condensation_edges]),
        "order_pairs": sorted([list(p) for p in order]),
        "certificates": certificates,
    }
    _write_json(out_dir / "graph_analysis.json", payload, cfg)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _parse_point(text: str, dimension: int, name: str) -> np.ndarray:
    """A point given as ``dimension`` comma-separated finite numbers."""
    try:
        x = np.array([float(v) for v in text.split(",")])
        ok = len(x) == dimension and np.isfinite(x).all()
    except ValueError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} needs {dimension} comma-separated finite numbers, "
                              f"got {text!r}")
    return x


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, x0_text: str,
                 signal_text: str, t_end: float, sample_dt: float) -> int:
    sys_ = cfg.system
    x = _parse_point(x0_text, sys_.dimension, "x0")
    if not sys_.contains(x):
        raise ValidationError("x0 lies outside the box")
    f = parse_signal(cfg.graph, signal_text, default_h=sys_.step)
    if not (0 < t_end < math.inf and 0 < sample_dt < math.inf):
        raise ValidationError("t_end and sample_dt must be finite and positive")
    # a sample flows through each signal cell it crosses, one integration per
    # cell; compared without ceil, which may overflow
    pieces = t_end / min(sample_dt, sys_.step)
    if pieces > MAX_SAMPLES:
        raise SizingError(
            f"t_end / min(sample_dt, h) = {pieces:.6g} samples or signal cells exceeds "
            f"the bound {MAX_SAMPLES}; use a shorter t_end, or a larger sample_dt up to h")
    header = ["t", *[f"x{i+1}" for i in range(sys_.dimension)], "active_vertex"]
    rows = [",".join(map(str, [0.0, *x.tolist(), cfg.graph.label_of(f.value_at(0.0))]))]
    t = 0.0
    try:
        while t < t_end * (1 - 1e-12):
            dt = min(sample_dt, t_end - t)
            x = switched_flow(sys_, dt, x, shift(f, t))
            t += dt
            rows.append(",".join(map(str, [t, *x.tolist(),
                                           cfg.graph.label_of(f.value_at(t))])))
    except IntegrationError as exc:
        _write_csv(out_dir / "trajectory_partial.csv", header, rows, cfg)
        print(f"integration failed: {exc} (partial output written)", file=sys.stderr)
        return EXIT_NUMERIC
    _write_csv(out_dir / "trajectory.csv", header, rows, cfg)
    print(f"wrote {out_dir / 'trajectory.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_metric(cfg: ExperimentConfig, kind: str, a_text: str, b_text: str,
               check_isometry: bool, x_text: str | None, y_text: str | None) -> int:
    g = cfg.graph
    h = cfg.system.step
    tol = cfg.run.tol
    if kind == "omega":
        x = parse_sequence(g, a_text)
        y = parse_sequence(g, b_text)
        value = metric_omega(x, y, tol)
        result = {"kind": kind, "value": value, "tol": tol}
        if check_isometry:
            d_sig = metric_delta(sigma_embed(x, h), sigma_embed(y, h), tol)
            result["embedded_value"] = d_sig
            result["isometry_gap"] = abs(value - d_sig)
            result["isometry_ok"] = abs(value - d_sig) <= 2 * tol
    elif kind == "delta":
        fa = parse_signal(g, a_text, default_h=h)
        fb = parse_signal(g, b_text, default_h=h)
        value = metric_delta(fa, fb, tol)
        result = {"kind": kind, "value": value, "tol": tol}
    elif kind == "product":
        if x_text is None or y_text is None:
            raise ValidationError("product metric needs --x and --y state points")
        fa = parse_signal(g, a_text, default_h=h)
        fb = parse_signal(g, b_text, default_h=h)
        d = cfg.system.dimension
        pa = HybridState(tuple(_parse_point(x_text, d, "x").tolist()), fa)
        pb = HybridState(tuple(_parse_point(y_text, d, "y").tolist()), fb)
        value = product_metric(pa, pb, tol)
        result = {"kind": kind, "value": value, "tol": tol}
    else:
        raise ValidationError(f"unknown metric kind {kind!r}")
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _component_summary(cells: list[int], centers: np.ndarray, references) -> dict:
    """Summary of one component from its ascending cells and their centres."""
    runs = []
    start = prev = cells[0]
    for c in cells[1:]:
        if c == prev + 1:
            prev = c
            continue
        runs.append([start, prev])
        start = prev = c
    runs.append([start, prev])
    entry = {
        "cell_count": len(cells),
        "cell_runs": runs,
    }
    if centers.shape[1] == 1:
        xs = centers[:, 0]  # ascending, as the cells are
        entry["center_min"] = float(xs[0])
        entry["center_max"] = float(xs[-1])
        entry["hausdorff_to_references"] = [
            hausdorff_distance(xs, interval=ref) for ref in references]
    return entry


def cmd_chain_sets(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.analysis is None:
        raise ValidationError("config has no 'analysis' block")
    a = cfg.analysis
    grid = build_grid(cfg.system.box, a.cells)
    comps = chain_components(
        build_chain_graph(cfg.system, grid, a.eps, a.m, max_work=a.max_work))
    rows: list[str] = []
    summaries = []
    for cid, cells in enumerate(comps):
        centers = grid.centers(cells)
        # one line per cell, joined column by column; str(float) is repr(float)
        columns = (map(str, column) for column in centers.T.tolist())
        rows.extend(map(",".join, zip(repeat(str(cid)), map(str, cells), *columns)))
        summaries.append(_component_summary(cells, centers, a.references))
    header = ["component_id", "cell_index",
              *[f"center_x{i+1}" for i in range(grid.dimension)]]
    _write_csv(out_dir / "components.csv", header, rows, cfg)
    summary = {
        "parameters": {"eps": a.eps, "m": a.m,
                       "link_time": a.m * cfg.system.step, "cells": list(a.cells),
                       "cell_radius": grid.radius},
        "component_count": len(comps),
        "components": summaries,
    }
    _write_json(out_dir / "chain_summary.json", summary, cfg)
    print(json.dumps({"component_count": len(comps)}, sort_keys=True))
    return EXIT_OK


def cmd_stitch_demo(cfg: ExperimentConfig, out_dir: Path, links: int,
                    window: int) -> int:
    g = cfg.graph
    if not g.is_complete():
        raise ValidationError("stitch-demo needs a complete switching graph")
    if links < 1 or window < 1:
        raise ValidationError("stitch-demo needs --links and --window of at least 1")
    symbols = (links + 3) ** 2 * (window + 3)
    if symbols > MAX_STITCH_SYMBOLS:
        raise SizingError(f"{links} links of window {window} may hold {symbols} symbols, "
                          f"over the bound {MAX_STITCH_SYMBOLS}; use fewer links or a "
                          "smaller window")
    h = cfg.system.step
    tol = cfg.run.tol
    rng = np.random.default_rng(cfg.run.seed)

    def rand_word(k):
        return tuple(int(rng.integers(g.n)) for _ in range(k))

    def random_signal():
        return sigma_embed(SymbolicSequence(
            g, rand_word(int(rng.integers(1, 4))),
            rand_word(int(rng.integers(0, 5))),
            rand_word(int(rng.integers(1, 4)))), h)

    chain = [(random_signal(), float((window + 1 + int(rng.integers(0, 3))) * h))
             for _ in range(links)]
    f_head, g_tail = random_signal(), random_signal()
    result = stitch_signals(chain, f_head, g_tail, window)
    gaps = []
    for sig, t, nxt in zip(result.signals, result.link_times, result.signals[1:]):
        gaps.append(metric_delta(shift(sig, t), nxt, tol))
    tail_gap = metric_delta(shift(result.signals[-1], result.tail_time), g_tail, tol)
    bound = 2.0 * 4.0 ** (-window) / 3.0
    payload = {
        "links": links,
        "window": window,
        "gap_bound": bound,
        "gaps": gaps,
        "tail_gap": tail_gap,
        "all_below_bound": bool(all(gap < bound for gap in gaps) and tail_gap < bound),
        "signals": [format_signal(s) for s in result.signals],
    }
    _write_json(out_dir / "stitch_demo.json", payload, cfg)
    print(json.dumps({"gaps": gaps, "bound": bound}, sort_keys=True))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="switchflow",
        description="Graph-constrained switching signals, switched flows, "
                    "and numerical chain analysis")
    parser.add_argument("--config", required=True, help="experiment JSON document")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze-graph", help="SCCs, order, per-component certificates")

    p_sim = sub.add_parser("simulate", help="sample one switched trajectory")
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state; one that "
                       "starts with '-' takes the = form, --x0=-0.5,0.1")
    p_sim.add_argument("--signal", required=True, help="signal literal")
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--sample-dt", type=float, required=True)

    p_met = sub.add_parser("metric", help="evaluate a metric on two literals")
    p_met.add_argument("--kind", choices=["omega", "delta", "product"], required=True)
    p_met.add_argument("--a", required=True)
    p_met.add_argument("--b", required=True)
    point = "state point for --kind product; one that starts with '-' takes the = form, --y=-0.5"
    p_met.add_argument("--x", default=None, help=point)
    p_met.add_argument("--y", default=None, help=point)
    p_met.add_argument("--check-isometry", action="store_true")

    sub.add_parser("chain-sets", help="build the chain graph and its components")

    p_st = sub.add_parser("stitch-demo", help="run the chain-bridging construction")
    p_st.add_argument("--links", type=int, default=3)
    p_st.add_argument("--window", type=int, default=5)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        out_dir = Path(args.out if args.out is not None else cfg.run.out)
        if args.command != "metric":  # the one command that writes no file
            _check_out_dir(out_dir)
        if args.command == "analyze-graph":
            return cmd_analyze_graph(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.x0, args.signal,
                                args.t_end, args.sample_dt)
        if args.command == "metric":
            return cmd_metric(cfg, args.kind, args.a, args.b,
                              args.check_isometry, args.x, args.y)
        if args.command == "chain-sets":
            return cmd_chain_sets(cfg, out_dir)
        if args.command == "stitch-demo":
            return cmd_stitch_demo(cfg, out_dir, args.links, args.window)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizingError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (IntegrationError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
