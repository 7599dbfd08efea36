"""Shared generators for randomized tests."""
from __future__ import annotations

import ast
import math

import numpy as np
import pytest

from switchflow.fields import _constant_value, stack_columns
from switchflow.flow import IntegrationError
from switchflow.graph import (
    DirectedGraph,
    ValidationError,
    connector,
    expand_ranges,
    require_valid,
)
from switchflow.sequences import SymbolicSequence, truncation_order
from switchflow.signals import SwitchingSignal, shift


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def reference_rk4(sys, field_index: int, x0, dt: float) -> np.ndarray:
    """``integrate_segment`` as one loop over lists of coordinate columns,
    the form the field's compiled loop replaced: each stage is a list
    comprehension over ``zip``, unpacked into ``columns``."""
    x = np.asarray(x0, dtype=float)
    if dt == 0.0:
        return x.copy()
    columns = sys.fields[field_index].columns
    n_steps = max(1, math.ceil(abs(dt) / sys.step)) * sys.substeps
    hstep = dt / n_steps
    half, sixth = 0.5 * hstep, hstep / 6.0
    xs = x.tolist() if x.ndim == 1 else list(np.moveaxis(x, -1, 0))
    try:
        for _ in range(n_steps):
            k1 = columns(*xs)
            k2 = columns(*[a + half * k for a, k in zip(xs, k1)])
            k3 = columns(*[a + half * k for a, k in zip(xs, k2)])
            k4 = columns(*[a + hstep * k for a, k in zip(xs, k3)])
            xs = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
                  for a, p, q, r, s in zip(xs, k1, k2, k3, k4)]
    except ZeroDivisionError:
        if x.ndim != 1:
            raise
        return reference_rk4(sys, field_index, x[None], dt)[0]
    x = stack_columns(xs, x.shape[:-1])
    if not np.all(np.isfinite(x)):
        raise IntegrationError(f"state became non-finite under field {field_index}")
    return x


def reference_linear_columns(matrix, *xs) -> tuple:
    """The ``linear`` config form's columns as a method over the matrix,
    the form its written-out component expressions replaced: each row
    summed left to right."""
    out = []
    for row in matrix:
        column = row[0] * xs[0]
        for a, x in zip(row[1:], xs[1:]):
            column = column + a * x
        out.append(column)
    return tuple(out)


def reference_polynomial_columns(coeffs, x1) -> tuple:
    """The ``poly1d`` config form's column as a method over the
    coefficients, the form its written-out expression replaced: Horner's
    rule from 0.0."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * x1 + c
    return (out,)


def reference_metric_delta(f: SwitchingSignal, g: SwitchingSignal, tol: float) -> float:
    """``metric_delta`` as one indexed loop over the two windows, the form
    its zipped loop replaced: six window reads and a fresh weight
    ``4.0 ** -|i|`` per cell, every cell's sum written out."""
    if f.step != g.step:
        raise ValidationError("signals must share the same step h")
    if f.graph != g.graph:
        raise ValidationError("signals live over different graphs")
    n = truncation_order(tol)
    h = f.step
    x, y = f.base.window(-n - 1, n), g.base.window(-n - 1, n)
    early, late = (x, y) if f.offset <= g.offset else (y, x)
    lo, hi = sorted((f.offset, g.offset))
    total = 0.0
    for j in range(1, 2 * n + 2):
        mismatch = ((x[j - 1] != y[j - 1]) * lo
                    + (early[j] != late[j - 1]) * (hi - lo)
                    + (x[j] != y[j]) * (h - hi))
        if mismatch:
            total += mismatch / h * 4.0 ** (-abs(j - n - 1))
    return total


def reference_continuity_gap(f: SwitchingSignal, g: SwitchingSignal, t: float,
                             tol: float) -> tuple[float, float]:
    """``continuity_gap`` as two built shifts and two sums, the form its
    window reads replaced: ``shift`` makes both shifted signals, and
    ``reference_metric_delta`` sums their distance and d(f, g)."""
    lhs = reference_metric_delta(shift(f, t), shift(g, t), tol)
    d = reference_metric_delta(f, g, tol)
    cells = math.ceil(abs(t) / f.step)
    if d == 0.0:
        return lhs, 0.0
    return lhs, 4.0 ** cells * d if cells < 512 else math.inf


def reference_metric_omega(x: SymbolicSequence, y: SymbolicSequence, tol: float) -> float:
    """``metric_omega`` as two ``at()`` lookups per index, the form its
    window reads replaced."""
    if x.graph != y.graph:
        raise ValidationError("sequences live over different graphs")
    n = truncation_order(tol)
    total = 1.0 if x.at(0) != y.at(0) else 0.0
    for i in range(1, n + 1):
        w = 4.0 ** (-i)
        if x.at(i) != y.at(i):
            total += w
        if x.at(-i) != y.at(-i):
            total += w
    return total


class ReferenceArrayPowers(ast.NodeTransformer):
    """``fields._array_powers`` as the transformer it replaced, which walks
    each visited subtree again to learn whether it holds a variable:
    ``ReferenceArrayPowers(names, expr).visit(body)``."""

    def __init__(self, names: set[str], expr: str) -> None:
        self.names = names
        self.expr = expr

    def visit(self, node: ast.AST) -> ast.AST:
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call, ast.Constant)) and not any(
                isinstance(n, ast.Name) and n.id in self.names for n in ast.walk(node)):
            self._check_constant(node)
            return node
        return super().visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        if isinstance(node.right, ast.Constant) and node.right.value == 2:
            return ast.Call(ast.Name("square", ast.Load()), [node.left], [])
        return ast.Call(ast.Name("power", ast.Load()), [node.left, node.right], [])

    def _check_constant(self, node: ast.expr) -> None:
        try:
            with np.errstate(all="ignore"):
                value = _constant_value(node)
            finite = not isinstance(value, complex) and math.isfinite(value)
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValidationError(f"constant {ast.unparse(node)} in field "
                                  f"expression {self.expr!r} is not a finite real number")


def reference_rows_within(grid, points, dist) -> np.ndarray:
    """``Grid.rows_within`` as it proved every line: lines one index wider
    than the ball's rounded bounds on each side, each line's rounded chord
    checked with four vectorised distance tests, and an inward walk where
    they fail; near-ties and underflow are decided by ``math.hypot``."""
    pts = np.asarray(points, dtype=float).reshape(-1, grid.dimension)
    dist = np.broadcast_to(np.asarray(dist, dtype=float), pts.shape[:1])
    lo = np.array([b[0] for b in grid.box])
    w = np.array(grid.widths)
    counts = np.array(grid.counts)
    reach = dist[:, None]
    k_lo = np.clip(np.ceil((pts[:, :-1] - reach - lo[:-1]) / w[:-1] - 0.5) - 1,
                   0, counts[:-1]).astype(np.int64)
    k_hi = np.clip(np.floor((pts[:, :-1] + reach - lo[:-1]) / w[:-1] - 0.5) + 1,
                   -1, counts[:-1] - 1).astype(np.int64)
    point = np.arange(len(pts))
    line = np.empty((len(pts), 0), dtype=np.int64)
    for axis in range(grid.dimension - 1):
        first = k_lo[point, axis]
        row, k = expand_ranges(first, np.maximum(k_hi[point, axis], first - 1))
        point, line = point[row], np.column_stack((line[row], k))
    p, dist = pts[point, -1], dist[point]
    gap = lo[:-1] + (line + 0.5) * w[:-1] - pts[point, :-1]
    gap2 = np.sum(gap * gap, axis=-1)
    index = np.arange(len(p))

    def outside(j, i=slice(None)):
        t = lo[-1] + (j + 0.5) * w[-1] - p[i]
        d = np.sqrt(gap2[i] + t * t)
        r = dist[i]
        out = d > r
        near = np.flatnonzero((np.abs(d - r) <= 1e-9 * r) | (d < 1e-150))
        for k, a in zip(near, index[i][near]):
            gap = lo[:-1] + (line[a] + 0.5) * w[:-1] - pts[point[a], :-1]
            out[k] = math.hypot(*gap, t[k]) > r[k]
        return out, t

    half = np.sqrt(np.maximum(dist * dist - gap2, 0.0))
    c = grid.counts[-1]
    first = np.clip(np.ceil((p - half - lo[-1]) / w[-1] - 0.5), 0, c).astype(np.int64)
    last = np.clip(np.floor((p + half - lo[-1]) / w[-1] - 0.5), -1, c - 1).astype(np.int64)
    below, t_below = outside(first - 1)
    above, t_above = outside(last + 1)
    run = ~(outside(first)[0] | outside(last)[0])
    around = ((first == last + 1) & ((t_below <= 0) | (first == 0))
              & ((t_above >= 0) | (last == c - 1)))
    exact = ((below | (first == 0)) & (above | (last == c - 1))
             & np.where(first <= last, run, around))
    rows = np.flatnonzero(~exact)
    first[rows] = np.maximum(first[rows] - 1, 0)
    last[rows] = np.minimum(last[rows] + 1, c - 1)
    for end, step in ((first, 1), (last, -1)):
        todo = rows[first[rows] <= last[rows]]
        while len(todo):
            todo = todo[outside(end[todo], todo)[0]]
            end[todo] += step
            todo = todo[first[todo] <= last[todo]]
    hit = first <= last
    line = tuple(line[hit].T)
    return np.column_stack((point[hit],
                            np.ravel_multi_index(line + (first[hit],), grid.counts),
                            np.ravel_multi_index(line + (last[hit],), grid.counts)))


def complete2() -> DirectedGraph:
    return DirectedGraph.complete(2)


def random_validated_graph(rng: np.random.Generator, n_max: int = 8) -> DirectedGraph:
    """Random graph patched so every vertex has in- and out-degree >= 1."""
    n = int(rng.integers(1, n_max + 1))
    edges = set()
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.25:
                edges.add((u, v))
    for u in range(n):
        if not any(e[0] == u for e in edges):
            edges.add((u, int(rng.integers(n))))
    for v in range(n):
        if not any(e[1] == v for e in edges):
            edges.add((int(rng.integers(n)), v))
    g = DirectedGraph.from_edges(n, sorted(edges))
    return require_valid(g)


def random_strong_graph(rng: np.random.Generator, n: int = 3) -> DirectedGraph:
    """Strongly connected graph: a full cycle plus random chords."""
    edges = {(u, (u + 1) % n) for u in range(n)}
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.4:
                edges.add((u, v))
    return DirectedGraph.from_edges(n, sorted(edges))


def random_cycle_word(g: DirectedGraph, rng: np.random.Generator, u: int) -> tuple[int, ...]:
    allowed = set(range(g.n))
    parts = [u]
    cur = u
    for _ in range(int(rng.integers(0, 4))):
        cur = int(rng.choice(g.successors(cur)))
        parts.append(cur)
    back = connector(g, allowed, cur, u)
    assert back is not None
    return tuple(parts) + tuple(back)


def random_sequence(g: DirectedGraph, rng: np.random.Generator) -> SymbolicSequence:
    allowed = set(range(g.n))
    u = int(rng.integers(g.n))
    v = int(rng.integers(g.n))
    left = random_cycle_word(g, rng, u)
    right = random_cycle_word(g, rng, v)
    cur = left[-1]
    core: list[int] = []
    for _ in range(int(rng.integers(0, 5))):
        cur = int(rng.choice(g.successors(cur)))
        core.append(cur)
    bridge = connector(g, allowed, cur, v)
    assert bridge is not None
    core.extend(bridge)
    shift = int(rng.integers(-5, 6))
    return SymbolicSequence(g, left, tuple(core), right, shift)


def random_signal(g: DirectedGraph, rng: np.random.Generator, h: float,
                  aligned: bool = False) -> SwitchingSignal:
    tau = 0.0 if aligned else float(rng.uniform(0.0, h))
    return SwitchingSignal(random_sequence(g, rng), tau, h)


def reachability(n: int, pairs) -> np.ndarray:
    """``reach[u, v]``: a path of one or more of the edges ``pairs`` leads
    from u to v, as a boolean matrix closed by repeated squaring."""
    reach = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        reach[u, v] = True
    while True:
        step = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
        if (step == reach).all():
            return reach
        reach = step


def mutual_classes(reach: np.ndarray) -> list[list[int]]:
    """The sorted classes ``{v : reach[u, v] and reach[v, u]}`` of the ids
    ``u`` that reach themselves."""
    mutual = reach & reach.T
    return sorted(map(list, {tuple(np.flatnonzero(mutual[u]).tolist())
                             for u in range(len(reach)) if mutual[u, u]}))
