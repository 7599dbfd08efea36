"""Shared generators for randomized tests."""
from __future__ import annotations

import ast
import math

import numpy as np
import pytest

from switchflow.fields import (
    _GLOBALS,
    _UFUNCS,
    _array_powers,
    _constant_value,
    _rk4_source,
)
from switchflow.flow import IntegrationError
from switchflow.graph import (
    DirectedGraph,
    ValidationError,
    connector,
    expand_ranges,
    path_within,
    require_valid,
    scc,
)
from switchflow.sequences import SymbolicSequence, cycle_word, truncation_order
from switchflow.signals import SwitchingSignal, shift, witness_window


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def per_component_field(expressions, d):
    """The evaluator ExpressionField replaced: one eval per component, each
    broadcast to the leading shape, then stacked.  A lone point is evaluated
    as a batch of one, since numpy scalars would take libm's ``pow``."""
    calls = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
    codes = [compile(ast.parse(e, mode="eval"), "<field>", "eval") for e in expressions]

    def field(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return field(x[None])[0]
        env = {f"x{i + 1}": x[..., i] for i in range(d)}
        return np.stack([np.broadcast_to(np.asarray(
            eval(code, {"__builtins__": {}}, {**calls, **env}), dtype=float), x.shape[:-1])
            for code in codes], axis=-1)

    return field


def reference_rk4(sys, field_index: int, x0, dt: float) -> np.ndarray:
    """``integrate_segment`` as one RK4 loop over ``(..., d)`` arrays, the
    form the field's compiled loops replaced: each stage evaluates the
    field's expression text with ``per_component_field``."""
    x = np.asarray(x0, dtype=float)
    if dt == 0.0:
        return x.copy()
    field = per_component_field(sys.fields[field_index].expressions, sys.dimension)
    n_steps = max(1, math.ceil(abs(dt) / sys.step)) * sys.substeps
    hstep = dt / n_steps
    half, sixth = 0.5 * hstep, hstep / 6.0
    for _ in range(n_steps):
        k1 = field(x)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + hstep * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x)):
        raise IntegrationError(f"state became non-finite under field {field_index}")
    return x


def reference_pieces(f, t: float) -> list[tuple[int, float]]:
    """``SwitchingSignal.pieces`` as ``flow`` walked the cells before the
    signal did: the breakpoints of [0, t] (or [t, 0]) from the smallest
    cell boundary above the lower end, then the signal value in each
    piece's interior."""
    lo, hi = sorted((0.0, t))
    pts = [lo]
    b = f.offset + (math.floor((lo - f.offset) / f.step) + 1) * f.step
    while b < hi:
        pts.append(b)
        b += f.step
    pts.append(hi)
    if t <= 0:
        pts.reverse()
    return [(f.value_at(0.5 * (a + b)), b - a) for a, b in zip(pts, pts[1:]) if b != a]


def reference_switched_flow(sys, t: float, x0, f) -> np.ndarray:
    """``switched_flow`` of one state or a batch as the loop that the
    lone-point path replaced: each piece of ``reference_pieces`` flows the
    states, a lone one as a batch of one, with ``reference_rk4``."""
    x = np.asarray(x0, dtype=float)
    lone = x.ndim == 1
    x = x[None] if lone else x
    for vertex, dt in reference_pieces(f, t):
        x = reference_rk4(sys, vertex, x, dt)
    return x[0] if lone else x


def velocity(field, x) -> np.ndarray:
    """``field``'s velocity at the ``(..., d)`` array ``x``, as ``field.into``
    writes it from a C-ordered ``(d, N)`` copy of the coordinate rows, with
    ``field.temps`` scratch arrays."""
    x = np.asarray(x, dtype=float)
    rows = np.array(x.reshape(-1, x.shape[-1]).T, order="C")
    k = np.empty_like(rows)
    field.into(*k, *rows, *np.empty((field.temps, rows.shape[1])))
    return k.T.reshape(x.shape)


def reference_into_source(bodies, xs: list[str]) -> tuple[str, int]:
    """``fields._into_source`` with a leaf test that walks the node's whole
    subtree on every call, the form that one pass over the bodies
    replaced."""
    names = set(xs)
    ks = [f"k{i}" for i in range(1, len(xs) + 1)]
    lines = ["pass"]
    temps = 0

    def leaf(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) or not any(
            isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))

    def value(node: ast.expr, out: str, depth: int) -> str:
        nonlocal temps
        if leaf(node):
            return ast.unparse(node)
        temps = max(temps, depth)
        if isinstance(node, ast.Call):
            func, args = node.func.id, node.args
        elif isinstance(node, ast.UnaryOp):
            func, args = _UFUNCS[type(node.op)], [node.operand]
        else:
            func, args = _UFUNCS[type(node.op)], [node.left, node.right]
        operands = [value(args[0], out, depth)]
        if len(args) == 2:
            spare = depth + (not leaf(args[0]))
            operands.append(value(args[1], f"t{spare}" if spare else out, spare))
        if func == "square":
            func, operands = "multiply", operands * 2
        lines.append(f"{func}({', '.join(operands)}, out={out})")
        return out

    for k, body in zip(ks, bodies):
        if leaf(body):
            lines.append(f"{k}[...] = {ast.unparse(body)}")
        else:
            value(body, k, 0)
    params = ks + xs + [f"t{j}" for j in range(1, temps + 1)]
    return f"def into({', '.join(params)}):\n" + "".join(f"    {s}\n" for s in lines), temps


def reference_compiled_field(expressions, bodies=None) -> tuple:
    """``(rk4, into, temps)`` of the field of ``expressions`` from one
    compile of both sources, the form that compiling each on first use
    replaced, with ``into`` written by ``reference_into_source``; raises
    what refused the field when it was built.  The bodies are those of
    ``_array_powers``, with their constants folded, unless ``bodies`` gives
    others."""
    xs = [f"x{i}" for i in range(1, len(expressions) + 1)]
    if bodies is None:
        bodies = [_array_powers(ast.parse(expr, mode="eval").body, expr, set(xs))
                  for expr in expressions]
    at_x = [ast.unparse(body) for body in bodies]
    into, temps = reference_into_source(bodies, xs)
    namespace = dict(_GLOBALS)
    exec(compile(_rk4_source(at_x, xs) + into, "<field>", "exec"), namespace)
    return namespace.pop("loop"), namespace.pop("into"), temps


def unfolded_compiled_field(expressions) -> tuple:
    """``reference_compiled_field`` on bodies whose variable-free
    subexpressions are kept as written, so that the compiled code evaluates
    each of them at every stage: the form that folding them to floats
    replaced."""
    names = {f"x{i}" for i in range(1, len(expressions) + 1)}
    bodies = [ReferenceArrayPowers(names, expr, fold=False).visit(ast.parse(expr, mode="eval").body)
              for expr in expressions]
    return reference_compiled_field(expressions, bodies)


def reference_csv_line(row) -> str:
    """One CSV line as ``cli`` wrote rows of values: ``repr`` for a float,
    ``str`` for anything else."""
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)


def reference_linear_columns(matrix, *xs) -> tuple:
    """The columns of the field x -> A x as a method over the matrix, the
    form its written-out row expressions replaced: each row summed left to
    right."""
    out = []
    for row in matrix:
        column = row[0] * xs[0]
        for a, x in zip(row[1:], xs[1:]):
            column = column + a * x
        out.append(column)
    return tuple(out)


def reference_polynomial_columns(coeffs, x1) -> tuple:
    """The column of the polynomial field as a method over the
    coefficients, the form its written-out Horner expression replaced:
    Horner's rule from 0.0."""
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


def reference_concat_past_future(past: SymbolicSequence,
                                 future: SymbolicSequence) -> SymbolicSequence:
    """``concat_past_future`` with one ``at()`` lookup per cell, the form its
    three window reads replaced."""
    lo = min(-1, past.left_boundary)
    hi = max(0, future.right_boundary)
    p = len(past.left_period)
    left = tuple(past.at(lo - p + r) for r in range(p))
    core = tuple(past.at(i) for i in range(lo, 0)) + \
        tuple(future.at(i) for i in range(0, hi))
    right = tuple(future.at(hi + r) for r in range(len(future.right_period)))
    return SymbolicSequence(past.graph, left, core, right, -lo)


def reference_sensitivity_witness(f: SwitchingSignal,
                                  eps: float) -> tuple[SwitchingSignal, int]:
    """``sensitivity_witness`` as two cases that each build the witness with
    ``prefix_through``, one ``at()`` lookup per cell, the form its window
    reads replaced.  The path to the branching vertex is ``path_within``
    over all vertices, which the deleted ``admissible_path`` wrapped."""
    if f.offset != 0.0:
        raise ValidationError("witness construction needs a phase-aligned signal")
    g = f.graph
    if len(scc(g).components) != 1:
        raise ValidationError("graph must be a single strongly connected component")
    branching = [v for v in range(g.n) if len(g.successors(v)) >= 2]
    if not branching:
        raise ValidationError("every vertex has out-degree 1; the flow is a single "
                              "periodic orbit and has no sensitive dependence")
    gamma1 = branching[0]
    n_window = witness_window(eps)
    base = f.base
    stop = max(n_window, base.right_boundary) + len(base.right_period)
    occurrence = next((i for i in range(n_window, stop) if base.at(i) == gamma1), None)

    def prefix_through(k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Left period, core covering exactly [lo, k], and origin shift."""
        lo = min(-1, base.left_boundary)
        p = len(base.left_period)
        left = tuple(base.at(lo - p + r) for r in range(p))
        core = tuple(base.at(i) for i in range(lo, k + 1))
        return left, core, -lo

    allowed = frozenset(range(g.n))
    if occurrence is not None:
        p = occurrence
        gamma2 = base.at(p + 1)
        gamma3 = min(w for w in g.successors(gamma1) if w != gamma2)
        left, agreed_core, origin = prefix_through(p)
        core = agreed_core + (gamma3,)
        tail_cycle = cycle_word(g, allowed, gamma3)
        m = p + 1
    else:
        path = path_within(g, allowed, base.at(n_window), gamma1)
        assert path is not None and len(path) >= 2
        left, agreed_core, origin = prefix_through(n_window)
        core = agreed_core + tuple(path[1:])
        tail_cycle = cycle_word(g, allowed, gamma1)
        m = n_window + len(path) - 1
    right = tail_cycle[1:] + tail_cycle[:1]
    y_base = SymbolicSequence(base.graph, left, core, right, origin)
    return SwitchingSignal(y_base, 0.0, f.step), m


def sequence_fields(x: SymbolicSequence) -> tuple:
    """Every field of ``x``: its graph, left period, core, right period and
    origin shift."""
    return x.graph, x.left_period, x.core, x.right_period, x.index_shift


class ReferenceArrayPowers(ast.NodeTransformer):
    """``fields._array_powers`` as the transformer it replaced, which walks
    each visited subtree again to learn whether it holds a variable, and
    puts the float value of each variable-free one in its place:
    ``ReferenceArrayPowers(names, expr).visit(body)``.  With ``fold=False``
    a variable-free subtree is checked and kept as written."""

    def __init__(self, names: set[str], expr: str, fold: bool = True) -> None:
        self.names = names
        self.expr = expr
        self.fold = fold

    def visit(self, node: ast.AST) -> ast.AST:
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call, ast.Constant)) and not any(
                isinstance(n, ast.Name) and n.id in self.names for n in ast.walk(node)):
            value = self._check_constant(node)
            return ast.Constant(float(value)) if self.fold else node
        return super().visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        # the square is chosen on the exponent as written, before it is folded
        square = isinstance(node.right, ast.Constant) and node.right.value == 2
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        if square:
            if isinstance(node.left, ast.Name):
                return ast.BinOp(node.left, ast.Mult(), node.left)
            return ast.Call(ast.Name("square", ast.Load()), [node.left], [])
        return ast.Call(ast.Name("power", ast.Load()), [node.left, node.right], [])

    def _check_constant(self, node: ast.expr):
        try:
            with np.errstate(all="ignore"):
                value = _constant_value(node)
            finite = not isinstance(value, complex) and math.isfinite(value)
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValidationError(f"constant {ast.unparse(node)} in field "
                                  f"expression {self.expr!r} is not a finite real number")
        return value


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
