"""Gridded reachability analysis: chain graphs, components, lifts.

State space boxes are split into uniform cells; an edge means "flowing for
the link time under some admissible switching word, then jumping at most
epsilon (inflated by cell radii and a sampled expansion factor), reaches
the target cell".  Strongly connected pieces of that relation with a
self-reaching structure are the numerical chain components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .flow import SwitchedSystem, integrate_segment
from .graph import (
    DirectedGraph,
    RangeRows,
    ValidationError,
    expand_ranges,
    require_valid,
    self_reaching_components,
)
from .sequences import enumerate_admissible_words

Node = int | tuple[int, int]  # cell index, or (cell index, vertex)

FREE = "free-switching"
CONSTRAINED = "graph-constrained"


class SizingError(RuntimeError):
    """Raised when a requested analysis exceeds the configured work bound."""


@dataclass(frozen=True)
class Grid:
    """Uniform partition of a box into axis-aligned cells."""

    box: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.box) != len(self.counts):
            raise ValidationError("one cell count per axis required")
        for (lo, hi), c in zip(self.box, self.counts):
            if c < 1:
                raise ValidationError("cell counts must be >= 1")
            if not lo < hi:
                raise ValidationError("degenerate box interval")

    @property
    def dimension(self) -> int:
        return len(self.box)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple((hi - lo) / c for (lo, hi), c in zip(self.box, self.counts))

    @property
    def radius(self) -> float:
        """Half diagonal of one cell."""
        return 0.5 * math.sqrt(sum(w * w for w in self.widths))

    @property
    def n_cells(self) -> int:
        return math.prod(self.counts)

    def multi_index(self, cell: int) -> tuple[int, ...]:
        return tuple(map(int, np.unravel_index(cell, self.counts)))

    def flat_index(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(multi), self.counts))

    def _centers_at(self, multi: np.ndarray) -> np.ndarray:
        """Centres of the cells with per-axis indices ``multi`` (shape ``(N, d)``)."""
        return np.array([b[0] for b in self.box]) + (multi + 0.5) * np.array(self.widths)

    def centers(self, cells: Sequence[int] | np.ndarray) -> np.ndarray:
        """Centres of the flat cell indices ``cells``, shape ``(N, d)``."""
        multi = np.unravel_index(np.asarray(cells, dtype=np.int64), self.counts)
        return self._centers_at(np.stack(multi, axis=-1))

    def center(self, cell: int) -> np.ndarray:
        return self.centers([cell])[0]

    def all_centers(self) -> np.ndarray:
        return self.centers(np.arange(self.n_cells))

    def cell_of(self, point: Sequence[float]) -> int:
        multi = []
        for p, (lo, _), c, w in zip(point, self.box, self.counts, self.widths):
            k = int(math.floor((p - lo) / w))
            multi.append(min(max(k, 0), c - 1))
        return self.flat_index(multi)

    def rows_within(self, points: np.ndarray, dist: float) -> np.ndarray:
        """``(point index, first cell, last cell)`` rows for the cells whose
        center lies within Euclidean ``dist`` of a row of ``points`` (shape
        ``(N, d)``).  A ball meets each line of cells along the last axis in
        one run of consecutive flat indices, so each row is one such run;
        rows are sorted by point, then by first cell.

        Only the first d-1 axes are enumerated; along the last axis only the
        cells at the two ends of each run are tested.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        lo = np.array([b[0] for b in self.box])
        w = np.array(self.widths)
        counts = np.array(self.counts)
        # lines: per-axis index ranges over the first d-1 axes, one index
        # wider on each side than the rounded bounds (a centre at distance
        # exactly dist may round out of them), clipped to the grid
        k_lo = np.clip(np.ceil((pts[:, :-1] - dist - lo[:-1]) / w[:-1] - 0.5) - 1,
                       0, counts[:-1]).astype(np.int64)
        k_hi = np.clip(np.floor((pts[:, :-1] + dist - lo[:-1]) / w[:-1] - 0.5) + 1,
                       -1, counts[:-1] - 1).astype(np.int64)
        span = np.maximum(k_hi - k_lo + 1, 0).max(axis=0, initial=0)
        stencil = np.indices(tuple(span)).reshape(self.dimension - 1, math.prod(span)).T
        multi = k_lo[:, None, :] + stencil[None, :, :]
        point, slot = np.nonzero(np.all(multi <= k_hi[:, None, :], axis=-1))
        line = multi[point, slot]
        p = pts[point]
        # offsets of each line's centres from the point on the first d-1 axes
        gap = lo[:-1] + (line + 0.5) * w[:-1] - p[:, :-1]
        gap2 = np.sum(gap * gap, axis=-1)
        half = np.sqrt(np.maximum(dist * dist - gap2, 0.0))
        # along the last axis, the chord of the ball on each line, rounded
        # out to one cell beyond it on each side; each end then moves inward
        # while its cell is outside, as math.dist decides, so the cells
        # inside, one run per line, are exactly the scalar relation's
        c = self.counts[-1]
        ends = np.stack((
            np.clip(np.ceil((p[:, -1] - half - lo[-1]) / w[-1] - 0.5) - 1, 0, c),
            np.clip(np.floor((p[:, -1] + half - lo[-1]) / w[-1] - 0.5) + 1, -1, c - 1),
        )).astype(np.int64)
        inward = np.array([1, -1])
        side, rows = np.nonzero(np.tile(ends[0] <= ends[1], (2, 1)))
        while len(rows):
            t = lo[-1] + (ends[side, rows] + 0.5) * w[-1] - p[rows, -1]
            d = np.sqrt(gap2[rows] + t * t)
            outside = d > dist
            # math.dist rounds the last bit differently and does not underflow:
            # let it decide near-ties
            for i in np.flatnonzero((np.abs(d - dist) <= 1e-9 * dist) | (d < 1e-150)):
                outside[i] = math.hypot(*gap[rows[i]], t[i]) > dist
            side, rows = side[outside], rows[outside]
            ends[side, rows] += inward[side]
            more = ends[0, rows] <= ends[1, rows]
            side, rows = side[more], rows[more]
        hit = ends[0] <= ends[1]
        line = tuple(line[hit].T)
        return np.column_stack((point[hit],
                                np.ravel_multi_index(line + (ends[0, hit],), self.counts),
                                np.ravel_multi_index(line + (ends[1, hit],), self.counts)))

    def cells_within(self, points: np.ndarray, dist: float) -> np.ndarray:
        """``(point index, cell)`` rows, one per cell whose center lies within
        Euclidean ``dist`` of a row of ``points`` (shape ``(N, d)``), sorted
        by point, then by cell: the expansion of ``rows_within``."""
        point, first, last = self.rows_within(points, dist).T
        row, cell = expand_ranges(first, last)
        return np.column_stack((point[row], cell))


def build_grid(box: Sequence[Sequence[float]], cells_per_axis: Sequence[int] | int) -> Grid:
    counts = ((cells_per_axis,) * len(box) if isinstance(cells_per_axis, int)
              else tuple(int(c) for c in cells_per_axis))
    return Grid(tuple((float(lo), float(hi)) for lo, hi in box), counts)


# Rows (prefixes x points) flowed by one integrate_segment call.  Long
# sweeps amortise numpy's per-call overhead; bounded ones keep the RK4
# temporaries (a few arrays of rows x d floats) in cache.  On a 2-vCPU Xeon
# VM, 4 096 rows ran about 1.2x slower than 8 192 on 40x40 and 64x64 grids,
# 16 384 was no faster, and unbounded sweeps took the 100x100, m = 6 build
# from 2.8 to 3.4 s.
SWEEP_ROWS = 8192


def _task_images(sys: SwitchedSystem, points: np.ndarray,
                 words: Iterable[Sequence[int]]):
    """Yield ``(word, images)`` per word, in word order: ``points`` flowed
    for one step h under each symbol of the word in turn.

    The words form a trie, walked level by level.  The children of all
    prefixes of one level are grouped by symbol, and each group flows its
    stacked parent images in sweeps of at most ``SWEEP_ROWS`` rows, so one
    segment call serves many trie nodes.  Each level's images fill one
    array; the level before it is dropped.
    """
    words = [tuple(w) for w in words]
    level = np.asarray(points, dtype=float)[None]
    per_sweep = max(1, SWEEP_ROWS // level.shape[1])
    node = [0] * len(words)  # each word's prefix in the current level
    ended: dict[int, np.ndarray] = {}
    n_yielded = 0
    for depth in range(max(map(len, words), default=0) + 1):
        if depth:
            # children numbered in order of first appearance, grouped by symbol
            children: dict[tuple[int, int], int] = {}
            for t, word in enumerate(words):
                if len(word) >= depth:
                    node[t] = children.setdefault((node[t], word[depth - 1]), len(children))
            groups: dict[int, list[tuple[int, int]]] = {}
            for (parent, sym), child in children.items():
                groups.setdefault(sym, []).append((parent, child))
            images = np.empty((len(children),) + level.shape[1:])
            for sym, pairs in groups.items():
                parent, child = np.array(pairs).T
                for a in range(0, len(pairs), per_sweep):
                    images[child[a:a + per_sweep]] = integrate_segment(
                        sys, sym, level[parent[a:a + per_sweep]], sys.step)
            level = images
        for t, word in enumerate(words):
            if len(word) == depth:
                ended[t] = level[node[t]]
        while n_yielded in ended:
            yield words[n_yielded], ended.pop(n_yielded)
            n_yielded += 1


def step_image(sys: SwitchedSystem, g: DirectedGraph, grid: Grid, cell: int,
               word: Sequence[int]) -> np.ndarray:
    """Image of the cell center after flowing one h-cell per word symbol."""
    if len(word) < 1:
        raise ValidationError("word must have length >= 1")
    if not g.word_is_admissible(word):
        raise ValidationError(f"word {list(word)} is not admissible")
    x = grid.center(cell)
    for sym in word:
        x = integrate_segment(sys, sym, x, sys.step)
    return x


@dataclass
class ChainGraph:
    """Directed reachability relation between grid cells (optionally paired
    with graph vertices), for one (epsilon, link-time) resolution.

    Node ``(cell, vertex)`` has id ``cell * k + vertex`` with ``k = graph.n``;
    in free mode ``k = 1`` and a node is its cell.  ``adjacency`` holds the
    edges between ids as merged ranges of target ids, never expanded.
    """

    mode: str
    grid: Grid
    graph: DirectedGraph
    eps: float
    m: int
    step: float
    adjacency: RangeRows
    word_expansion: dict[tuple, float] = field(default_factory=dict)

    @property
    def link_time(self) -> float:
        return self.m * self.step

    @property
    def k(self) -> int:
        """Node ids per cell."""
        return 1 if self.mode == FREE else self.graph.n

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(self.node, range(self.adjacency.n)))

    def node(self, i: int) -> Node:
        return i if self.mode == FREE else divmod(i, self.k)

    def node_id(self, node: Node) -> int:
        return node if self.mode == FREE else node[0] * self.k + node[1]

    def successors(self, node: Node) -> set[Node]:
        return set(map(self.node, self.adjacency.row(self.node_id(node)).tolist()))

    def has_edge(self, a: Node, b: Node) -> bool:
        return self.adjacency.has_edge(self.node_id(a), self.node_id(b))

    def project(self, node: Node) -> int:
        return node if self.mode == FREE else node[0]


def _sampled_expansion(images: np.ndarray, grid: Grid) -> float:
    """Max growth of the word's flow map, from adjacent-center differences."""
    shaped = images.reshape(grid.counts + (grid.dimension,))
    best = 0.0
    for axis, w in enumerate(grid.widths):
        if grid.counts[axis] < 2:
            continue
        diffs = np.diff(shaped, axis=axis)
        norms = np.sqrt(np.sum(diffs * diffs, axis=-1))
        best = max(best, float(norms.max()) / w)
    return best if best > 0.0 else 1.0


def build_chain_graph(sys: SwitchedSystem, g: DirectedGraph, grid: Grid,
                      eps: float, m: int, mode: str = FREE,
                      max_work: int = 2_000_000) -> ChainGraph:
    """Construct the (epsilon, m*h) reachability graph over the grid.

    Free-switching: nodes are cells; an edge a -> b exists when some
    admissible word of length m maps a's center within the inflated epsilon
    ball of b's center.  Graph-constrained: nodes are (cell, vertex) pairs;
    the word must start at the source vertex and the target vertex must be
    able to continue it.  Links start in phase: each symbol of a word holds
    for one step h.
    """
    require_valid(g)
    if g.n != len(sys.fields):
        raise ValidationError("analysis graph must index the system's fields")
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be positive and finite")
    if m < 1:
        raise ValidationError("m must be >= 1")
    if mode not in (FREE, CONSTRAINED):
        raise ValidationError(f"unknown mode {mode!r}")

    words = enumerate_admissible_words(g, frozenset(range(g.n)), m)
    k = 1 if mode == FREE else g.n
    n = grid.n_cells * k
    if n * len(words) > max_work:
        raise SizingError(
            f"{n} nodes x {len(words)} words = {n * len(words)} exceeds "
            f"the work bound {max_work}; use a coarser grid, a smaller m, or raise "
            "the bound")

    # The node's vertex pins the word start (word[0] % k is 0 in free mode);
    # admissibility constrains only the inside of the word.  Each link uses a
    # fresh signal, so after the jump the next word may begin at any vertex v:
    # the targets (cell, v) of a cell run first..last are the one id range
    # first * k .. last * k + k - 1.
    r = grid.radius
    expansions: dict[tuple, float] = {}

    def word_rows():
        for word, images in _task_images(sys, grid.all_centers(), words):
            kappa = expansions[word] = _sampled_expansion(images, grid)
            point, first, last = grid.rows_within(images, eps + r * kappa + r).T
            yield np.stack((point * k + word[0] % k, first * k, last * k + k - 1))

    return ChainGraph(mode, grid, g, eps, m, sys.step, RangeRows.from_rows(n, word_rows()),
                      expansions)


@dataclass(frozen=True)
class ChainComponent:
    """A maximal strongly connected, self-reaching piece of the chain graph."""

    nodes: frozenset[Node]
    cells: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.nodes)


def chain_components(cg: ChainGraph) -> list[ChainComponent]:
    """Strongly connected components of the chain graph, keeping only those
    that can reach themselves (non-trivial, or trivial with a self-edge),
    sorted by size then by smallest cell."""
    kept = []
    for comp in self_reaching_components(cg.adjacency):
        nodes = frozenset(map(cg.node, comp))
        kept.append(ChainComponent(nodes, frozenset(map(cg.project, nodes))))
    kept.sort(key=lambda c: (-c.size, min(c.cells)))
    return kept


def chain_equivalent(cg: ChainGraph, x: Sequence[float], y: Sequence[float],
                     components: list[ChainComponent] | None = None) -> bool:
    """Whether the cells of x and y lie in one chain component."""
    if components is None:
        components = chain_components(cg)
    cx = cg.grid.cell_of(np.atleast_1d(np.asarray(x, dtype=float)))
    cy = cg.grid.cell_of(np.atleast_1d(np.asarray(y, dtype=float)))
    return any(cx in comp.cells and cy in comp.cells for comp in components)


def lift_kernel(sys: SwitchedSystem, g: DirectedGraph, grid: Grid,
                cells: Iterable[int], slack: float | None = None) -> frozenset[tuple[int, int]]:
    """Largest node set over E x V in which every node has a one-step
    successor and predecessor.

    A successor of (cell, u) is any (cell', v) with cell' in E within
    ``slack`` of the one-h-step image of the cell center under u's field,
    and u -> v an edge.  This combinatorial viability kernel approximates
    the set of pairs whose full two-sided trajectory stays over E.
    """
    require_valid(g)
    cell_ids = np.unique(np.fromiter(cells, dtype=np.int64))
    if not len(cell_ids):
        return frozenset()
    if slack is None:
        slack = grid.radius
    # node (cell_ids[i], u) has id i * n + u; pos maps a cell to its i, or -1
    n = g.n
    pos = np.full(grid.n_cells, -1, dtype=np.int64)
    pos[cell_ids] = np.arange(len(cell_ids))
    centers = grid.centers(cell_ids)
    src, dst = [], []
    for u in range(n):
        images = integrate_segment(sys, u, centers, sys.step)
        i, b = grid.cells_within(images, slack).T
        j = pos[b]
        i, j = i[j >= 0], j[j >= 0]
        nexts = np.array(g.successors(u))
        src.append(np.repeat(i * n + u, len(nexts)))
        dst.append((j[:, None] * n + nexts).ravel())
    src, dst = np.concatenate(src), np.concatenate(dst)

    # drop nodes without a live successor or predecessor until none drops;
    # the greatest such set is unique, so the removal order does not matter
    alive = np.ones(len(cell_ids) * n, dtype=bool)
    while True:
        live = alive[src] & alive[dst]
        keep = (alive & (np.bincount(src[live], minlength=alive.size) > 0)
                & (np.bincount(dst[live], minlength=alive.size) > 0))
        if np.array_equal(keep, alive):
            break
        alive = keep
    ids = np.flatnonzero(alive)
    return frozenset(zip(cell_ids[ids // n].tolist(), (ids % n).tolist()))


def _as_points(arr: Sequence) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        raise ValidationError("empty set has no Hausdorff distance")
    return a


def hausdorff_distance(points_a: Sequence, points_b: Sequence | None = None,
                       interval: tuple[float, float] | None = None) -> float:
    """Hausdorff distance between point sets, or a 1-D set and an interval.

    The interval form is exact: the far side is attained at an interval
    endpoint or a midpoint between consecutive set points.
    """
    a = _as_points(points_a)
    if interval is not None:
        lo, hi = float(interval[0]), float(interval[1])
        pts = np.sort(a.ravel())
        d_set_to_interval = np.maximum(np.maximum(lo - pts, pts - hi), 0.0).max()
        mids = 0.5 * (pts[:-1] + pts[1:])
        candidates = np.concatenate(([lo, hi], mids[(lo <= mids) & (mids <= hi)]))
        # the nearest set point to a candidate is one of its sorted neighbours
        j = np.searchsorted(pts, candidates)
        left = pts[np.maximum(j - 1, 0)]
        right = pts[np.minimum(j, len(pts) - 1)]
        d_interval_to_set = np.minimum(abs(candidates - left), abs(candidates - right)).max()
        return float(max(d_set_to_interval, d_interval_to_set))
    if points_b is None:
        raise ValidationError("need a second set or an interval")
    b = _as_points(points_b)
    d = np.linalg.norm(a[:, None] - b[None], axis=-1)
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
