"""Gridded reachability analysis: chain graphs, components, lifts.

State space boxes are split into uniform cells; an edge means "flowing for
the link time under some admissible switching word, then jumping at most
epsilon (inflated by cell radii and a sampled expansion factor), reaches
the target cell".  Strongly connected pieces of that relation with a
self-reaching structure are the numerical chain components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .flow import SwitchedSystem, integrate_segment
from .graph import (
    RangeRows,
    ValidationError,
    expand_ranges,
    self_reaching_components,
)
from .sequences import enumerate_admissible_words


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
            # hi - lo is not finite for an infinite bound or an overflowing width
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValidationError("box intervals must be nonempty and finite")

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

    def _centers_at(self, multi: np.ndarray) -> np.ndarray:
        """Centres of the cells with per-axis indices ``multi`` (shape ``(N, d)``)."""
        return np.array([b[0] for b in self.box]) + (multi + 0.5) * np.array(self.widths)

    def centers(self, cells: Sequence[int] | np.ndarray) -> np.ndarray:
        """Centres of the flat cell indices ``cells``, shape ``(N, d)``."""
        multi = np.unravel_index(np.asarray(cells, dtype=np.int64), self.counts)
        return self._centers_at(np.stack(multi, axis=-1))

    def all_centers(self) -> np.ndarray:
        return self.centers(np.arange(self.n_cells))

    def rows_within(self, points: np.ndarray, dist: float | np.ndarray) -> np.ndarray:
        """``(point index, first cell, last cell)`` rows for the cells whose
        center lies within Euclidean ``dist`` of a point of ``points`` (shape
        ``(..., d)``, numbered flat), as ``math.dist`` decides; ``dist`` is one
        radius, or one per point.  A ball meets each line of cells along the
        last axis in one run of consecutive flat indices, so each row is one
        such run; rows are sorted by point, then by first cell.

        Each point's lines are enumerated over the first d-1 axes, one axis
        at a time, and each line's run is read off the ball's rounded chord.
        A bound on the rounding error certifies the run where both chord ends
        lie far enough from a cell centre.  Only lines near such a tie test
        distances, walking their ends inward from one cell beyond the chord.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        dist = np.broadcast_to(np.asarray(dist, dtype=float), pts.shape[:1])
        lo, w = np.array([b[0] for b in self.box]), np.array(self.widths)
        counts, c, eps = np.array(self.counts), self.counts[-1], np.finfo(float).eps
        # a centre offset lo + (k + 0.5) * w - p, or a bound or chord end in
        # cells, takes a few roundings of values below |p| + dist + |lo| +
        # |hi|, each off by at most eps/2 of it: under slack, in length
        slack = 8 * eps * (np.abs(pts) + dist[:, None] + np.abs(self.box).sum(axis=1))
        # lines: per-axis index ranges over the first d-1 axes, widened by
        # one only where a rounded bound is that close to an integer
        reach, tol = dist[:, None], slack[:, :-1] / w[:-1]
        k_lo = np.clip(np.ceil((pts[:, :-1] - reach - lo[:-1]) / w[:-1] - 0.5 - tol),
                       0, counts[:-1]).astype(np.int64)
        k_hi = np.clip(np.floor((pts[:, :-1] + reach - lo[:-1]) / w[:-1] - 0.5 + tol),
                       -1, counts[:-1] - 1).astype(np.int64)
        # each line's point, flat index over the first d-1 axes (base; base *
        # c is its first cell), and squared offset from its centres on those axes
        point, base = np.arange(len(pts)), np.zeros(len(pts), dtype=np.int64)
        gap2 = np.zeros(len(pts))
        for axis in range(self.dimension - 1):
            first = k_lo[point, axis]
            row, k = expand_ranges(first, np.maximum(k_hi[point, axis], first - 1))
            point, base = point[row], base[row] * counts[axis] + k
            gap = lo[axis] + (k + 0.5) * w[axis] - pts[point, axis]
            gap2 = gap2[row] + gap * gap
        p, r, base = pts[point, -1], dist[point], base * c
        # along the last axis, the chord [u, v] in cells, rounded in to the
        # cells whose centres it covers
        h2 = r * r - gap2
        half = np.sqrt(np.maximum(h2, 0.0))
        u = (p - half - lo[-1]) / w[-1] - 0.5
        v = (p + half - lo[-1]) / w[-1] - 0.5
        first = np.clip(np.ceil(u), 0, c).astype(np.int64)
        # Certificate, in squared length.  On a line with gap2 <= 2 r^2, the
        # rounded h2 is off the exact r^2 - gap2 by at most (d + 1) eps/2 *
        # (r^2 + gap2), sqrt adds eps * half^2, and math.dist, rounding a
        # distance near r by eps * r, moves the squares by 5 eps/2 * r^2:
        # under 3 (d + 4) eps * r^2 in all.  If a chord end lies x cells from
        # the nearest integer, the cells on either side of it are at least
        # x * w - slack inside or outside the chord, so their squared
        # offsets are at least half * (x * w - slack) clear of half^2.
        # With half <= r, margin = x * w * half above err decides both ends.
        # A line with h2 < -err holds no centre (if gap2 > 2 r^2, every centre
        # is far out).  tiny covers the absolute rounding of underflowed squares,
        # and err = -inf empties every line of a negative radius.
        err = dist * (3 * (self.dimension + 4) * eps * dist + slack[:, -1]) + np.finfo(float).tiny
        err = np.where(dist < 0, -np.inf, err)[point]
        margin = np.minimum(np.abs(u - np.rint(u)), np.abs(v - np.rint(v))) * (w[-1] * half)
        empty = h2 < -err
        last = np.clip(np.where(empty, -1, np.floor(v)), -1, c - 1).astype(np.int64)
        # lines near a tie: widen the run by one cell each side, then walk in
        near = np.flatnonzero((margin <= err) & ~empty)
        if len(near):
            multi = np.stack(np.unravel_index(base[near], self.counts), axis=-1)
            gap = (self._centers_at(multi) - pts[point[near]])[:, :-1]

            def outside(j: np.ndarray, i: np.ndarray) -> np.ndarray:
                """Whether cell j of near line i is outside, math.hypot deciding ties."""
                t = lo[-1] + (j + 0.5) * w[-1] - p[near[i]]
                d, ri = np.sqrt(gap2[near[i]] + t * t), r[near[i]]
                out = d > ri
                for k in np.flatnonzero((np.abs(d - ri) <= 1e-9 * ri) | (d < 1e-150)):
                    out[k] = math.hypot(*gap[i[k]], t[k]) > ri[k]
                return out

            a, b = np.maximum(first[near] - 1, 0), np.minimum(last[near] + 1, c - 1)
            for end, step in ((a, 1), (b, -1)):
                todo = np.flatnonzero(a <= b)
                while len(todo):
                    todo = todo[outside(end[todo], todo)]
                    end[todo] += step
                    todo = todo[a[todo] <= b[todo]]
            first[near], last[near] = a, b
        hit = first <= last
        return np.column_stack((point[hit], base[hit] + first[hit], base[hit] + last[hit]))


def build_grid(box: Sequence[Sequence[float]], cells_per_axis: Sequence[int] | int) -> Grid:
    counts = ((cells_per_axis,) * len(box) if isinstance(cells_per_axis, int)
              else tuple(int(c) for c in cells_per_axis))
    return Grid(tuple((float(lo), float(hi)) for lo, hi in box), counts)


# Rows (prefixes x points) flowed by one integrate_segment call.  Long
# sweeps amortise numpy's per-call overhead; bounded ones keep the RK4
# buffers (six arrays of rows x d floats and the field's temporaries) in
# cache.  Link images of each grid, in ms scaled by the benchmark's
# host-speed calibration, on a 2-vCPU Xeon VM, one process per value, the
# median of three rounds of the median of 3 to 15 runs:
#
#   rows per sweep            2 048   4 096   8 192   16 384   32 768
#   1-D 2 000 cells, m = 3      7.4     5.8     5.1      5.1      5.0
#   20x20, m = 6               19.1    15.0    14.4     15.8     14.9
#   40x40, m = 6               76.7    53.6    50.1     52.8     52.6
#   100x100, m = 6              301     281     289      278      305
#   peak RSS, 40x40 (MB)         33      33      33       34       37
#
# Past 8 192 rows no grid gains beyond the spread of its rounds (100x100
# took 250-311 ms at 8 192), while peak RSS grows.
SWEEP_ROWS = 8192

# Points (cells x words) in one Grid.rows_within call of relation,
# rounded down to whole multiples of n cells, and at least n.  A sweep is a
# block of cells under every word, so it holds all the rows of its cells
# and is joined once; the expansion estimate runs once on all the images.
# Building the plane2d benchmark's chain graph (20x20 cells, m = 6, 64
# words) on a 2-vCPU Xeon VM, one process per value, median of 25 builds
# scaled by the benchmark's host-speed calibration, then the median of
# three rounds:
#
#   points per sweep   400 (6 cells)   1 024   2 048   4 096   8 192
#   build (ms)                  35.2    30.7    27.3    27.5    29.0
#   peak RSS (MB)               32.9    33.0    33.4    35.6    39.6
#
# Past 2 048 points the build gains nothing, while peak RSS grows with the
# sweep.
SWEEP_POINTS = 2048


def link_images(sys: SwitchedSystem, words: Sequence[tuple[int, ...]],
                points: np.ndarray) -> np.ndarray:
    """``points`` (shape ``(N, d)``) flowed for one step h under each symbol
    of each word in turn: one ``(len(words), N, d)`` array.  The words are
    distinct and of one length, as ``enumerate_admissible_words`` lists them.

    The word trie is walked level by level.  A level's nodes are grouped by
    last symbol and flowed from their parents' images in sweeps of at most
    ``SWEEP_ROWS`` rows, so one segment call serves many nodes.
    """
    level = np.asarray(points, dtype=float)[None]
    per_sweep = max(1, SWEEP_ROWS // level.shape[1])
    node = [0] * len(words)  # each word's prefix in the current level
    for k in range(len(words[0])):
        children: dict[tuple[int, int], int] = {}  # (parent, symbol) -> child
        for t, word in enumerate(words):
            node[t] = children.setdefault((node[t], word[k]), len(children))
        images = np.empty((len(children),) + level.shape[1:])
        for sym in dict.fromkeys(s for _, s in children):
            parent, child = np.array([(p, c) for (p, s), c in children.items() if s == sym]).T
            for a in range(0, len(child), per_sweep):
                images[child[a:a + per_sweep]] = integrate_segment(
                    sys, sym, level[parent[a:a + per_sweep]], sys.step)
        level = images
    return level


def sampled_expansion(images: np.ndarray, grid: Grid) -> np.ndarray:
    """Max growth of each word's flow map, from adjacent-center differences:
    images of shape ``(words, n_cells, d)`` give one factor per word."""
    d = grid.dimension
    shaped = images.reshape((len(images),) + grid.counts + (d,))
    best = np.zeros(len(images))
    for axis, w in enumerate(grid.widths):
        if grid.counts[axis] < 2:
            continue
        if d < 8:
            # the squares added one coordinate at a time: the order in which
            # np.sum adds fewer than 8 terms (it sums 8 or more pairwise)
            diffs = [np.diff(shaped[..., k], axis=1 + axis) for k in range(d)]
            norms = diffs[0] * diffs[0]
            for diff in diffs[1:]:
                norms += diff * diff
        else:
            diffs = np.diff(shaped, axis=1 + axis)
            norms = np.sum(diffs * diffs, axis=-1)
        np.sqrt(norms, out=norms)
        # fmax, as max() on floats, passes over a NaN growth
        best = np.fmax(best, norms.reshape(len(images), -1).max(axis=1) / w)
    return np.where(best > 0.0, best, 1.0)


def relation(grid: Grid, images: np.ndarray, radius: np.ndarray) -> RangeRows:
    """The chain graph of ``images`` (shape ``(words, n_cells, d)``): merged
    ranges of the cells b whose centers lie within ``radius[w]`` of a's image
    ``images[w, a]`` for some word w, found in sweeps of cells under all words."""
    n, n_words = grid.n_cells, len(images)
    per_sweep = max(1, max(n, SWEEP_POINTS // n * n) // n_words)

    def sweep_rows():
        # point i of a sweep is cell a + i // n_words under word i % n_words
        for a in range(0, n, per_sweep):
            block = images[:, a:a + per_sweep].swapaxes(0, 1)
            rows = grid.rows_within(block, np.tile(radius, len(block)))
            rows[:, 0] = a + rows[:, 0] // n_words
            yield rows.T

    return RangeRows.from_rows(n, sweep_rows())


def build_chain_graph(sys: SwitchedSystem, grid: Grid, eps: float, m: int,
                      max_work: int = 2_000_000) -> RangeRows:
    """The (epsilon, m*h) reachability graph over the grid, as merged ranges
    of target cells, never expanded.

    Nodes are flat cell indices; an edge a -> b exists when some admissible
    word of length m of ``sys.graph`` maps a's center within the inflated
    epsilon ball of b's center.  Links start in phase: each symbol of a word holds
    for one step h.

    Cells x word prefixes flowed, counted before any word is listed, must
    not exceed ``max_work``, and cells 2**21 - 1.  The eps-free images
    (``link_images``) and expansions kappa (``sampled_expansion``) come
    first; ``relation`` reads them at radius ``eps + r*kappa + r``.
    """
    g = sys.graph
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be positive and finite")
    if m < 1:
        raise ValidationError("m must be >= 1")

    n = grid.n_cells
    if n >= 2**21:
        # RangeRows packs (source, first, last) in one int64 key, 21 bits each
        raise SizingError(f"{n} cells exceed the {2**21 - 1} that range rows can index")
    # words by first vertex, one length at a time, and the prefixes of every
    # level so far: each prefix is flowed at every cell
    walks, length, prefixes = [1] * g.n, 1, g.n
    while length < m and n * prefixes <= max_work:
        walks, length = [sum(walks[v] for v in g.successors(u)) for u in range(g.n)], length + 1
        prefixes += sum(walks)
    if n * prefixes > max_work:
        raise SizingError(f"{n} nodes x at least {prefixes} word prefixes exceeds the work "
                          f"bound {max_work}; use a coarser grid, a smaller m, or raise the bound")

    words = enumerate_admissible_words(g, frozenset(range(g.n)), m)
    images = link_images(sys, words, grid.all_centers())
    kappa = sampled_expansion(images, grid)
    return relation(grid, images, eps + grid.radius * kappa + grid.radius)


def chain_components(rows: RangeRows) -> list[list[int]]:
    """Strongly connected components of the chain graph ``rows``, keeping
    only those that can reach themselves (non-trivial, or trivial with a
    self-edge), each as its ascending cells, sorted by size then by
    smallest cell."""
    return sorted(map(sorted, self_reaching_components(rows)), key=lambda c: (-len(c), c[0]))


def lift_kernel(sys: SwitchedSystem, grid: Grid, cells: Iterable[int],
                slack: float | None = None) -> frozenset[tuple[int, int]]:
    """Largest node set over E x V in which every node has a one-step
    successor and predecessor.

    A successor of (cell, u) is any (cell', v) with cell' in E within
    ``slack`` of the one-h-step image of the cell center under u's field,
    and u -> v an edge.  This combinatorial viability kernel approximates
    the set of pairs whose full two-sided trajectory stays over E.
    """
    g = sys.graph
    cell_ids = np.unique(np.fromiter(cells, dtype=np.int64))
    if not len(cell_ids):
        return frozenset()
    if slack is None:
        slack = grid.radius
    # node (cell_ids[i], u) has id i * n + u; pos maps a cell to its i, or -1
    n = g.n
    pos = np.full(grid.n_cells, -1, dtype=np.int64)
    pos[cell_ids] = np.arange(len(cell_ids))
    src, dst = [], []
    for u, images in enumerate(link_images(sys, [(u,) for u in range(n)], grid.centers(cell_ids))):
        point, first, last = grid.rows_within(images, slack).T
        row, b = expand_ranges(first, last)
        i, j = point[row], pos[b]
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


def hausdorff_distance(points: Sequence, interval: tuple[float, float]) -> float:
    """Hausdorff distance between a 1-D point set and an interval.

    Exact: the far side is attained at an interval endpoint or a midpoint
    between consecutive set points.
    """
    pts = np.sort(np.asarray(points, dtype=float).ravel())
    if pts.size == 0:
        raise ValidationError("empty set has no Hausdorff distance")
    lo, hi = float(interval[0]), float(interval[1])
    d_set_to_interval = np.maximum(np.maximum(lo - pts, pts - hi), 0.0).max()
    mids = 0.5 * (pts[:-1] + pts[1:])
    candidates = np.concatenate(([lo, hi], mids[(lo <= mids) & (mids <= hi)]))
    # the nearest set point to a candidate is one of its sorted neighbours
    j = np.searchsorted(pts, candidates)
    left = pts[np.maximum(j - 1, 0)]
    right = pts[np.minimum(j, len(pts) - 1)]
    d_interval_to_set = np.minimum(abs(candidates - left), abs(candidates - right)).max()
    return float(max(d_set_to_interval, d_interval_to_set))
