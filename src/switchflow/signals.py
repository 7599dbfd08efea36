"""Piecewise-constant switching signals, their metric and shift flow.

A signal holds one vertex per cell ``[tau + n*h, tau + (n+1)*h)`` and is
right-continuous at cell boundaries.  Phase-aligned signals (tau == 0) are
in exact correspondence with symbolic sequences; arbitrary real shifts
produce the full signal space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graph import DirectedGraph, ValidationError, path_within, scc
from .sequences import (
    SymbolicSequence,
    _delta_sum,
    concat_past_future,
    cycle_word,
    shift_discrete,
    truncation_order,
)


@dataclass(frozen=True)
class SwitchingSignal:
    """A vertex-valued step function with cells of length h and phase tau."""

    base: SymbolicSequence
    offset: float
    step: float

    def __post_init__(self) -> None:
        if not 0 < self.step < math.inf:
            raise ValidationError("step h must be positive and finite")
        if not 0.0 <= self.offset < self.step:
            raise ValidationError("offset must lie in [0, h)")

    @property
    def graph(self) -> DirectedGraph:
        return self.base.graph

    def cell_of(self, t: float) -> int:
        return math.floor((t - self.offset) / self.step)

    def value_at(self, t: float) -> int:
        """Active vertex at time t (right-continuous at cell boundaries)."""
        return self.base.at(self.cell_of(t))

    def pieces(self, t: float) -> list[tuple[int, float]]:
        """(vertex, time) of each piece of the walk from 0 to t, forward or
        backward, split at the cell boundaries: a piece's vertex is the
        value at its midpoint, and its time has the sign of t."""
        lo, hi = (0.0, t) if t > 0 else (t, 0.0)
        inner = []
        b = self.offset + (self.cell_of(lo) + 1) * self.step  # first boundary past lo
        while b < hi:
            inner.append(b)
            b += self.step
        if t <= 0:
            inner.reverse()
        pts = [0.0, *inner, t]
        return [(self.value_at(0.5 * (a + b)), b - a) for a, b in zip(pts, pts[1:]) if b != a]


def sigma_embed(x: SymbolicSequence, h: float) -> SwitchingSignal:
    """Phase-aligned signal whose cell n carries symbol x(n).

    This embedding is a bijection onto tau == 0 signals and preserves the
    metric: cellwise mismatch integrates to the symbolic mismatch exactly.
    """
    return SwitchingSignal(x, 0.0, h)


def _phase(f: SwitchingSignal, t: float) -> tuple[int, float]:
    """Whole cells k and phase tau of f shifted by t: the shift's cell i is
    the base's cell i - k, and its phase is tau in [0, h)."""
    cells = (f.offset - t) / f.step
    if not math.isfinite(cells):
        raise ValidationError(f"shift time {t!r} is not a finite number of cells")
    if t == 0.0:
        return 0, f.offset
    k = math.floor(cells)
    tau = f.offset - t - k * f.step
    if tau >= f.step:  # float dust at the boundary
        tau -= f.step
        k += 1
    if tau < 0.0:
        tau = 0.0
    if not tau < f.step:  # at |t| far above h, k * h rounds by more than a cell
        raise ValidationError(f"shift time {t!r} leaves no representable phase "
                              f"in cells of length {f.step!r}")
    return k, tau


def shift(f: SwitchingSignal, t: float) -> SwitchingSignal:
    """Time translation: value_at(result, s) == value_at(f, s + t).

    Whole cells are absorbed into the base's origin shift; the remainder
    renormalizes the phase into [0, h).
    """
    k, tau = _phase(f, t)
    if t == 0.0:
        return f
    return SwitchingSignal(shift_discrete(f.base, -k), tau, f.step)


def metric_delta(f: SwitchingSignal, g: SwitchingSignal, tol: float = 1e-12) -> float:
    """Distance sum_i (mismatch fraction on [i*h,(i+1)*h)) * 4^(-|i|), within tol.

    With offsets lo <= hi, unit cell i splits into three pieces: on its
    first lo both signals hold their cell i-1, on the next hi - lo the
    earlier-switching signal holds its cell i against the other's cell i-1,
    and on the last h - hi both hold cell i.  Each unit cell is integrated
    exactly from these pieces; only the geometric tail beyond the truncation
    order is dropped, and it is bounded by tol.  Each base is read once, as
    one window of cells -N-1..N.
    """
    if f.step != g.step:
        raise ValidationError("signals must share the same step h")
    if f.graph is not g.graph and f.graph != g.graph:
        raise ValidationError("signals live over different graphs")
    n = truncation_order(tol)
    return _delta_sum(f.base.window(-n - 1, n), g.base.window(-n - 1, n),
                      f.offset, g.offset, f.step, n)


def continuity_gap(f: SwitchingSignal, g: SwitchingSignal, t: float,
                   tol: float = 1e-12) -> tuple[float, float]:
    """Distance after shifting both signals by t, and its admissible bound.

    Returns ``(lhs, bound)`` with ``lhs = d(shift(f,t), shift(g,t))`` and
    ``bound = 4^ceil(|t|/h) * d(f, g)``; the shift can expand distances by
    at most one weight ratio per crossed cell.  The bound is 0 when
    ``d(f, g)`` is, and inf from 512 cells on, where the power overflows.
    The shifted pair is never built: each base is read as a window of
    2N+2 cells, whatever t is.
    """
    (kf, tau_f), (kg, tau_g) = _phase(f, t), _phase(g, t)
    d = metric_delta(f, g, tol)
    n = truncation_order(tol)
    lhs = _delta_sum(f.base.window(-n - 1 - kf, n - kf), g.base.window(-n - 1 - kg, n - kg),
                     tau_f, tau_g, f.step, n)
    cells = math.ceil(abs(t) / f.step)
    if d == 0.0:
        return lhs, 0.0
    return lhs, 4.0 ** cells * d if cells < 512 else math.inf


def lift_membership(f: SwitchingSignal, component: frozenset[int] | set[int]) -> bool:
    """Whether every value of the signal stays inside the component.

    Exact for eventually periodic bases: both periods and the core are
    scanned fully.
    """
    base = f.base
    return set(component).issuperset((*base.left_period, *base.core, *base.right_period))


def witness_window(eps: float) -> int:
    """Smallest N whose two-sided weight tail sum_{|i|>=N} 4^(-|i|) is < eps."""
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be positive and finite")
    n = 0
    while (8.0 / 3.0) * 4.0 ** (-n) >= eps:
        n += 1
    return n


def sensitivity_witness(f: SwitchingSignal, eps: float) -> tuple[SwitchingSignal, int]:
    """A nearby signal that separates from f by at least 1 after m cells.

    Requires a strongly connected graph with some vertex of out-degree >= 2
    and a phase-aligned f.  The witness agrees with f far enough out that
    d(f, y) < eps, then takes a different branch so that the shifted pair
    differs on a full unit cell, forcing distance >= 1.
    Returns (y, m) with the separation time m*h.
    """
    if f.offset != 0.0:
        raise ValidationError("witness construction needs a phase-aligned signal")
    g = f.graph
    if len(scc(g).components) != 1:
        raise ValidationError("graph must be a single strongly connected component")
    gamma1 = next((v for v in range(g.n) if len(g.successors(v)) >= 2), None)
    if gamma1 is None:
        raise ValidationError("every vertex has out-degree 1; the flow is a single "
                              "periodic orbit and has no sensitive dependence")
    # two-sided tail bound: sum_{|i|>=N} 4^(-|i|) = (8/3) 4^(-N) < eps
    n_window = witness_window(eps)

    base = f.base
    # first index >= N where f equals the branching vertex, if any: past
    # the core, one right period holds every vertex the tail takes
    stop = max(n_window, base.right_boundary) + len(base.right_period)
    occurrence = next((i for i in range(n_window, stop) if base.at(i) == gamma1), None)

    allowed = frozenset(range(g.n))
    if occurrence is not None:
        # branch right after the visit to gamma1
        k, gamma2 = occurrence, base.at(occurrence + 1)
        branch = (min(w for w in g.successors(gamma1) if w != gamma2),)
    else:
        # f never visits gamma1 beyond the window; route the witness to it
        k = n_window
        path = path_within(g, allowed, base.at(k), gamma1)
        assert path is not None and len(path) >= 2
        branch = tuple(path[1:])
    tail_cycle = cycle_word(g, allowed, branch[-1])
    m = k + len(branch)
    lo = min(-1, base.left_boundary)
    y_base = SymbolicSequence(g, base.window(lo - len(base.left_period), lo - 1),
                              base.window(lo, k) + branch,
                              tail_cycle[1:] + tail_cycle[:1], -lo)
    y = SwitchingSignal(y_base, 0.0, f.step)
    assert y.base.at(m) != f.base.at(m)
    return y, m


@dataclass(frozen=True)
class StitchResult:
    """Signals g_-2..g_k bridging a chain, with the per-link shift times."""

    signals: tuple[SwitchingSignal, ...]
    link_times: tuple[float, ...]   # pairs signals[j] -> signals[j+1]
    tail_time: float                # aligns signals[-1] with the target signal


def stitch_signals(chain: Sequence[tuple[SwitchingSignal, float]],
                   f_head: SwitchingSignal, g_tail: SwitchingSignal,
                   n_window: int) -> StitchResult:
    """Bridge a chain of signal segments into admissible signals with small
    shift gaps.

    Each output copies its predecessor's entire past, carries its own chain
    segment for the prescribed link time, and previews the successor's
    segment.  Consecutive outputs then agree on all cells up to the next
    link time, so each gap is bounded by the geometric tail beyond the
    agreement window: strictly below 2*4^(-n_window)/3 when every link time
    is at least (n_window+1)*h.

    Requires a complete graph (arbitrary concatenations must be admissible),
    phase-aligned signals, and link times that are multiples of h at least
    (n_window+1)*h.
    """
    if n_window < 1:
        raise ValidationError("agreement window must be >= 1")
    if not chain:
        raise ValidationError("chain must contain at least one link")
    g = f_head.graph
    if not g.is_complete():
        raise ValidationError("stitching requires a complete switching graph")
    h = f_head.step
    segments = [f for f, _ in chain]
    for sig in (*segments, f_head, g_tail):
        if sig.step != h:
            raise ValidationError("all signals must share the same step h")
        if sig.offset != 0.0:
            raise ValidationError("stitching requires phase-aligned signals")
        if sig.graph != g:
            raise ValidationError("all signals must share the governing graph")

    def cells_of(t: float) -> int:
        c = round(t / h)
        if abs(t - c * h) > 1e-9 * h or c < 1:
            raise ValidationError(f"link time {t} is not a positive multiple of h")
        if c < n_window + 1:
            raise ValidationError(
                f"link time {t} shorter than the agreement window ({n_window + 1} cells); "
                "the gap bound is not certified below that")
        return c

    link_cells = [cells_of(t) for _, t in chain]
    k = len(chain)

    def splice_future(prefix: SymbolicSequence, split: int,
                      suffix: SymbolicSequence) -> SymbolicSequence:
        """Cells i < split from prefix, cells >= split from suffix(i - split)."""
        joined = concat_past_future(shift_discrete(prefix, split), suffix)
        return shift_discrete(joined, -split)

    outputs: list[SwitchingSignal] = [f_head]
    times: list[float] = [n_window * h]

    # pre-link: f_head's past advanced by the window, then segment 0
    b = n_window + 1
    pre_base = splice_future(shift_discrete(f_head.base, n_window), b,
                             segments[0].base)
    outputs.append(SwitchingSignal(pre_base, 0.0, h))
    times.append(b * h)

    prev_base = pre_base
    prev_cells = b
    for j in range(k):
        if j < k - 1:
            suffix = segments[j + 1].base
        else:
            suffix = shift_discrete(g_tail.base, -n_window)
        future = splice_future(segments[j].base, link_cells[j], suffix)
        base_j = concat_past_future(shift_discrete(prev_base, prev_cells), future)
        outputs.append(SwitchingSignal(base_j, 0.0, h))
        times.append(link_cells[j] * h)
        prev_base, prev_cells = base_j, link_cells[j]

    # final output: previous past, then the target signal offset by the window
    base_k = concat_past_future(shift_discrete(prev_base, prev_cells),
                                shift_discrete(g_tail.base, -n_window))
    outputs.append(SwitchingSignal(base_k, 0.0, h))

    return StitchResult(tuple(outputs), tuple(times), n_window * h)
