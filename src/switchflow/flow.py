"""Switched ODE integration and the combined flow on state x signal pairs.

The state flows under the vector field selected by the current signal
value; the signal itself is translated in time.  Integration is fixed-step
RK4 split exactly at the signal's switching breakpoints, so trajectories
are deterministic and the only error is the smooth per-field RK4 error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import VectorField, stack_columns
from .graph import DirectedGraph, ValidationError, require_valid
from .signals import SwitchingSignal, metric_delta, shift


class IntegrationError(RuntimeError):
    """Raised when a trajectory leaves the finite range of floats."""


@dataclass(frozen=True)
class SwitchedSystem:
    """A family of vector fields on a box, one per graph vertex."""

    graph: DirectedGraph
    box: tuple[tuple[float, float], ...]
    step: float
    fields: tuple[VectorField, ...]
    substeps: int = 20

    def __post_init__(self) -> None:
        require_valid(self.graph)
        if len(self.fields) != self.graph.n:
            raise ValidationError("need exactly one field per graph vertex")
        if not 0 < self.step < math.inf:
            raise ValidationError("step h must be positive and finite")
        if self.substeps < 1:
            raise ValidationError("substeps must be >= 1")
        if not all(callable(getattr(f, "columns", None)) for f in self.fields):
            raise ValidationError("every field needs a columns(x1, ..., xd) evaluation")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError("box intervals must be nonempty and finite")

    @property
    def dimension(self) -> int:
        return len(self.box)

    def contains(self, x: Sequence[float]) -> bool:
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.box))


@dataclass(frozen=True)
class HybridState:
    """A point of the product space: state plus driving signal."""

    x: tuple[float, ...]
    f: SwitchingSignal


def integrate_segment(sys: SwitchedSystem, field_index: int, x0: np.ndarray,
                      dt: float) -> np.ndarray:
    """Fixed-step RK4 under a single field for (possibly negative) time dt.

    ``x0`` has shape (..., d).  The state is held as its d coordinate
    columns: Python floats for a lone point, arrays for a batch.  One loop
    serves both, and every point comes out bit for bit as if flowed alone,
    since ``+ - * /`` round the same on Python floats as on float64.  Where
    Python raises instead (division by zero), a lone point is rerun as a
    batch of one.
    """
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
        # Python floats raise where float64 gives inf or nan, which a later
        # operation may make finite again (exp(-1/0.0) is 0): rerun as a batch
        return integrate_segment(sys, field_index, x[None], dt)[0]
    x = stack_columns(xs, x.shape[:-1])
    if not np.all(np.isfinite(x)):
        raise IntegrationError(f"state became non-finite under field {field_index}")
    return x


def _breakpoints(f: SwitchingSignal, t: float) -> list[float]:
    """Partition points of [0, t] (or [t, 0]) at the signal's cell boundaries."""
    pts = [0.0]
    if t > 0:
        b = f.breakpoint_after(0.0)
        while b < t:
            pts.append(b)
            b += f.step
    else:
        b = f.breakpoint_after(t)
        down = []
        while b < 0.0:
            down.append(b)
            b += f.step
        pts.extend(reversed(down))
    pts.append(t)
    return pts


def switched_flow(sys: SwitchedSystem, t: float, x0: Sequence[float] | np.ndarray,
                  f: SwitchingSignal) -> np.ndarray:
    """Flow the state for time t, switching fields at the signal's breakpoints.

    Negative t integrates backward.  The active field over each piece is the
    signal value in the piece's interior.
    """
    if f.graph != sys.graph:
        raise ValidationError("signal and system use different graphs")
    if abs(f.step - sys.step) > 1e-12 * sys.step:
        raise ValidationError("signal and system use different step h")
    x = np.asarray(x0, dtype=float)
    pts = _breakpoints(f, t)
    for a, b in zip(pts, pts[1:]):
        if b == a:
            continue
        idx = f.value_at(0.5 * (a + b))
        x = integrate_segment(sys, idx, x, b - a)
    return x


def skew_product(sys: SwitchedSystem, t: float, state: HybridState) -> HybridState:
    """Advance the pair (x, f): state driven by f, signal translated by t."""
    x1 = switched_flow(sys, t, state.x, state.f)
    return HybridState(tuple(float(v) for v in np.atleast_1d(x1)), shift(state.f, t))


def product_metric(a: HybridState, b: HybridState, tol: float = 1e-12) -> float:
    """Euclidean distance on states plus the signal metric."""
    dx = np.asarray(a.x, dtype=float) - np.asarray(b.x, dtype=float)
    return float(np.linalg.norm(dx)) + metric_delta(a.f, b.f, tol)
