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

from .fields import ExpressionField, stack_columns
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
    fields: tuple[ExpressionField, ...]
    substeps: int = 20

    def __post_init__(self) -> None:
        require_valid(self.graph)
        if len(self.fields) != self.graph.n:
            raise ValidationError("need exactly one field per graph vertex")
        if not 0 < self.step < math.inf:
            raise ValidationError("step h must be positive and finite")
        if self.substeps < 1:
            raise ValidationError("substeps must be >= 1")
        if not all(isinstance(f, ExpressionField) for f in self.fields):
            raise ValidationError("every field needs component expressions, from which its "
                                  "columns(x1, ..., xd) evaluation and RK4 loop are compiled")
        if not self.box:
            raise ValidationError("box needs at least one interval")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError("box intervals must be nonempty and finite")
        if any(len(f.bodies) != len(self.box) for f in self.fields):
            raise ValidationError(f"every field needs {len(self.box)} components, "
                                  "one per box interval")

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


def _state(sys: SwitchedSystem, x0) -> np.ndarray:
    """``x0`` as a float array of shape (..., d)."""
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0 or x.shape[-1] != sys.dimension:
        raise ValidationError(f"state of shape {x.shape} does not end in the "
                              f"system dimension {sys.dimension}")
    return x


def integrate_segment(sys: SwitchedSystem, field_index: int, x0: np.ndarray,
                      dt: float) -> np.ndarray:
    """Fixed-step RK4 under a single field for (possibly negative) time dt.

    ``x0`` has shape (..., d).  The state is held as its d coordinate
    columns and run through the field's compiled loop, ``field.rk4``:
    Python floats for a lone point, arrays for a batch.  Every point comes
    out bit for bit as if flowed alone, since ``+ - * /`` round the same on
    Python floats as on float64.  Where Python raises instead (division by
    zero), a lone point is rerun as a batch of one.
    """
    x = _state(sys, x0)
    if not math.isfinite(dt):
        raise ValidationError(f"segment time {dt} is not finite")
    if dt == 0.0:
        return x.copy()
    n_steps = max(1, math.ceil(abs(dt) / sys.step)) * sys.substeps
    hstep = dt / n_steps
    rk4 = sys.fields[field_index].rk4
    if x.ndim == 1:
        try:
            xs = rk4(n_steps, 0.5 * hstep, hstep, hstep / 6.0, *x.tolist())
        except ZeroDivisionError:
            # Python floats raise where float64 gives inf or nan, which a later
            # operation may make finite again (exp(-1/0.0) is 0): rerun as a batch
            return integrate_segment(sys, field_index, x[None], dt)[0]
        finite = all(map(math.isfinite, xs))
        x = np.array(xs)
    else:
        x = stack_columns(rk4(n_steps, 0.5 * hstep, hstep, hstep / 6.0,
                              *np.moveaxis(x, -1, 0)), x.shape[:-1])
        finite = np.all(np.isfinite(x))
    if not finite:
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
    if not math.isfinite(t):
        raise ValidationError(f"flow time {t} is not finite")
    x = _state(sys, x0)
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
    return HybridState(tuple(x1.tolist()), shift(state.f, t))


def product_metric(a: HybridState, b: HybridState, tol: float = 1e-12) -> float:
    """Euclidean distance on states plus the signal metric."""
    xa, xb = np.asarray(a.x, dtype=float), np.asarray(b.x, dtype=float)
    if xa.shape != xb.shape:
        raise ValidationError(f"states of shapes {xa.shape} and {xb.shape} differ in dimension")
    return float(np.linalg.norm(xa - xb)) + metric_delta(a.f, b.f, tol)
