"""Switched ODE integration and the combined flow on state x signal pairs.

The state flows under the vector field selected by the current signal
value; the signal itself is translated in time.  Integration is fixed-step
RK4 split exactly at the signal's switching breakpoints, so trajectories
are deterministic and the only error is the smooth per-field RK4 error.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import ExpressionField
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
                                  "RK4 loop and batch stage are compiled")
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


def _rk4_rows(field: ExpressionField, n_steps: int, half: float, hstep: float,
              sixth: float, x: np.ndarray) -> None:
    """``n_steps`` RK4 steps of the C-ordered ``(d, ...)`` array ``x`` of
    coordinate rows, in place.  ``field.into`` writes each stage into its
    preallocated ``(d, ...)`` buffer, and each move ``y = x + c * k`` and the
    final ``x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)`` runs one ufunc
    call per operation over all d rows, with ``out=``: the operations and
    their order are those of ``field.rk4`` on arrays.  A move computes
    ``c * k`` in ``y`` itself, which the stage before it has read.  The
    factors are 0-d float64 arrays, which a ufunc takes without converting
    a Python float on every call."""
    y, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(5))
    temps = tuple(np.empty((field.temps,) + x.shape[1:]))
    into, add, multiply = field.into, np.add, np.multiply
    half, hstep, sixth, two = map(np.array, (half, hstep, sixth, 2.0))
    # each stage's arguments: its buffer's rows, the rows it reads, the temporaries
    s1, s2, s3, s4 = ((*k, *at, *temps) for k, at in ((k1, x), (k2, y), (k3, y), (k4, y)))
    for _ in range(n_steps):
        into(*s1)
        multiply(half, k1, out=y)
        add(x, y, out=y)
        into(*s2)
        multiply(half, k2, out=y)
        add(x, y, out=y)
        into(*s3)
        multiply(hstep, k3, out=y)
        add(x, y, out=y)
        into(*s4)
        multiply(two, k2, out=k2)
        add(k1, k2, out=k1)
        multiply(two, k3, out=k3)
        add(k1, k3, out=k1)
        add(k1, k4, out=k1)
        multiply(sixth, k1, out=k1)
        add(x, k1, out=x)


def _coordinates(x0) -> list[float] | None:
    """The coordinates of the point ``x0`` as Python floats, each read with
    ``float``, as ``np.asarray(x0, dtype=float).tolist()`` converts them;
    None for a scalar, a point nested in a sequence or text."""
    try:
        return list(map(float, x0))
    except (TypeError, ValueError):
        return None


def _lone_flow(sys: SwitchedSystem, x0, pieces) -> tuple[float, ...]:
    """The one state ``x0`` flowed through ``pieces``, (field index, time)
    pairs, in turn, as d Python floats.  The coordinates enter through
    ``_coordinates``, and a state that is not finite is refused.  Each
    piece runs the field's compiled loop, ``field.rk4``; where Python
    raises instead of float64 (division by zero), the piece is rerun as a
    batch of one."""
    xs = _coordinates(x0)
    if xs is None or len(xs) != sys.dimension:
        raise ValidationError(f"state of shape {np.shape(x0)} does not end in the "
                              f"system dimension {sys.dimension}")
    if not all(map(math.isfinite, xs)):
        raise ValidationError(f"state {tuple(xs)} is not finite")
    for index, dt in pieces:
        n_steps = max(1, math.ceil(abs(dt) / sys.step)) * sys.substeps
        hstep = dt / n_steps
        try:
            # a field with sin, cos, exp or power returns numpy floats: each
            # piece starts from Python floats, which raise on division by zero
            xs = sys.fields[index].rk4(n_steps, 0.5 * hstep, hstep, hstep / 6.0,
                                       *map(float, xs))
        except ZeroDivisionError:
            # float64 gives inf or nan, which a later operation may make
            # finite again (exp(-1/0.0) is 0)
            xs = _flow(sys, np.array([xs]), ((index, dt),))[0]
        if not all(map(math.isfinite, xs)):
            raise IntegrationError(f"state became non-finite under field {index}")
    return tuple(map(float, xs))


def _flow(sys: SwitchedSystem, x0, pieces) -> np.ndarray:
    """``x0``, of shape (..., d), flowed through ``pieces``, (field index,
    time) pairs, in turn: the one place that picks a path.  A lone point
    runs ``_lone_flow``; a batch runs ``_rk4_rows`` on one C-ordered
    ``(d, ...)`` copy for all pieces, so the caller's array is never
    written.  Both run the operations of the field's bodies in the same
    order, and ``+ - * /`` round the same on Python floats as on float64,
    so every point comes out bit for bit as if flowed alone."""
    x = np.asarray(x0, dtype=float)
    if x.ndim <= 1:  # _lone_flow refuses a scalar
        return np.array(_lone_flow(sys, x, pieces))
    if x.shape[-1] != sys.dimension:
        raise ValidationError(f"state of shape {x.shape} does not end in the "
                              f"system dimension {sys.dimension}")
    rows = np.array(np.moveaxis(x, -1, 0), order="C")
    # an overflow or a division by zero is reported by the finiteness
    # check alone, as IntegrationError; exp(-1/0.0) is 0 and stays finite
    with np.errstate(all="ignore"):
        for index, dt in pieces:
            n_steps = max(1, math.ceil(abs(dt) / sys.step)) * sys.substeps
            hstep = dt / n_steps
            _rk4_rows(sys.fields[index], n_steps, 0.5 * hstep, hstep, hstep / 6.0, rows)
            if not np.all(np.isfinite(rows)):
                raise IntegrationError(f"state became non-finite under field {index}")
    return np.moveaxis(rows, 0, -1).copy()


def integrate_segment(sys: SwitchedSystem, field_index: int, x0: np.ndarray,
                      dt: float) -> np.ndarray:
    """Fixed-step RK4 of ``x0``, of shape (..., d), under a single field for
    (possibly negative) time dt: ``_flow`` with one piece, or none at 0."""
    if not math.isfinite(dt):
        raise ValidationError(f"segment time {dt} is not finite")
    return _flow(sys, x0, ((field_index, dt),) if dt != 0.0 else ())


def _pieces(sys: SwitchedSystem, t: float, f: SwitchingSignal) -> list[tuple[int, float]]:
    """``f.pieces(t)``, once the graph, step and time are checked for ``sys``."""
    if f.graph != sys.graph:
        raise ValidationError("signal and system use different graphs")
    if abs(f.step - sys.step) > 1e-12 * sys.step:
        raise ValidationError("signal and system use different step h")
    if not math.isfinite(t):
        raise ValidationError(f"flow time {t} is not finite")
    return f.pieces(t)


def switched_flow(sys: SwitchedSystem, t: float, x0: Sequence[float] | np.ndarray,
                  f: SwitchingSignal) -> np.ndarray:
    """Flow the state for time t through the signal's pieces, switching
    fields at its breakpoints; negative t integrates backward."""
    return _flow(sys, x0, _pieces(sys, t, f))


def skew_product(sys: SwitchedSystem, t: float, state: HybridState) -> HybridState:
    """Advance the pair (x, f): state driven by f, signal translated by t."""
    return HybridState(_lone_flow(sys, state.x, _pieces(sys, t, state.f)), shift(state.f, t))


def product_metric(a: HybridState, b: HybridState, tol: float = 1e-12) -> float:
    """Euclidean distance on states plus the signal metric.  The state part
    is ``math.hypot`` of the coordinate differences on Python floats, which
    squares nothing and is correctly rounded on every CPU (a BLAS ``dot``
    picks its kernel per CPU): it underflows or overflows, to ``inf``,
    only with the distance itself."""
    xa, xb = _coordinates(a.x), _coordinates(b.x)
    if xa is None or xb is None:
        raise ValidationError(f"state {(a.x if xa is None else b.x)!r} is not a sequence of numbers")
    if len(xa) != len(xb):
        raise ValidationError(f"states of {len(xa)} and {len(xb)} coordinates differ in dimension")
    distance = math.hypot(*map(operator.sub, xa, xb))
    if not math.isfinite(distance):  # a coordinate is not finite, or the distance overflows
        for x in (xa, xb):
            if not all(map(math.isfinite, x)):
                raise ValidationError(f"state {tuple(x)} is not finite")
    return distance + metric_delta(a.f, b.f, tol)
