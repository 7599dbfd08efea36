"""Vector-field families for the per-vertex dynamics.

Fields evaluate batches: input arrays of shape (..., d) map to velocity
arrays of the same shape.  Besides explicit callables there are three
config-friendly families: 1-D polynomials, linear maps, and expression
trees over x1..xd with +, -, *, /, ** and sin/cos/exp.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import ValidationError

VectorField = Callable[[np.ndarray], np.ndarray]

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _validate_expr(node: ast.AST, names: set[str]) -> None:
    if isinstance(node, ast.Expression):
        _validate_expr(node.body, names)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate_expr(node.left, names)
        _validate_expr(node.right, names)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate_expr(node.operand, names)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
            raise ValidationError(f"call to {ast.dump(node.func)} not allowed")
        if len(node.args) != 1 or node.keywords:
            raise ValidationError("field functions take exactly one argument")
        _validate_expr(node.args[0], names)
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise ValidationError(f"unknown variable {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValidationError(f"constant {node.value!r} not allowed")
    else:
        raise ValidationError(f"expression node {type(node).__name__} not allowed")


@dataclass(frozen=True)
class ExpressionField:
    """Vector field given by one expression per state component.

    The components compile to one function ``lambda x1, ..., xd: (c1, ...,
    cd)`` that sees only sin, cos and exp besides its arguments.
    """

    expressions: tuple[str, ...]

    def __post_init__(self) -> None:
        names = [f"x{i + 1}" for i in range(self.dimension)]
        bodies = []
        for expr in self.expressions:
            try:
                tree = ast.parse(expr, mode="eval")
            except SyntaxError as exc:
                raise ValidationError(f"cannot parse field expression {expr!r}: {exc}") from exc
            _validate_expr(tree, set(names))
            bodies.append(tree.body)
        args = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in names],
                             kwonlyargs=[], kw_defaults=[], defaults=[])
        tree = ast.fix_missing_locations(
            ast.Expression(ast.Lambda(args, ast.Tuple(bodies, ast.Load()))))
        object.__setattr__(self, "_fn", eval(compile(tree, "<field>", "eval"),
                                             {"__builtins__": {}, **_ALLOWED_CALLS}))

    @property
    def dimension(self) -> int:
        return len(self.expressions)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.dimension,))
        for i, value in enumerate(self._fn(*(x[..., i] for i in range(self.dimension)))):
            out[..., i] = value
        return out


@dataclass(frozen=True)
class PolynomialField1D:
    """1-D field xdot = sum_k coeffs[k] * x^k."""

    coeffs: tuple[float, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = x[..., 0]
        out = np.zeros_like(s)
        for c in reversed(self.coeffs):
            out = out * s + c
        return out[..., None]


@dataclass(frozen=True)
class LinearField:
    """d-D field xdot = A @ x."""

    matrix: tuple[tuple[float, ...], ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(self.matrix, dtype=float)
        return np.asarray(x, dtype=float) @ a.T


def field_from_config(entry, dimension: int) -> VectorField:
    """Build a field from a config entry.

    Accepts a single expression string (1-D systems), a list of d expression
    strings, or an object ``{"type": "poly1d"|"linear"|"expr", ...}``.
    """
    if isinstance(entry, str):
        if dimension == 1:
            return ExpressionField((entry,))
        raise ValidationError("a bare expression string only defines a 1-D field; "
                              "give one expression per component")
    if isinstance(entry, (list, tuple)) and all(isinstance(s, str) for s in entry):
        if len(entry) != dimension:
            raise ValidationError(f"field needs {dimension} component expressions")
        return ExpressionField(tuple(entry))
    if isinstance(entry, dict):
        kind = entry.get("type")
        if kind == "poly1d":
            if dimension != 1:
                raise ValidationError("poly1d fields require dimension 1")
            return PolynomialField1D(tuple(float(c) for c in entry["coeffs"]))
        if kind == "linear":
            m = tuple(tuple(float(v) for v in row) for row in entry["matrix"])
            if len(m) != dimension or any(len(r) != dimension for r in m):
                raise ValidationError("linear field matrix must be d x d")
            return LinearField(m)
        if kind == "expr":
            comps = entry["components"]
            if len(comps) != dimension:
                raise ValidationError(f"field needs {dimension} component expressions")
            return ExpressionField(tuple(str(c) for c in comps))
        raise ValidationError(f"unknown field type {kind!r}")
    raise ValidationError(f"cannot interpret field entry {entry!r}")
