"""Vector-field families for the per-vertex dynamics.

A field evaluates coordinate columns: ``field.columns(x1, ..., xd)`` returns
the d velocity columns, where each ``xi`` is a float (a lone point; Python
floats in integration) or an array (a batch), and each column is a number or
an array of the inputs' shape.  Every operation acts elementwise, so a lone
point equals its row of a batch bit for bit.  ``field(x)`` is the array
form: shape (..., d) in, (..., d) out.  There are three config-friendly families:
1-D polynomials, linear maps, and expression trees over x1..xd with +, -,
*, /, ** and sin/cos/exp.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import ValidationError

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


def _square(a):
    return a * a


def _constant_value(node: ast.expr):
    """The value of a variable-free subexpression, as the compiled field
    computes it.  An int power beyond the float range raises OverflowError
    before Python computes it: ``9**9**9`` would run without bound."""
    def value(n: ast.expr):
        if isinstance(n, ast.Constant):
            return n.value
        return eval(compile(ast.Expression(n), "<field>", "eval"),
                    {"__builtins__": {}, **_ALLOWED_CALLS})

    for n in reversed(list(ast.walk(node))):  # inner powers first
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow):
            base, exponent = value(n.left), value(n.right)
            if (isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1
                    and exponent * math.log2(abs(base)) > 1024):
                raise OverflowError(f"{ast.unparse(n)} is beyond the float range")
    return value(node)


class _ArrayPowers(ast.NodeTransformer):
    """Rewrites ``a ** b`` with a variable operand as ``square(a)`` when b
    is the constant 2, else as ``power(a, b)``: Python and numpy scalars
    compute ``**`` with libm ``pow``, which can differ in the last bit from
    ndarray ``**``, while ``np.power`` agrees with it and computes the
    exponent 2 as ``a * a``.  Each maximal variable-free subexpression is
    evaluated once and kept as written; one whose value is complex or not
    finite raises ValidationError."""

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
        except ArithmeticError:  # 1/0, 0.0 ** -1, 10.0 ** 400, or an int beyond floats
            finite = False
        if not finite:
            raise ValidationError(f"constant {ast.unparse(node)} in field "
                                  f"expression {self.expr!r} is not a finite real number")


def stack_columns(columns: Sequence, lead: tuple[int, ...]) -> np.ndarray:
    """The ``lead + (d,)`` float array of d columns, each broadcast to the
    leading shape ``lead`` (ints converted)."""
    out = np.empty(lead + (len(columns),))
    for i, column in enumerate(columns):
        out[..., i] = column
    return out


class VectorField:
    """Base of the field classes, which define ``columns(x1, ..., xd)``;
    ``field(x)`` evaluates it on the coordinate columns of a ``(..., d)``
    array.  A lone point runs as a batch of one, since numpy scalars may give
    a NaN another sign than the array loop does."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self(x[None])[0]
        return stack_columns(self.columns(*np.moveaxis(x, -1, 0)), x.shape[:-1])


@dataclass(frozen=True)
class ExpressionField(VectorField):
    """Vector field given by one expression per state component.

    The components compile to one function ``lambda x1, ..., xd: (c1, ...,
    cd)``, the instance's ``columns``, that sees only sin, cos, exp,
    ``np.power`` and ``square`` besides its arguments.
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
            bodies.append(_ArrayPowers(set(names), expr).visit(tree.body))
        args = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in names],
                             kwonlyargs=[], kw_defaults=[], defaults=[])
        tree = ast.fix_missing_locations(
            ast.Expression(ast.Lambda(args, ast.Tuple(bodies, ast.Load()))))
        object.__setattr__(self, "columns", eval(compile(tree, "<field>", "eval"), {
            "__builtins__": {}, **_ALLOWED_CALLS, "power": np.power, "square": _square}))

    @property
    def dimension(self) -> int:
        return len(self.expressions)


@dataclass(frozen=True)
class PolynomialField1D(VectorField):
    """1-D field xdot = sum_k coeffs[k] * x^k, by Horner's rule."""

    coeffs: tuple[float, ...]

    def columns(self, x1):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * x1 + c
        return (out,)


@dataclass(frozen=True)
class LinearField(VectorField):
    """d-D field xdot = A @ x, each row summed left to right."""

    matrix: tuple[tuple[float, ...], ...]

    def columns(self, *xs):
        out = []
        for row in self.matrix:
            column = row[0] * xs[0]
            for a, x in zip(row[1:], xs[1:]):
                column = column + a * x
            out.append(column)
        return tuple(out)


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
