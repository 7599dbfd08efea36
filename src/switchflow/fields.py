"""Vector-field families for the per-vertex dynamics.

Every field is one expression tree per component over x1..xd, its
``bodies``, checked when the field is built, with each variable-free
subexpression folded to the float it evaluates to, and two functions are
compiled from them, each on first use.  ``field.rk4(n_steps, half, hstep,
sixth, x1, ..., xd)`` is the fixed-step RK4 loop with the bodies inlined,
which integration runs on a lone point's Python floats; it returns the d
coordinates after ``n_steps`` steps.  ``field.into(k1, ..., kd, x1, ...,
xd, t1, ..., tn)`` writes the d velocity columns at the arrays x1..xd into
the arrays k1..kd with ``out=``, using the ``field.temps`` arrays t1..tn as
scratch; a batch runs it in ``flow``'s fixed RK4 loop.  Every operation
acts elementwise, so a lone point equals its row of a batch bit for bit.
``ExpressionField`` is the one field class: its expressions are over
x1..xd with +, -, *, /, ** and sin/cos/exp.
"""
from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph import ValidationError

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


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


def _array_powers(body: ast.expr, expr: str, names: set[str]) -> ast.expr:
    """``body``, the tree of ``expr``, checked against the whitelist over the
    variables ``names`` and with each ``a ** b`` that has a variable operand
    rewritten as the product ``a * a`` when b is the constant 2 and a is a
    name, as ``square(a)`` when b is 2 and a is not, else as ``power(a, b)``:
    Python and numpy scalars compute ``**`` with libm ``pow``, which can
    differ in the last bit from ndarray ``**``, while ``np.power`` agrees with
    it and computes the exponent 2 as ``a * a``.  Each node is checked before
    its children, so the first node the whitelist refuses, in reading order,
    raises ValidationError.  Each maximal variable-free subexpression is
    evaluated once, as Python computes it, and replaced by the float
    ``ast.Constant`` of its value, which its variable operand would convert
    it to anyway; the first, in reading order, whose value is complex or not
    finite raises ValidationError.  The square or power choice is made on
    the tree as written, so ``x1 ** (1 + 1)`` stays ``power(x1, 2.0)``.  One
    bottom-up pass learns which subtrees hold a variable: every name outside
    a call's function is one."""
    # the maximal variable-free subexpressions, in reading order, each with
    # the constant that takes its place once it is evaluated
    constants: list[tuple[ast.expr, ast.Constant]] = []

    def folded(node: ast.expr, at: int) -> ast.Constant:
        constants.insert(at, (node, ast.Constant(None)))
        return constants[at][1]

    def rewrite(node: ast.expr) -> tuple[ast.expr, bool]:
        """``node`` checked and rewritten, and whether it holds no variable."""
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ValidationError(f"unknown variable {node.id!r}")
            return node, False
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValidationError(f"constant {node.value!r} not allowed")
            return node, True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
            node.operand, free = rewrite(node.operand)
            return node, free
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
                raise ValidationError(f"call to {ast.dump(node.func)} not allowed")
            if len(node.args) != 1 or node.keywords:
                raise ValidationError("field functions take exactly one argument")
            node.args[0], free = rewrite(node.args[0])
            return node, free
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS)):
            raise ValidationError(f"expression node {type(node).__name__} not allowed")
        node.left, left_free = rewrite(node.left)
        mark = len(constants)
        node.right, right_free = rewrite(node.right)
        if left_free and right_free:
            return node, True
        square = isinstance(node.right, ast.Constant) and node.right.value == 2
        if left_free:
            node.left = folded(node.left, mark)
        if right_free:
            node.right = folded(node.right, len(constants))
        if not isinstance(node.op, ast.Pow):
            return node, False
        if square:
            if isinstance(node.left, ast.Name):
                return ast.BinOp(node.left, ast.Mult(), node.left), False
            return ast.Call(ast.Name("square", ast.Load()), [node.left], []), False
        return ast.Call(ast.Name("power", ast.Load()), [node.left, node.right], []), False

    body, free = rewrite(body)
    if free:
        body = folded(body, len(constants))
    with np.errstate(all="ignore"):
        for node, constant in constants:
            try:
                value = _constant_value(node)
                finite = not isinstance(value, complex) and math.isfinite(value)
            except ArithmeticError:  # 1/0, 0.0 ** -1, 10.0 ** 400, or an int beyond floats
                finite = False
            if not finite:
                raise ValidationError(f"constant {ast.unparse(node)} in field "
                                      f"expression {expr!r} is not a finite real number")
            constant.value = float(value)
    return body


# the ufuncs that ndarray operators call, under the names ``into`` uses
_UFUNCS = {ast.Add: "add", ast.Sub: "subtract", ast.Mult: "multiply", ast.Div: "divide",
           ast.USub: "negative", ast.UAdd: "positive"}

# the only names compiled field code sees besides its arguments and locals
_GLOBALS = {"__builtins__": {}, "range": range, **_ALLOWED_CALLS, "power": np.power,
            "square": _square, **{name: getattr(np, name) for name in _UFUNCS.values()}}


def _rk4_source(at_x: Sequence[str], xs: list[str]) -> str:
    """The fixed-step RK4 loop with the component bodies, printed over x1..xd
    as ``at_x``, inlined: ``loop(n_steps, half, hstep, sixth, x1, ..., xd)``
    returns the d columns after ``n_steps`` steps.  Each stage after the
    first assigns the moved coordinates to ``y1..yd``, and every stage its
    values ``k{s}_i`` to the bodies read at them: the operations and their
    order are those of the bodies evaluated four times.  The only identifiers
    in a body are x1..xd and function names, and a number prints without an
    ``x``, so each ``x`` before a digit starts a coordinate."""
    ys = [f"y{i}" for i in range(1, len(xs) + 1)]
    ks = [[f"k{s}_{i}" for i in range(1, len(xs) + 1)] for s in range(1, 5)]
    at_y = [re.sub(r"\bx(?=\d)", "y", text) for text in at_x]

    def stage(k: list[str], values: list[str]) -> str:
        return "".join(f"\n        {v} = {value}" for v, value in zip(k, values))

    def moved(step: str, k: list[str]) -> str:
        return "".join(f"\n        {y} = {x} + {step} * {v}" for y, x, v in zip(ys, xs, k))

    step = "".join([
        stage(ks[0], at_x), moved("half", ks[0]),
        stage(ks[1], at_y), moved("half", ks[1]),
        stage(ks[2], at_y), moved("hstep", ks[2]),
        stage(ks[3], at_y),
        *(f"\n        {x} = {x} + sixth * ({p} + 2.0 * {q} + 2.0 * {r} + {s})"
          for x, p, q, r, s in zip(xs, *ks))])
    # pass keeps the loop valid when d = 0; the trailing comma makes d = 1 a 1-tuple
    return f"""def loop(n_steps, half, hstep, sixth, {", ".join(xs)}):
    for _ in range(n_steps):
        pass{step}
    return ({"".join(x + ", " for x in xs)})
"""


def _into_source(bodies: Sequence[ast.expr], xs: list[str]) -> tuple[str, int]:
    """The source of ``into(k1, ..., kd, x1, ..., xd, t1, ..., tn)``, which
    writes component i at the arrays x1..xd into the array ``ki``, and n, the
    temporaries it takes.  Each operation is the ufunc its ndarray operator
    calls (``square(a)`` is ``multiply(a, a)``) with ``out=`` the buffer of
    its node: the body's ``ki``, or ``tj`` for a right operand computed while
    the left one holds its node's buffer at depth j - 1.  Operands run left
    to right; a coordinate or folded constant is read as written.  So the
    values are those of the bodies evaluated on arrays, bit for bit, and a
    leaf body is copied into its ``ki``."""
    names = set(xs)
    ks = [f"k{i}" for i in range(1, len(xs) + 1)]
    lines = ["pass"]  # keeps the function valid when d = 0
    temps = 0

    held = set()  # the ids of the nodes that hold a coordinate, in one pass
    for node in reversed([n for body in bodies for n in ast.walk(body)]):  # after its subtree
        children = map(id, ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and node.id in names or not held.isdisjoint(children):
            held.add(id(node))

    def leaf(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) or id(node) not in held

    def value(node: ast.expr, out: str, depth: int) -> str:
        """The operand that holds ``node``: its text for a leaf, else ``out``
        (``t{depth}``, or a ``ki`` at depth 0) after the lines that write it."""
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


def _compiled(source: str, name: str):
    """The function ``name`` that ``source`` defines, compiled under
    ``_GLOBALS`` alone."""
    namespace = dict(_GLOBALS)
    # a compile of text, which costs less than building AST objects
    exec(compile(source, "<field>", "exec"), namespace)
    return namespace.pop(name)


@dataclass(frozen=True)
class ExpressionField:
    """Vector field given by one expression per state component, over x1..xd.

    When the field is built, each expression is checked against the
    whitelist, every ``**`` with a variable operand is rewritten, and every
    variable-free subexpression is folded to a float, by ``_array_powers``;
    the results are the field's ``bodies``, which ``ast.unparse`` prints.
    ``rk4`` (the lone-point loop, with the printed bodies inlined) and
    ``into`` (a batch's stage, which needs ``temps`` scratch arrays) are
    each compiled from them on first use, under ``__builtins__: {}``.
    """

    expressions: tuple[str, ...]

    def __post_init__(self) -> None:
        names = {f"x{i}" for i in range(1, len(self.expressions) + 1)}
        bodies, at_x = [], []
        for expr in self.expressions:
            # printed here, since printing recurses deepest: a body nested too
            # deeply is refused when the field is built
            try:
                bodies.append(_array_powers(ast.parse(expr, mode="eval").body, expr, names))
                at_x.append(ast.unparse(bodies[-1]))
            except SyntaxError as exc:
                raise ValidationError(f"cannot parse field expression {expr!r}: {exc}") from exc
            except RecursionError:
                raise ValidationError(f"field expression {expr!r} is nested too deeply") from None
        object.__setattr__(self, "bodies", tuple(bodies))
        object.__setattr__(self, "_at_x", tuple(at_x))

    @property
    def _xs(self) -> list[str]:
        return [f"x{i}" for i in range(1, len(self.bodies) + 1)]

    @cached_property
    def rk4(self):
        return _compiled(_rk4_source(self._at_x, self._xs), "loop")

    @cached_property
    def into(self):
        source, self.__dict__["temps"] = _into_source(self.bodies, self._xs)
        return _compiled(source, "into")

    @cached_property
    def temps(self) -> int:
        self.into  # compiling into stores its temps
        return self.__dict__["temps"]


def field_from_config(entry, dimension: int) -> ExpressionField:
    """Build a field from a config entry: a single expression string (1-D
    systems) or a list of d expression strings."""
    if isinstance(entry, str):
        if dimension == 1:
            return ExpressionField((entry,))
        raise ValidationError("a bare expression string only defines a 1-D field; "
                              "give one expression per component")
    if isinstance(entry, (list, tuple)) and all(isinstance(s, str) for s in entry):
        if len(entry) != dimension:
            raise ValidationError(f"field needs {dimension} component expressions")
        return ExpressionField(tuple(entry))
    raise ValidationError(f"cannot interpret field entry {entry!r}")
