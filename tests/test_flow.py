import ast
import decimal
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchflow import flow
from switchflow.chains import build_chain_graph, build_grid
from switchflow.config import ExperimentConfig
from switchflow.fields import (
    ExpressionField,
    _array_powers,
    field_from_config,
)
from switchflow.flow import (
    HybridState,
    IntegrationError,
    SwitchedSystem,
    integrate_segment,
    product_metric,
    skew_product,
    switched_flow,
)
from switchflow.graph import DirectedGraph, ValidationError
from switchflow.literals import parse_signal
from switchflow.sequences import constant_sequence, periodic_sequence
from switchflow.signals import metric_delta, shift, sigma_embed

from conftest import (
    ReferenceArrayPowers,
    per_component_field,
    random_signal,
    reference_compiled_field,
    reference_linear_columns,
    reference_polynomial_columns,
    reference_rk4,
    reference_switched_flow,
    unfolded_compiled_field,
    velocity,
)

H = 0.1


def poly1d(coeffs):
    """The field of the polynomial ``coeffs`` (c_0 first), written as Horner's
    rule from 0.0: ``((0.0) * x1 + (c_n)) * x1 + ... + (c_0)``."""
    horner = "0.0"
    for c in reversed(coeffs):
        horner = f"({horner}) * x1 + ({float(c)!r})"
    return ExpressionField((horner,))


def linear(matrix):
    """The field x -> A x, each row of ``matrix`` written as its sum left to
    right: ``(a0) * x1 + (a1) * x2 + ...``."""
    return ExpressionField(tuple(" + ".join(f"({float(a)!r}) * x{i}" for i, a in enumerate(row, 1))
                                 for row in matrix))


def sys_decay_grow(substeps=40):
    g = DirectedGraph.complete(2)
    return SwitchedSystem(g, ((-4.0, 4.0),), H,
                          (ExpressionField(("-x1",)), ExpressionField(("x1",))),
                          substeps=substeps)


def alternating_signal(h=H):
    g = DirectedGraph.complete(2)
    return sigma_embed(periodic_sequence(g, (0, 1)), h)


class TestFields:
    def test_expression_vectorized(self):
        f = ExpressionField(("-x1*(x1-1)*(x1-2)",))
        x = np.array([[0.5], [1.5]])
        out = velocity(f, x)
        assert out.shape == (2, 1)
        assert out[0, 0] == pytest.approx(-0.375)
        assert out[1, 0] == pytest.approx(0.375)

    def test_expression_functions(self):
        f = ExpressionField(("sin(x1) + exp(x2)", "x1"))
        val = velocity(f, np.array([0.0, 0.0]))[0]
        assert float(val) == pytest.approx(1.0)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ValidationError):
            ExpressionField(("__import__('os')",))
        with pytest.raises(ValidationError):
            ExpressionField(("x3", "x1"))

    @pytest.mark.parametrize("expr, message", [
        ("x1 % 2", "expression node BinOp not allowed"),
        ("x4", "unknown variable 'x4'"),
        ("'a'", "constant 'a' not allowed"),
        ("sin(x1, x1)", "field functions take exactly one argument"),
        ("sin(x=x1)", "field functions take exactly one argument"),
        ("sin(*x1)", "expression node Starred not allowed"),
        ("abs(x1)", "call to Name(id='abs', ctx=Load()) not allowed"),
        ("x1 if x1 else 2", "expression node IfExp not allowed"),
        ("x1 < 2", "expression node Compare not allowed"),
        ("x1.real", "expression node Attribute not allowed"),
    ])
    def test_disallowed_expression_message(self, expr, message):
        with pytest.raises(ValidationError) as info:
            ExpressionField((expr,))
        assert str(info.value) == message

    def test_polynomial(self):
        f = poly1d((0.0, -1.0))  # -x
        assert velocity(f, np.array([2.0]))[0] == pytest.approx(-2.0)

    def test_linear(self):
        f = linear(((0.0, 1.0), (-1.0, 0.0)))
        out = velocity(f, np.array([1.0, 0.0]))
        assert out == pytest.approx(np.array([0.0, -1.0]))

    def test_from_config_forms(self):
        # a field entry is expression text: one string in 1-D, else d strings
        assert field_from_config("-x1", 1) == ExpressionField(("-x1",))
        assert field_from_config(["x2", "-x1"], 2) == ExpressionField(("x2", "-x1"))
        with pytest.raises(ValidationError, match="only defines a 1-D field"):
            field_from_config("-x1", 2)
        with pytest.raises(ValidationError, match="field needs 2 component expressions"):
            field_from_config(["-x1"], 2)
        for entry in ({"type": "poly1d", "coeffs": [1.0]}, {"type": "linear", "matrix": [[1.0]]},
                      {"type": "expr", "components": ["-x1"]}, ["x1", 2], 1.0):
            with pytest.raises(ValidationError, match="cannot interpret field entry"):
                field_from_config(entry, 1)

    @pytest.mark.parametrize("expr, base", [
        ("x1**2", lambda x: x), ("x1**2.0", lambda x: x), ("(x1-1)**2", lambda x: x - 1)])
    def test_square_equals_np_power(self, expr, base):
        # x**2 compiles to x*x, never to power; numpy's power computes
        # exponent 2 the same way, up to overflow to inf
        field = ExpressionField((expr,))
        for compiled in (field.rk4, field.into):
            assert "power" not in compiled.__code__.co_names
        rng = np.random.default_rng(5)
        exponents = np.repeat(np.arange(-300, 161, 4), 2000)
        x = rng.choice([-1.0, 1.0], exponents.size) * rng.uniform(1.0, 10.0, exponents.size) \
            * 10.0 ** exponents.astype(float)
        with np.errstate(over="ignore", under="ignore"):
            want = np.power(base(x), 2)
            got = velocity(field, x[:, None])[:, 0]
            assert got.tobytes() == want.tobytes()
        assert np.isinf(want).any()

    @pytest.mark.parametrize("expr", ["x1**3", "x1**0.5", "x1**x2", "2.0**x1"])
    def test_other_variable_powers_use_np_power(self, expr):
        field = ExpressionField((expr, "x2"))
        for compiled in (field.rk4, field.into):
            names = compiled.__code__.co_names
            assert "power" in names and "square" not in names

    def test_finite_constant_powers_kept(self):
        field = ExpressionField(("x1 * 2**0.5 + (-2.0)**2 + 2**-1 + (-8)**3",))
        for compiled in (field.rk4, field.into):
            assert "power" not in compiled.__code__.co_names
        assert velocity(field, np.array([1.0]))[0] == 2**0.5 + (-2.0)**2 + 2**-1 + (-8)**3

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_linear_and_polynomial_equal_references(self, data):
        # both kinds compile one expression per component; on arrays they
        # must compute what their hand-written columns methods did, signed
        # zeros, infinities and NaNs included
        coeffs = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
        values = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                           st.floats())
        if data.draw(st.booleans(), label="linear"):
            d = data.draw(st.integers(1, 3), label="d")
            matrix = data.draw(st.lists(st.lists(coeffs, min_size=d, max_size=d).map(tuple),
                                        min_size=d, max_size=d).map(tuple), label="matrix")
            field = linear(matrix)

            def reference(*xs):
                return reference_linear_columns(matrix, *xs)
        else:
            d = 1
            poly = data.draw(st.lists(coeffs, max_size=5).map(tuple), label="coeffs")
            field = poly1d(poly)

            def reference(x1):
                return reference_polynomial_columns(poly, x1)
        batch = [np.array(data.draw(st.lists(values, min_size=6, max_size=6), label=f"x{i}"))
                 for i in range(1, d + 1)]
        with np.errstate(all="ignore"):
            got = velocity(field, np.stack(batch, axis=-1))
            want = np.column_stack([np.broadcast_to(np.asarray(column, dtype=float), (6,))
                                    for column in reference(*batch)])
        assert got.tobytes() == want.tobytes()

    def test_array_powers_equal_reference_on_corpus(self):
        for expr in POWER_CORPUS:
            assert array_powers_outcome(expr) == reference_array_powers_outcome(expr), expr

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_array_powers_equal_reference(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        expr = data.draw(field_expressions(d), label="expression")
        assert array_powers_outcome(expr) == reference_array_powers_outcome(expr)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_expression_matches_per_component_eval(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        exprs = tuple(data.draw(st.lists(field_expressions(d), min_size=d, max_size=d),
                                label="expressions"))
        lead = data.draw(st.sampled_from([(), (4,), (3, 2)]), label="leading shape")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        x = np.random.default_rng(seed).uniform(-3.0, 3.0, lead + (d,))
        try:
            field = ExpressionField(exprs)
        except ValidationError as exc:
            # refused only for a constant that is complex or not finite
            constant = re.search(r"constant (.+) in field expression", str(exc))[1]
            assert not finite_real_constant(constant)
            return
        reference = per_component_field(exprs, d)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            want = reference(x)
            got = velocity(field, x)
        assert got.shape == want.shape == x.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


    def test_each_path_compiles_only_its_form(self):
        # the chain build runs only the batch stage and a lone point only the
        # RK4 loop; each form is compiled on first use
        def fresh_system():
            return SwitchedSystem(DirectedGraph.complete(2), ((0.0, 2.0),), H,
                                  (ExpressionField(("-x1*(x1-1)*(x1-2)",)),
                                   ExpressionField(("-x1*(x1-2)",))), substeps=2)

        sys = fresh_system()
        assert not any({"rk4", "into", "temps"} & set(f.__dict__) for f in sys.fields)
        build_chain_graph(sys, build_grid(sys.box, (40,)), 0.05, 2)
        for field in sys.fields:
            assert "rk4" not in field.__dict__ and "into" in field.__dict__
        sys = fresh_system()
        integrate_segment(sys, 0, np.array([0.5]), 0.3)
        assert "into" not in sys.fields[0].__dict__ and "rk4" in sys.fields[0].__dict__
        assert "temps" not in sys.fields[0].__dict__
        sys = fresh_system()
        skew_product(sys, 0.35, HybridState((0.5,), alternating_signal()))
        for field in sys.fields:
            assert "rk4" in field.__dict__ and not {"into", "temps"} & set(field.__dict__)

    def test_compiled_forms_equal_one_compile_on_corpus(self):
        # each form compiled alone on first use is the code object of the
        # one compile of both sources, whose into decides each leaf by a walk
        # of its subtree, and a field fails when it is built or
        # never, with the same message; a body nested 400 or 600 deep passes
        # the checks but is too deep to print, and is refused as nested too
        # deeply (where the reference hits the recursion limit depends on
        # the stack)
        compiled = refused = 0
        deep = [("+".join(["x1"] * 400),), ("-" * 600 + "x1",)]
        for exprs in [*deep, *seeded_field_corpus(np.random.default_rng(31), 400)]:
            try:
                rk4, into, temps = reference_compiled_field(exprs)
            except (ValidationError, RecursionError) as exc:
                with pytest.raises(ValidationError) as info:
                    ExpressionField(exprs)
                if isinstance(exc, RecursionError):
                    assert str(info.value).endswith("is nested too deeply")
                else:
                    assert str(info.value) == str(exc)
                refused += 1
                continue
            field = ExpressionField(exprs)
            assert field.temps == temps
            for got, want in ((field.rk4, rk4), (field.into, into)):
                assert got.__globals__ == want.__globals__
                for attr in ("co_code", "co_consts", "co_names", "co_varnames"):
                    assert getattr(got.__code__, attr) == getattr(want.__code__, attr), exprs
            compiled += 1
        assert compiled > 200 and refused > 20

    @pytest.mark.parametrize("corpus", ["seeded", "power", "hand"])
    def test_folded_constants_keep_every_bit(self, corpus):
        # each variable-free subexpression is folded to a float when the
        # field is built; the compiled forms must give the bits of code
        # compiled from the bodies as written, which evaluates each of them
        # at every stage: rk4 on Python floats and into on arrays
        cases = {"seeded": seeded_field_corpus(np.random.default_rng(37), 200),
                 "power": [(expr, "x3", "x1") for expr in POWER_CORPUS],
                 "hand": [(expr,) for expr in FOLDING_CASES]}[corpus]
        rng = np.random.default_rng(41)
        compared = 0
        for exprs in cases:
            try:
                field = ExpressionField(exprs)
            except ValidationError:
                continue
            rk4, into, temps = unfolded_compiled_field(exprs)
            d = len(exprs)
            special = [0.0, -0.0, 5e-324, -1e300, 1.0, 2.0**53]
            rows = np.array(np.concatenate([rng.uniform(-3.0, 3.0, (10, d)),
                                            np.resize(special, (len(special), d))]).T, order="C")
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                for point in rows.T.tolist():
                    # a NaN from two NaN operands takes the sign of the one
                    # that the interpreter's compiled float op reads first,
                    # which changes when CPython specializes the loop: NaNs
                    # compare as one value, and every other bit exactly
                    got = outcome(lambda: one_nan(field.rk4(2, 0.05, 0.1, 0.1 / 6.0, *point)))
                    want = outcome(lambda: one_nan(rk4(2, 0.05, 0.1, 0.1 / 6.0, *point)))
                    # a Python float raises on division by zero where a numpy
                    # float (sin of a constant) gives inf: either form is then
                    # rerun as a batch of one, which into computes
                    if ZeroDivisionError not in (got[1], want[1]):
                        assert got == want, (exprs, point)
                        compared += 1
                k_got, k_want = np.empty_like(rows), np.empty_like(rows)
                field.into(*k_got, *rows, *np.empty((field.temps, rows.shape[1])))
                into(*k_want, *rows, *np.empty((temps, rows.shape[1])))
            assert k_got.tobytes() == k_want.tobytes(), exprs
        assert compared > {"seeded": 1000, "power": 300, "hand": 100}[corpus]

    @pytest.mark.parametrize("expr, folded", [
        ("-x1+(1-x1**2)*x2", "-x1 + (1.0 - x1 * x1) * x2"),
        ("x1 * (2**53 + 1)", "x1 * 9007199254740992.0"),
        ("x1 * (1 - 1/1e309)", "x1 * 1.0"),
        ("x1 ** (1 + 1)", "power(x1, 2.0)"),
        ("x1 ** 3 + sin(1.0)", "power(x1, 3.0) + 0.8414709848078965"),
        ("2 ** 0.5", "1.4142135623730951"),
    ])
    def test_constants_print_folded(self, expr, folded):
        # the square is chosen on the exponent as written: 1 + 1 is a power
        field = ExpressionField((expr, "x1"))
        assert ast.unparse(field.bodies[0]) == folded


def seeded_field_corpus(rng: np.random.Generator, count: int):
    """``count`` tuples of d in 1..3 random expressions over x1..xd with sin,
    cos and exp, the exponents 2, 2.0, 3, 0.5, -1 and x_i, and the constants
    1e309, 1e308 and 1e-300 among others."""
    constants = ["1", "2.5", "0", "1e309", "1e308", "1e-300", "0.1"]

    def expr(names, depth):
        kind = rng.integers(7) if depth < 4 else rng.integers(2)
        if kind == 0:
            return str(rng.choice(names))
        if kind == 1:
            return str(rng.choice(constants))
        if kind == 2:
            op = rng.choice(["+", "-", "*", "/"])
            return f"({expr(names, depth + 1)} {op} {expr(names, depth + 1)})"
        if kind == 3:
            exponent = rng.choice(["2", "2.0", "3", "0.5", "-1", str(rng.choice(names))])
            return f"({expr(names, depth + 1)})**{exponent}"
        if kind == 4:
            return f"{rng.choice(['sin', 'cos', 'exp'])}({expr(names, depth + 1)})"
        if kind == 5:
            return f"-{expr(names, depth + 1)}"
        return f"{rng.choice(names)}**2"

    for _ in range(count):
        names = [f"x{i}" for i in range(1, int(rng.integers(1, 4)) + 1)]
        yield tuple(expr(names, 0) for _ in names)

def field_expressions(d):
    """Whitelisted expressions over x1..xd.  Exponents are float constants or
    variables, so no integer power can grow without bound."""
    names = st.sampled_from([f"x{i + 1}" for i in range(d)])
    floats = st.floats(-4.0, 4.0).map(repr)
    leaves = st.one_of(names, st.integers(0, 3).map(str), floats)

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.one_of(names, floats)).map(lambda t: f"({t[0]})**{t[1]}"),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda e: f"-{e}"))

    return st.recursive(leaves, extend, max_leaves=8)


# the configs' and tests' field expressions, and the rewrite's edge cases:
# square and power, constants kept as written, non-finite constants (the
# first in reading order is named) and nested powers
POWER_CORPUS = (
    "-x1*(x1-1)*(x1-2)", "-x1*(x1-2)", "x2", "-x1+(1-x1**2)*x2", "-x1+x2", "-x1-x2",
    "-x1*(0.15915494309189535 - x1)", "x1*(0.15915494309189535 - x1)", "1.0-x1",
    "x1-0.5*x2", "-2.0*x2", "0.3", "x1*x1-x2", "sin(x1) + exp(x2)", "3*exp(-(50*x2-0.3)**2)",
    "x1**2", "x1**2.0", "(x1-1)**2", "x1**3", "x1**0.5", "x1**x2", "2.0**x1", "(2**2)**x1",
    "x1**2**x2", "-(x1**2)**3", "exp(-1/x1**2)", "((x1)**x1 + -(x1)**x1)",
    "x1 * 2**0.5 + (-2.0)**2 + 2**-1 + (-8)**3",
    "sin(x2) / x3**2 - x1**2", "cos(x1) * x3**3 - exp(-x2)",
    "1/1e309 * x1", "(-2.0)**2 - (2**2)**0.5 + x1", "sin(1.0) + x1",
    "1/0", "9**9**9 + x1", "(-1.0)**0.5 * x1", "exp(1000) * x1",
    "(1/0) + x1*(2/0)", "x1*(2/0) + 1/0", "x1**(1/0) + (3/0)**x2",
)


# folding's edge cases: an int beyond 2**53 rounds once, int arithmetic
# stays exact, 1e309 is inf inside a finite constant, a signed zero, a bool,
# a numpy float, an exponent that adds up to 2, and int exponents of power
FOLDING_CASES = (
    "x1 * (2**53 + 1)", "x1 + ((2**53 + 1) - 2**53)", "x1 * (1 - 1/1e309)", "x1 * -0.0",
    "x1 * True", "x1 + sin(1.0)", "x1 ** (1 + 1)", "x1 ** 3", "x1 ** -1", "(x1 - 0.5) ** 5",
    "x1 ** 2**64", "sin(1.0) / x1", "2 ** 70 * x1 + (2**70 + 1)",
)


def one_nan(values) -> np.ndarray:
    """``values`` as a float array with each NaN replaced by ``np.nan``."""
    x = np.array(values, dtype=float)
    return np.where(np.isnan(x), np.nan, x)


def array_powers_outcome(expr, rewrite=None):
    """``ast.dump`` of the rewritten body of ``expr``, or the error message."""
    names = {"x1", "x2", "x3"}
    tree = ast.parse(expr, mode="eval")
    try:
        if rewrite is None:
            return "ok", ast.dump(_array_powers(tree.body, expr, names))
        return "ok", ast.dump(rewrite(names, expr).visit(tree.body))
    except ValidationError as exc:
        return "error", str(exc)


def reference_array_powers_outcome(expr):
    return array_powers_outcome(expr, ReferenceArrayPowers)


def finite_real_constant(text):
    """Whether a constant expression evaluates to a finite real number."""
    calls = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            value = eval(text, {"__builtins__": {}}, calls)
        return not isinstance(value, complex) and math.isfinite(value)
    except ArithmeticError:
        return False


def expression_field_or_none(exprs):
    try:
        return ExpressionField(tuple(exprs))
    except ValidationError:  # a complex or non-finite constant
        return None


def any_field(d):
    """An expression, polynomial (1-D) or linear field of dimension d."""
    coeffs = st.floats(-2.0, 2.0)
    kinds = [st.lists(field_expressions(d), min_size=d, max_size=d).map(
                 expression_field_or_none).filter(lambda f: f is not None),
             st.lists(st.lists(coeffs, min_size=d, max_size=d), min_size=d, max_size=d).map(
                 linear)]
    if d == 1:
        kinds.append(st.lists(coeffs, max_size=5).map(poly1d))
    return st.one_of(kinds)


def outcome(fn):
    """``("ok", bytes)`` of fn's result, or ``("error", type)`` of what it raised."""
    try:
        return "ok", fn().tobytes()
    except Exception as exc:  # e.g. IntegrationError
        return "error", type(exc)


class TestIntegrateSegment:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lone_point_equals_its_batch_row(self, data):
        # a lone point runs on Python floats and a batch on arrays, through
        # the same RK4 lines: each point must come out bit for bit as its row
        d = data.draw(st.integers(1, 3), label="d")
        field = data.draw(any_field(d), label="field")
        # enough rows that a rare last-bit difference (libm pow differs from
        # ndarray ** on about 1 in 1 000 squares) shows within a few examples
        lead = data.draw(st.sampled_from([(1,), (7,), (16, 4)]), label="leading shape")
        dt = data.draw(st.sampled_from([0.05, 0.25, -0.1]), label="dt")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-3.0, 3.0),) * d, H, (field,), substeps=2)
        x = np.random.default_rng(seed).uniform(-3.0, 3.0, lead + (d,))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            batch = outcome(lambda: integrate_segment(sys, 0, x, dt))
            alone = [outcome(lambda: integrate_segment(sys, 0, p, dt))
                     for p in x.reshape(-1, d)]
            reference = outcome(lambda: reference_rk4(sys, 0, x, dt))
        assert batch == reference
        if all(kind == "ok" for kind, _ in alone):
            assert batch == ("ok", b"".join(b for _, b in alone))
        else:
            assert batch[0] == "error"
            assert batch[1] in {v for kind, v in alone if kind == "error"}

    def test_field_without_expressions_rejected(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        with pytest.raises(ValidationError, match="needs component expressions"):
            SwitchedSystem(g, ((-1.0, 1.0),), H, (lambda x: -x,))

    @pytest.mark.parametrize("field", [ExpressionField(("x2", "-x1")), linear(((1.0,),))],
                             ids=["two-components", "one-component"])
    def test_field_of_other_dimension_rejected(self, field):
        # a field's compiled loop takes exactly its own number of columns
        g = DirectedGraph.from_edges(1, [(0, 0)])
        with pytest.raises(ValidationError, match="one per box interval"):
            SwitchedSystem(g, ((-1.0, 1.0),) * (3 - len(field.bodies)), H, (field,))

    def test_compiled_loop_namespace(self):
        # the loop and into run under __builtins__: {} and see only the
        # whitelisted functions; a square of a name is inlined as a multiply
        # in the loop and is multiply(a, a) in into, and each finite
        # constant is folded to its float as Python groups it: 1 - 1/1e309
        # is 1.0 with no inf compiled, and ((-2.0)**2 - (2**2)**0.5 - 2) is
        # 0.0
        field = ExpressionField(("sin(x2) / x3**2 - x1**2", "cos(x1) * x3**3 - exp(-x2)",
                                 "x1 / (1.5 + x2**2) - x3 * (1 - 1/1e309)"
                                 " + ((-2.0)**2 - (2**2)**0.5 - 2)"))
        whitelist = {"range", "sin", "cos", "exp", "power", "square", "add", "subtract",
                     "multiply", "divide", "negative", "positive"}
        for compiled in (field.rk4, field.into):
            assert compiled.__globals__["__builtins__"] == {}
            assert set(compiled.__globals__) == {"__builtins__"} | whitelist
            assert set(compiled.__code__.co_names) <= whitelist
        assert "square" not in field.rk4.__code__.co_names
        assert ast.unparse(field.bodies[2]).endswith("x3 * 1.0 + 0.0")
        for compiled in (field.rk4, field.into):
            assert math.inf not in compiled.__code__.co_consts
        assert set(field.into.__code__.co_names) == {"sin", "cos", "exp", "power", "add",
                                                     "subtract", "multiply", "divide",
                                                     "negative"}
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-2.0, 2.0),) * 3, H, (field,), substeps=3)
        x = np.random.default_rng(3).uniform(0.5, 1.5, (50, 3))  # x3 stays away from 0
        for x0 in (x[0], x):
            for dt in (0.25, -0.1):
                assert integrate_segment(sys, 0, x0, dt).tobytes() \
                    == reference_rk4(sys, 0, x0, dt).tobytes()

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("x0", [[0.5], [[0.5], [0.2]]], ids=["lone", "batch"])
    def test_nonfinite_time_rejected(self, dt, x0):
        # an infinite or NaN time has no finite list of breakpoints and no
        # step count
        sys = sys_decay_grow()
        with pytest.raises(ValidationError, match="not finite"):
            integrate_segment(sys, 0, np.array(x0), dt)
        with pytest.raises(ValidationError, match="not finite"):
            switched_flow(sys, dt, np.array(x0), alternating_signal())

    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_nonfinite_lone_state_named_at_time_zero(self, x):
        # no piece runs at dt = 0, and the lone state is refused all the
        # same, as switched_flow and skew_product refuse it at t = 0
        message = re.escape(f"state {x} is not finite")
        for dt in (0.0, -0.0, 0.1):
            with pytest.raises(ValidationError, match=message):
                integrate_segment(PLANE2D, 0, np.array(x), dt)

    def test_empty_box_rejected(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        with pytest.raises(ValidationError, match="at least one interval"):
            SwitchedSystem(g, (), H, (ExpressionField(()),))

    @pytest.mark.parametrize("field", [linear(((0.1, 1.3), (-1.1, -0.4))),
                                       ExpressionField(("x2", "-x1"))], ids=["linear", "expr"])
    @pytest.mark.parametrize("x0", [[0.5], [0.5, 0.1, 0.2], [[0.5, 0.1, 0.2]], np.zeros((2, 5))],
                             ids=["one-column", "three-columns", "batch-of-three", "transposed"])
    def test_state_of_wrong_dimension_rejected(self, field, x0):
        # the compiled loop takes exactly d columns, so a mismatched state
        # must be refused before it is integrated
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),) * 2, H, (field,))
        with pytest.raises(ValidationError, match="system dimension 2"):
            integrate_segment(sys, 0, np.array(x0), 0.1)

    def test_zero_field(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, (ExpressionField(("0.0",)),))
        assert integrate_segment(sys, 0, np.array([0.3]), 0.7)[0] == 0.3

    def test_unit_drift_exact(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-9.0, 9.0),), H, (ExpressionField(("1.0",)),))
        assert integrate_segment(sys, 0, np.array([0.1]), 0.3)[0] == pytest.approx(0.4, abs=1e-14)

    def test_exponential_decay_accuracy(self):
        sys = sys_decay_grow(substeps=100)
        out = integrate_segment(sys, 0, np.array([1.0]), 1.0)
        assert abs(out[0] - math.exp(-1.0)) < 1e-8

    def test_backward_time(self):
        sys = sys_decay_grow(substeps=100)
        out = integrate_segment(sys, 0, np.array([1.0]), -1.0)
        assert abs(out[0] - math.e) < 1e-6

    def test_nonfinite_reported(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1e300, 1e300),), H,
                             (ExpressionField(("x1*x1*x1",)),), substeps=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate_segment(sys, 0, np.array([1e200]), 10.0)

    def test_division_by_zero_reported(self):
        # a lone point divides Python floats, which raise where arrays give
        # inf; rerun as a batch of one, its state turns non-finite
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, (ExpressionField(("1/(x1-0.5)",)),))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate_segment(sys, 0, np.array([0.5]), 0.1)
            with pytest.raises(IntegrationError):
                integrate_segment(sys, 0, np.array([[0.5], [0.2]]), 0.1)

    @pytest.mark.parametrize("expr, x0", [("exp(-1/x1**2)", 0.0), ("1/(x1/0)", 0.5),
                                          ("x1 - 1/(x1/0)", -0.5)])
    def test_division_by_zero_that_turns_finite(self, expr, x0):
        # Python raises on 1/0.0, but float64 gives inf, and exp(-inf) or
        # 1/inf is finite again: a lone point must come out as its batch row
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, (ExpressionField((expr,)),))
        with np.errstate(divide="ignore"):
            alone = integrate_segment(sys, 0, np.array([x0]), 0.1)
            batch = integrate_segment(sys, 0, np.array([[x0], [0.3]]), 0.1)
        assert np.isfinite(alone).all()
        assert alone.tobytes() == batch[0].tobytes()

    def test_batch_overflow_raises_integration_error_without_warning(self):
        # a constant component near 1e308 overflows the final combination
        # 2.0 * k2 + ...: under filterwarnings = error a RuntimeWarning
        # would escape instead, so no errstate is set here
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((0.0, 2.0),), H, (ExpressionField(("1e308",)),))
        for x0 in (np.array([0.5]), np.array([[0.5], [1.5]])):
            with pytest.raises(IntegrationError):
                integrate_segment(sys, 0, x0, 0.1)

    def test_batch_division_by_zero_that_turns_finite_without_warning(self):
        # exp(-1/x1**2) at 0: 1/0.0 is inf and exp(-inf) is 0, with no warning
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, (ExpressionField(("exp(-1/x1**2)",)),))
        out = integrate_segment(sys, 0, np.array([[0.0], [0.3]]), 0.1)
        assert np.isfinite(out).all()
        assert out[0, 0] == 0.0

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("field, d", [
        pytest.param(ExpressionField(("sin(3*x1) - exp(-x1)",)), 1, id="expr-1d"),
        pytest.param(ExpressionField(("x2*exp(-x1*x1)", "sin(x1) - x2**3")), 2, id="expr-2d"),
        pytest.param(ExpressionField(("sin(x2) - x1", "exp(x3)*x1", "x1*x2 - sin(x3)")), 3,
                     id="expr-3d"),
        # a constant column is a float, and an identity column is its argument
        pytest.param(ExpressionField(("x2", "1.0")), 2, id="expr-identity-constant"),
        pytest.param(poly1d((0.3, -1.0, 0.5, -2.0)), 1, id="poly1d"),
        pytest.param(linear(((-0.7,),)), 1, id="linear-1d"),
        pytest.param(linear(((0.1, 1.3), (-1.1, -0.4))), 2, id="linear-2d"),
        pytest.param(linear(((0.2, 1.0, -0.3), (-1.0, 0.1, 0.5), (0.4, -0.6, -0.9))), 3,
                     id="linear-3d"),
        # into's buffers: bare coordinates and constants are copied into
        # their stage buffers, nested calls write one buffer in turn, and
        # nested products hold three temporaries at once
        pytest.param(ExpressionField(("x2", "x1")), 2, id="expr-swap"),
        pytest.param(ExpressionField(("1.0", "2")), 2, id="expr-constants"),
        pytest.param(ExpressionField(("sin(cos(x1))",)), 1, id="expr-nested-calls"),
        pytest.param(ExpressionField(("x2**3", "(1.5 + x1*x1)**-0.5 - x2**2.0 * x1")), 2,
                     id="expr-non-square-powers"),
        pytest.param(ExpressionField(("x3", "-0.5",
                                      "(x1*x2 + x2*x1) * (x1*x1 - sin(x2)*exp(x1))")), 3,
                     id="expr-temporaries"),
    ])
    def test_stacked_equals_per_slice(self, field, d, backward, rng):
        # the chain builder flows many prefixes' images in one call: each
        # slice of a stacked (P, N, d) input, and each lone point, must come
        # out bit for bit as if flowed alone, forward or backward in time
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),) * d, H, (field,), substeps=7)
        dt = -0.1 if backward else 0.25  # poly1d's -2 x**3 blows up backward by 0.17
        stacked = rng.uniform(-1.2, 1.2, size=(5, 1001, d))
        out = integrate_segment(sys, 0, stacked, dt)
        alone = np.stack([integrate_segment(sys, 0, x, dt) for x in stacked])
        lone = np.stack([integrate_segment(sys, 0, p, dt) for p in stacked[0, :64]])
        assert out.shape == stacked.shape
        assert out.tobytes() == alone.tobytes()
        assert out[0, :64].tobytes() == lone.tobytes()
        assert out.tobytes() == reference_rk4(sys, 0, stacked, dt).tobytes()

    @pytest.mark.parametrize("layout", ["points", "stacked", "strided", "sliced", "fortran"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_input_never_written(self, d, layout, rng):
        # a batch runs in place on a copy of its coordinate rows; a (..., 1)
        # C-ordered input, or a Fortran-ordered (N, d) one, already has that
        # copy's layout, so a copy made only where the layout differs would
        # write the caller's array
        g = DirectedGraph.from_edges(1, [(0, 0)])
        field = ExpressionField(tuple(f"x{i % d + 1} - 0.5 * x{i}" for i in range(1, d + 1)))
        sys = SwitchedSystem(g, ((-1.0, 1.0),) * d, H, (field,), substeps=3)
        base = rng.uniform(-1.0, 1.0, {"points": (30, d), "stacked": (4, 30, d),
                                       "strided": (60, d + 2), "sliced": (4, 30, d),
                                       "fortran": (30, d)}[layout])
        if layout == "fortran":
            base = np.asfortranarray(base)
        x = {"strided": base[::2, 1:1 + d], "sliced": base[1:3, 5:25]}.get(layout, base)
        before = base.copy()
        out = integrate_segment(sys, 0, x, 0.25)
        assert base.tobytes() == before.tobytes()
        assert not np.shares_memory(out, base)
        assert out.tobytes() == reference_rk4(sys, 0, x, 0.25).tobytes()

    def test_rk4_fourth_order(self):
        errs = []
        for substeps in (10, 20, 40):
            sys = sys_decay_grow(substeps=substeps)
            out = integrate_segment(sys, 0, np.array([1.0]), 1.0)
            errs.append(abs(out[0] - math.exp(-1.0)))
        for e1, e2 in zip(errs, errs[1:]):
            assert 8.0 <= e1 / e2 <= 32.0  # nominal factor 16 within x2


class TestSwitchedFlow:
    def test_uniform_drift_any_signal(self, rng):
        g = DirectedGraph.complete(2)
        sys = SwitchedSystem(g, ((-9.0, 9.0),), H,
                             (ExpressionField(("1.0",)), ExpressionField(("1.0",))))
        f = random_signal(g, rng, H)
        out = switched_flow(sys, 2 * H, np.array([0.0]), f)
        assert out[0] == pytest.approx(2 * H, abs=1e-13)

    def test_piecewise_constant_velocities(self):
        g = DirectedGraph.complete(2)
        sys = SwitchedSystem(g, ((-9.0, 9.0),), H,
                             (ExpressionField(("0.0",)), ExpressionField(("1.0",))))
        f = alternating_signal()
        out = switched_flow(sys, 2 * H, np.array([0.25]), f)
        assert out[0] == pytest.approx(0.25 + H, abs=1e-13)

    def test_state_of_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError, match="system dimension 1"):
            switched_flow(sys_decay_grow(), 2 * H, np.array([0.5, 0.1]), alternating_signal())

    @pytest.mark.parametrize("x0", [[0.5, 0.1], 0.5], ids=["two-columns", "scalar"])
    def test_state_of_wrong_dimension_rejected_at_time_zero(self, x0):
        # no segment runs at t = 0, so switched_flow checks the state itself
        with pytest.raises(ValidationError, match="system dimension 1"):
            switched_flow(sys_decay_grow(), 0.0, np.array(x0), alternating_signal())

    def test_decay_grow_cancellation(self):
        sys = sys_decay_grow()
        f = alternating_signal()
        out = switched_flow(sys, 2 * H, np.array([1.0]), f)
        assert abs(out[0] - 1.0) < 1e-7

    def test_cocycle_property(self, rng):
        sys = sys_decay_grow()
        g = sys.graph
        worst = 0.0
        for _ in range(100):
            f = random_signal(g, rng, H)
            x0 = np.array([float(rng.uniform(-1, 1))])
            s, t = (float(v) for v in rng.uniform(0.0, 3 * H, 2))
            direct = switched_flow(sys, t + s, x0, f)
            stacked = switched_flow(sys, t, switched_flow(sys, s, x0, f), shift(f, s))
            worst = max(worst, abs(float(direct[0] - stacked[0])))
        assert worst <= 1e-6

    def test_backward_consistency(self, rng):
        sys = sys_decay_grow()
        g = sys.graph
        for _ in range(50):
            f = random_signal(g, rng, H)
            x0 = np.array([float(rng.uniform(-1, 1))])
            t = float(rng.uniform(0.0, 4 * H))
            forth = switched_flow(sys, t, x0, f)
            back = switched_flow(sys, -t, forth, shift(f, t))
            assert abs(float(back[0] - x0[0])) <= 1e-6

    def test_sensitivity_envelope(self, rng):
        # finite-difference growth over one cell stays under exp(L*h) + 0.1
        sys = sys_decay_grow()
        g = sys.graph
        lipschitz = 1.0  # |d/dx (+-x)| = 1
        envelope = math.exp(lipschitz * H) + 0.1
        for _ in range(20):
            f = random_signal(g, rng, H)
            x0 = float(rng.uniform(-1, 1))
            d = 1e-6
            hi = switched_flow(sys, H, np.array([x0 + d]), f)
            lo = switched_flow(sys, H, np.array([x0 - d]), f)
            assert abs(float(hi[0] - lo[0])) / (2 * d) <= envelope

    def test_batched_initial_conditions(self):
        # a batch runs all its pieces on one copy: bit for bit the per-piece
        # batch of the reference and each state flowed alone, and the
        # caller's array is never written
        sys = sys_decay_grow()
        f = shift(alternating_signal(), 0.04)
        xs = np.linspace(-1, 1, 7)[:, None]
        before = xs.copy()
        for t in (3 * H, -3.5 * H, 5.25 * H):
            out = switched_flow(sys, t, xs, f)
            assert len(f.pieces(t)) >= 3
            assert out.shape == (7, 1)
            assert xs.tobytes() == before.tobytes()
            assert not np.shares_memory(out, xs)
            assert out.tobytes() == reference_switched_flow(sys, t, xs, f).tobytes()
            assert out.tobytes() == np.stack([switched_flow(sys, t, x, f) for x in xs]).tobytes()


class TestSkewProduct:
    def test_time_zero_identity(self):
        sys = sys_decay_grow()
        st0 = HybridState((0.5,), alternating_signal())
        out = skew_product(sys, 0.0, st0)
        assert out.x == st0.x
        assert metric_delta(out.f, st0.f, 1e-10) == 0.0

    def test_flow_composition(self):
        sys = sys_decay_grow()
        st0 = HybridState((0.5,), alternating_signal())
        once = skew_product(sys, 2 * H, st0)
        twice = skew_product(sys, H, skew_product(sys, H, st0))
        assert abs(once.x[0] - twice.x[0]) <= 1e-7
        assert metric_delta(once.f, twice.f, 1e-10) <= 1e-9

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(ValidationError, match="not finite"):
            skew_product(sys_decay_grow(), t, HybridState((0.5,), alternating_signal()))

    def test_signal_part_is_plain_shift(self, rng):
        sys = sys_decay_grow()
        g = sys.graph
        f = random_signal(g, rng, H)
        t = float(rng.uniform(-1, 1))
        out = skew_product(sys, t, HybridState((0.1,), f))
        expected = shift(f, t)
        assert all(out.f.value_at(u) == expected.value_at(u)
                   for u in rng.uniform(-2, 2, 40))


PLANE2D = ExperimentConfig.from_dict(json.loads(
    (Path(__file__).resolve().parents[1] / "scripts" / "configs" / "plane2d.json").read_text())).system


def signal_literal():
    """Signal literals over plane2d's labels with a phase tau in (0, h)."""
    def word(min_size):
        return st.lists(st.sampled_from("AB"), min_size=min_size, max_size=4).map(" ".join)

    return st.builds(
        lambda left, core, right, k, tau: (f"left=({left}) core=[{core}] right=({right}) "
                                           f"shift={k} tau={tau!r}"),
        word(1), word(0), word(1), st.integers(-3, 3),
        st.floats(0.0, PLANE2D.step, exclude_min=True, exclude_max=True))


class TestLonePath:
    @settings(max_examples=100, deadline=None)
    @given(literal=signal_literal(), t=st.floats(-0.6, 0.6),
           x=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
    def test_lone_state_equals_batch_of_one_per_piece(self, literal, t, x):
        # one lone state runs every piece of its switched flow on Python
        # floats; each piece must give the bits of the piece flowed as a
        # batch of one, forward and backward, under both plane2d fields
        f = parse_signal(PLANE2D.graph, literal, default_h=PLANE2D.step)
        want = reference_switched_flow(PLANE2D, t, x, f)
        got = skew_product(PLANE2D, t, HybridState(x, f))
        assert np.array(got.x).tobytes() == want.tobytes()
        assert switched_flow(PLANE2D, t, np.array(x), f).tobytes() == want.tobytes()
        assert switched_flow(PLANE2D, t, list(x), f).tobytes() == want.tobytes()
        assert got.f == shift(f, t)

    @pytest.mark.parametrize("fields", [PLANE2D.fields, (ExpressionField(("sin(x2)", "-x1")),
                                                         ExpressionField(("x2", "exp(-x1)")))],
                             ids=["plane2d", "sin-exp"])
    @pytest.mark.parametrize("x", [(1, 0), (np.float64(0.5), np.float64(-0.25)), (0.5, -0.25)],
                             ids=["int", "float64", "float"])
    @pytest.mark.parametrize("t", [0.0, 0.3, -0.2])
    def test_hybrid_state_holds_python_floats(self, fields, x, t):
        # coordinates enter through float(), and a field with sin, exp or
        # power, which returns numpy floats, still gives Python floats
        sys = SwitchedSystem(PLANE2D.graph, PLANE2D.box, PLANE2D.step, fields)
        f = sigma_embed(periodic_sequence(sys.graph, (0, 1)), sys.step)
        out = skew_product(sys, t, HybridState(x, f))
        assert [type(v) for v in out.x] == [float, float]
        assert np.array(out.x).tobytes() == reference_switched_flow(sys, t, x, f).tobytes()

    @pytest.mark.parametrize("expr, x0, outcome_type", [
        ("1/x1", 0.0, IntegrationError), ("exp(-1/x1**2)", 0.0, None)])
    def test_division_by_zero_reruns_as_batch_of_one(self, monkeypatch, expr, x0, outcome_type):
        # Python floats raise on 1/0.0, where float64 gives inf: the piece is
        # rerun as a batch of one, whose state turns non-finite (1/x1) or
        # finite again (exp(-inf) is 0)
        batches = []
        run = flow._flow

        def recording_flow(sys, x, pieces):
            batches.append(np.shape(x))
            return run(sys, x, pieces)

        monkeypatch.setattr(flow, "_flow", recording_flow)
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, (ExpressionField((expr,)),))
        f = sigma_embed(constant_sequence(g, 0), H)
        with np.errstate(divide="ignore", invalid="ignore"):
            if outcome_type is None:
                out = skew_product(sys, 0.5 * H, HybridState((x0,), f))
                assert np.array(out.x).tobytes() \
                    == reference_switched_flow(sys, 0.5 * H, (x0,), f).tobytes()
            else:
                with pytest.raises(outcome_type, match="non-finite under field 0"):
                    skew_product(sys, 0.5 * H, HybridState((x0,), f))
        assert batches == [(1, 1)]

    @pytest.mark.parametrize("x, shape", [((0.5,), "(1,)"), ((0.5, 0.1, 0.2), "(3,)"),
                                          (0.5, "()"), ((), "(0,)")])
    def test_state_of_wrong_dimension_rejected(self, x, shape):
        f = sigma_embed(periodic_sequence(PLANE2D.graph, (0, 1)), PLANE2D.step)
        for t in (0.0, 0.3):
            with pytest.raises(ValidationError) as info:
                skew_product(PLANE2D, t, HybridState(x, f))
            assert str(info.value) == f"state of shape {shape} does not end in the system dimension 2"

    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_nonfinite_state_named(self, x):
        # a non-finite state is refused on entry, naming it, before any
        # piece runs and at t = 0 too, where no piece runs
        f = sigma_embed(periodic_sequence(PLANE2D.graph, (0, 1)), PLANE2D.step)
        message = re.escape(f"state {x} is not finite")
        for t in (0.0, 0.3, -0.3):
            with pytest.raises(ValidationError, match=message):
                skew_product(PLANE2D, t, HybridState(x, f))
            with pytest.raises(ValidationError, match=message):
                switched_flow(PLANE2D, t, np.array(x), f)
        finite = HybridState((0.0, 0.0), f)
        for a, b in ((HybridState(x, f), finite), (finite, HybridState(x, f))):
            with pytest.raises(ValidationError, match=message):
                product_metric(a, b, 1e-10)


# either sign, magnitudes from 1e-200 to 1e200, and zero
_COORDINATE = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-200, 199)))


def _rounded_distance(xa, xb) -> float:
    """The square root of the sum of squares of the float differences
    ``u - v``, taken in decimal at 120 digits and rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        return float(sum(decimal.Decimal(u - v) ** 2 for u, v in zip(xa, xb)).sqrt())


class TestProductMetric:
    def test_zero_on_equal(self):
        st0 = HybridState((0.5,), alternating_signal())
        assert product_metric(st0, st0, 1e-10) == 0.0

    def test_state_distance_only(self):
        f = alternating_signal()
        a, b = HybridState((0.0,), f), HybridState((0.5,), f)
        assert product_metric(a, b, 1e-10) == pytest.approx(0.5, abs=1e-12)

    def test_distance_that_overflows_is_not_refused(self):
        # both states are finite; only their distance exceeds the floats
        f = alternating_signal()
        a, b = HybridState((1e308,), f), HybridState((-1e308,), f)
        assert product_metric(a, b, 1e-10) == math.inf
        # the sum of squares overflows, where the distance does not: hypot
        # squares nothing, and returns the distance sqrt(5) * 1e200
        a, b = HybridState((1e200, 1e200), f), HybridState((-1e200, 0.0), f)
        assert product_metric(a, b, 1e-10) == 2.2360679774997897e+200

    def test_states_of_different_dimension_rejected(self):
        # numpy would broadcast (0.5,) against (0.1, 0.2) and return 0.5
        f = alternating_signal()
        with pytest.raises(ValidationError, match="differ in dimension"):
            product_metric(HybridState((0.5,), f), HybridState((0.1, 0.2), f))
        with pytest.raises(ValidationError) as info:
            product_metric(HybridState((0.5, 0.1, 0.2), f), HybridState((0.1, 0.2), f))
        assert str(info.value) == "states of 3 and 2 coordinates differ in dimension"

    def test_sum_of_parts(self):
        g = DirectedGraph.complete(2)
        fa = sigma_embed(constant_sequence(g, 0), H)
        fb = sigma_embed(constant_sequence(g, 1), H)
        a, b = HybridState((0.0,), fa), HybridState((0.5,), fb)
        assert product_metric(a, b, 1e-10) == pytest.approx(0.5 + 5.0 / 3.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_state_part_is_correctly_rounded(self, data):
        # equal signals, so delta is 0 and the metric is the state part alone;
        # each coordinate of b is drawn apart from a's or close to it
        d = data.draw(st.integers(1, 3))
        xa = data.draw(st.lists(_COORDINATE, min_size=d, max_size=d))
        xb = [data.draw(st.one_of(_COORDINATE, st.floats(-1e-6, 1e-6).map(lambda r: u + u * r)))
              for u in xa]
        f = alternating_signal()
        a, b = HybridState(tuple(xa), f), HybridState(tuple(xb), f)
        distance = product_metric(a, b, 1e-10)
        assert distance == _rounded_distance(xa, xb)
        assert product_metric(b, a, 1e-10) == distance

    def test_distinct_tiny_states_are_apart(self):
        # the squares of 1e-200 underflow to 0; the distance does not
        f = alternating_signal()
        for x in ((1e-200,), (1e-200, 0.0), (3e-200, 0.0, 4e-200)):
            a, b = HybridState(x, f), HybridState((0.0,) * len(x), f)
            assert product_metric(a, b, 1e-10) == _rounded_distance(x, b.x) > 0.0

    def test_point_that_is_not_flat_refused(self):
        f = alternating_signal()
        flat = HybridState((0.5,), f)
        for x in (((0.5,),), 0.5, np.array([[0.5]]), "0.5"):
            for a, b in ((HybridState(x, f), flat), (flat, HybridState(x, f))):
                with pytest.raises(ValidationError, match="is not a sequence of numbers"):
                    product_metric(a, b, 1e-10)
