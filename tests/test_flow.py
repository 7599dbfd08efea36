import ast
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchflow.fields import (
    ExpressionField,
    LinearField,
    PolynomialField1D,
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
from switchflow.sequences import constant_sequence, periodic_sequence
from switchflow.signals import metric_delta, shift, sigma_embed

from conftest import random_signal

H = 0.1


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
        out = f(x)
        assert out.shape == (2, 1)
        assert out[0, 0] == pytest.approx(-0.375)
        assert out[1, 0] == pytest.approx(0.375)

    def test_expression_functions(self):
        f = ExpressionField(("sin(x1) + exp(x2)", "x1"))
        val = f(np.array([0.0, 0.0]))[0]
        assert float(val) == pytest.approx(1.0)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ValidationError):
            ExpressionField(("__import__('os')",))
        with pytest.raises(ValidationError):
            ExpressionField(("x3", "x1"))

    def test_polynomial(self):
        f = PolynomialField1D((0.0, -1.0))  # -x
        assert f(np.array([2.0]))[0] == pytest.approx(-2.0)

    def test_linear(self):
        f = LinearField(((0.0, 1.0), (-1.0, 0.0)))
        out = f(np.array([1.0, 0.0]))
        assert out == pytest.approx(np.array([0.0, -1.0]))

    def test_from_config_forms(self):
        assert isinstance(field_from_config("-x1", 1), ExpressionField)
        assert isinstance(field_from_config({"type": "poly1d", "coeffs": [0, -1]}, 1),
                          PolynomialField1D)
        assert isinstance(field_from_config({"type": "linear", "matrix": [[0.0]]}, 1),
                          LinearField)
        with pytest.raises(ValidationError):
            field_from_config({"type": "nope"}, 1)

    @pytest.mark.parametrize("expr, base", [
        ("x1**2", lambda x: x), ("x1**2.0", lambda x: x), ("(x1-1)**2", lambda x: x - 1)])
    def test_square_equals_np_power(self, expr, base):
        # x**2 compiles to x*x; numpy's power computes exponent 2 the same
        # way, for arrays and scalars, up to overflow to inf
        field = ExpressionField((expr,))
        assert "square" in field.columns.__code__.co_names
        rng = np.random.default_rng(5)
        exponents = np.repeat(np.arange(-300, 161, 4), 2000)
        x = rng.choice([-1.0, 1.0], exponents.size) * rng.uniform(1.0, 10.0, exponents.size) \
            * 10.0 ** exponents.astype(float)
        with np.errstate(over="ignore", under="ignore"):
            want = np.power(base(x), 2)
            (got,) = field.columns(x)
            assert got.tobytes() == want.tobytes()
            lone = x[::20]
            assert np.array([field.columns(v)[0] for v in lone.tolist()]).tobytes() \
                == want[::20].tobytes()
            assert np.array([field.columns(v)[0] for v in lone]).tobytes() \
                == want[::20].tobytes()
        assert np.isinf(want).any()

    @pytest.mark.parametrize("expr", ["x1**3", "x1**0.5", "x1**x2", "2.0**x1"])
    def test_other_variable_powers_use_np_power(self, expr):
        names = ExpressionField((expr, "x2")).columns.__code__.co_names
        assert "power" in names and "square" not in names

    def test_finite_constant_powers_kept(self):
        field = ExpressionField(("x1 * 2**0.5 + (-2.0)**2 + 2**-1 + (-8)**3",))
        assert "power" not in field.columns.__code__.co_names
        assert field.columns(1.0) == (2**0.5 + (-2.0)**2 + 2**-1 + (-8)**3,)

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
            got = field(x)
        assert got.shape == want.shape == x.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_lone_point_nan_sign_matches_batch_row(self):
        # for x1 < 0, x1**x1 is a NaN with the sign set and its negation one
        # with the sign clear; numpy's scalar + and its array loop return
        # different ones of the two, so a lone point runs as a batch of one
        exprs = ("x1", "((x1)**x1 + -(x1)**x1)")
        field, reference = ExpressionField(exprs), per_component_field(exprs, 2)
        with np.errstate(all="ignore"):
            for seed in range(40):
                x = np.random.default_rng(seed).uniform(-3.0, 3.0, (2,))
                assert field(x).tobytes() == reference(x).tobytes()


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


def per_component_field(expressions, d):
    """The evaluator ExpressionField replaced: one eval per component, each
    broadcast to the leading shape, then stacked.  A lone point is evaluated
    as a batch of one, since numpy scalars would take libm's ``pow``."""
    calls = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
    codes = [compile(ast.parse(e, mode="eval"), "<field>", "eval") for e in expressions]

    def field(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return field(x[None])[0]
        env = {f"x{i + 1}": x[..., i] for i in range(d)}
        return np.stack([np.broadcast_to(np.asarray(
            eval(code, {"__builtins__": {}}, {**calls, **env}), dtype=float), x.shape[:-1])
            for code in codes], axis=-1)

    return field


def any_field(d):
    """An expression, polynomial (1-D) or linear field of dimension d."""
    coeffs = st.floats(-2.0, 2.0)
    kinds = [st.lists(field_expressions(d), min_size=d, max_size=d).map(
                 expression_field_or_none).filter(lambda f: f is not None),
             st.lists(st.lists(coeffs, min_size=d, max_size=d), min_size=d, max_size=d).map(
                 lambda m: LinearField(tuple(map(tuple, m))))]
    if d == 1:
        kinds.append(st.lists(coeffs, max_size=5).map(lambda c: PolynomialField1D(tuple(c))))
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
        if all(kind == "ok" for kind, _ in alone):
            assert batch == ("ok", b"".join(b for _, b in alone))
        else:
            assert batch[0] == "error"
            assert batch[1] in {v for kind, v in alone if kind == "error"}

    def test_field_without_columns_rejected(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        with pytest.raises(ValidationError, match="columns"):
            SwitchedSystem(g, ((-1.0, 1.0),), H, (lambda x: -x,))

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

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("field, d", [
        pytest.param(ExpressionField(("sin(3*x1) - exp(-x1)",)), 1, id="expr-1d"),
        pytest.param(ExpressionField(("x2*exp(-x1*x1)", "sin(x1) - x2**3")), 2, id="expr-2d"),
        pytest.param(ExpressionField(("sin(x2) - x1", "exp(x3)*x1", "x1*x2 - sin(x3)")), 3,
                     id="expr-3d"),
        pytest.param(PolynomialField1D((0.3, -1.0, 0.5, -2.0)), 1, id="poly1d"),
        pytest.param(LinearField(((-0.7,),)), 1, id="linear-1d"),
        pytest.param(LinearField(((0.1, 1.3), (-1.1, -0.4))), 2, id="linear-2d"),
        pytest.param(LinearField(((0.2, 1.0, -0.3), (-1.0, 0.1, 0.5), (0.4, -0.6, -0.9))), 3,
                     id="linear-3d"),
    ])
    def test_stacked_equals_per_slice(self, field, d, backward, rng):
        # the chain builder flows many prefixes' images in one call: each
        # slice of a stacked (P, N, d) input must come out bit for bit as if
        # flowed alone, forward or backward in time
        g = DirectedGraph.from_edges(1, [(0, 0)])
        sys = SwitchedSystem(g, ((-1.0, 1.0),) * d, H, (field,), substeps=7)
        dt = -0.1 if backward else 0.25  # poly1d's -2 x**3 blows up backward by 0.17
        stacked = rng.uniform(-1.2, 1.2, size=(5, 1001, d))
        out = integrate_segment(sys, 0, stacked, dt)
        alone = np.stack([integrate_segment(sys, 0, x, dt) for x in stacked])
        assert out.shape == stacked.shape
        assert out.tobytes() == alone.tobytes()

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
        sys = sys_decay_grow()
        f = alternating_signal()
        xs = np.linspace(-1, 1, 7)[:, None]
        out = switched_flow(sys, 3 * H, xs, f)
        assert out.shape == (7, 1)
        single = switched_flow(sys, 3 * H, xs[2], f)
        assert out[2, 0] == pytest.approx(single[0], abs=1e-14)


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

    def test_signal_part_is_plain_shift(self, rng):
        sys = sys_decay_grow()
        g = sys.graph
        f = random_signal(g, rng, H)
        t = float(rng.uniform(-1, 1))
        out = skew_product(sys, t, HybridState((0.1,), f))
        expected = shift(f, t)
        assert all(out.f.value_at(u) == expected.value_at(u)
                   for u in rng.uniform(-2, 2, 40))


class TestProductMetric:
    def test_zero_on_equal(self):
        st0 = HybridState((0.5,), alternating_signal())
        assert product_metric(st0, st0, 1e-10) == 0.0

    def test_state_distance_only(self):
        f = alternating_signal()
        a, b = HybridState((0.0,), f), HybridState((0.5,), f)
        assert product_metric(a, b, 1e-10) == pytest.approx(0.5, abs=1e-12)

    def test_sum_of_parts(self):
        g = DirectedGraph.complete(2)
        fa = sigma_embed(constant_sequence(g, 0), H)
        fb = sigma_embed(constant_sequence(g, 1), H)
        a, b = HybridState((0.0,), fa), HybridState((0.5,), fb)
        assert product_metric(a, b, 1e-10) == pytest.approx(0.5 + 5.0 / 3.0, abs=1e-9)
