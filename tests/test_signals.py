import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchflow.graph import DirectedGraph, ValidationError, scc
from switchflow.literals import format_signal, parse_signal
from switchflow.sequences import (
    SymbolicSequence,
    constant_sequence,
    metric_omega,
    periodic_sequence,
    shift_discrete,
    transitive_sequence,
    truncation_order,
)
from switchflow.signals import (
    SwitchingSignal,
    continuity_gap,
    lift_membership,
    metric_delta,
    sensitivity_witness,
    shift,
    sigma_embed,
    stitch_signals,
    witness_window,
)

from conftest import (
    random_sequence,
    random_signal,
    random_strong_graph,
    reference_continuity_gap,
    reference_metric_delta,
    reference_metric_omega,
    reference_pieces,
    reference_sensitivity_witness,
    sequence_fields,
)

H = 0.1


def alternating(h=H):
    g = DirectedGraph.complete(2)
    return sigma_embed(periodic_sequence(g, (0, 1)), h)


class TestValueAt:
    def test_constant(self):
        g = DirectedGraph.complete(2)
        f = sigma_embed(constant_sequence(g, 0), H)
        assert all(f.value_at(t) == 0 for t in np.linspace(-3, 3, 50))

    def test_cell_lookup(self):
        f = alternating()
        assert f.value_at(H / 2) == 0
        assert f.value_at(3 * H / 2) == 1
        assert f.value_at(0.0) == 0  # right-continuous at the boundary
        assert f.value_at(H) == 1

    def test_offset_evaluation(self):
        f = shift(alternating(), H / 2)  # value_at(s) = base(s + h/2)
        # cell covering [-h/2, h/2) carries the symbol of base cell 0
        assert f.value_at(H / 4) == alternating().value_at(H / 4 + H / 2)

    def test_offset_normalized(self):
        f = alternating()
        for t in (0.3, -0.7, 1.23, -H / 3):
            s = shift(f, t)
            assert 0.0 <= s.offset < s.step


class TestShiftFlow:
    def test_identity(self):
        f = alternating()
        assert shift(f, 0.0) is f

    def test_values_translate(self, rng):
        g = random_strong_graph(rng, 3)
        for _ in range(20):
            f = random_signal(g, rng, H)
            t = float(rng.uniform(-1.0, 1.0))
            s = shift(f, t)
            for u in rng.uniform(-2.0, 2.0, 25):
                assert s.value_at(u) == f.value_at(u + t)

    def test_flow_law_exact_on_values(self, rng):
        g = random_strong_graph(rng, 3)
        f = random_signal(g, rng, H)
        a, b = 0.37, -0.61
        lhs = shift(shift(f, a), b)
        rhs = shift(f, a + b)
        for u in rng.uniform(-3.0, 3.0, 200):
            assert lhs.value_at(u) == rhs.value_at(u)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_nonfinite_cell_count_rejected(self, t):
        # inf, nan, and a time whose count of cells h = 0.1 overflows
        f = alternating()
        with pytest.raises(ValidationError, match="not a finite number of cells") as shifted:
            shift(f, t)
        with pytest.raises(ValidationError) as gap:
            continuity_gap(f, f, t)
        assert str(gap.value) == str(shifted.value)

    @pytest.mark.parametrize("tau, t", [
        (0.09126219336408857, 7.08233703646486e16),
        (0.014924534454025785, -3.83836025899679e18),
        (0.06406309611072321, -1.088221295391152e21),
    ])
    def test_time_beyond_the_phase_resolution_rejected(self, tau, t):
        # at these |t| the remainder t - k*h rounds by more than a cell, so
        # no phase in [0, h) is left: a named error, not an offset check
        g = DirectedGraph.complete(2)
        f = parse_signal(g, f"left=(0) core=[1 0 1] right=(1 0) tau={tau!r} h=0.1")
        message = f"^shift time {re.escape(repr(t))} leaves no representable phase"
        with pytest.raises(ValidationError, match=message):
            shift(f, t)
        with pytest.raises(ValidationError, match=message):
            continuity_gap(f, f, t)

    def test_shift_by_step_matches_discrete(self):
        g = DirectedGraph.complete(2)
        x = periodic_sequence(g, (0, 1))
        lhs = shift(sigma_embed(x, H), H)
        rhs = sigma_embed(shift_discrete(x, 1), H)
        for u in np.linspace(-2, 2, 101):
            assert lhs.value_at(u) == rhs.value_at(u)


class TestPieces:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([0.1, 1 / 6, 0.3, 1.0, 7.0]),
           tau=st.floats(0.0, 1.0, exclude_max=True),
           cells=st.one_of(st.floats(-1000.0, 1000.0), st.integers(-1000, 1000)))
    def test_walk_equals_reference(self, seed, h, tau, cells):
        # the signal walks its own cells as flow walked them: the same
        # breakpoints, the same vertex at each piece's midpoint, forward and
        # backward, for |t| up to 1 000 cells and at whole cells
        rng = np.random.default_rng(seed)
        f = SwitchingSignal(random_sequence(random_strong_graph(rng, 3), rng), tau * h, h)
        t = cells * h
        pieces = f.pieces(t)
        assert pieces == reference_pieces(f, t)
        assert math.fsum(dt for _, dt in pieces) == pytest.approx(t, rel=1e-9, abs=1e-12)
        assert all(dt != 0.0 and (dt > 0) == (t > 0) for _, dt in pieces)


class TestSigmaEmbedding:
    def test_isometry(self, rng):
        g = random_strong_graph(rng, 3)
        tol = 1e-10
        for _ in range(40):
            x, y = random_sequence(g, rng), random_sequence(g, rng)
            d_seq = metric_omega(x, y, tol)
            d_sig = metric_delta(sigma_embed(x, H), sigma_embed(y, H), tol)
            assert abs(d_seq - d_sig) <= 2 * tol

    def test_conjugacy_window(self, rng):
        g = random_strong_graph(rng, 3)
        x = random_sequence(g, rng)
        ts = rng.uniform(-3.0, 3.0, 50)
        for n in range(-5, 6):
            lhs = shift(sigma_embed(x, H), n * H)
            rhs = sigma_embed(shift_discrete(x, n), H)
            assert all(lhs.value_at(t) == rhs.value_at(t) for t in ts)


class TestMetricDelta:
    def test_identity_exact_zero(self, rng):
        g = random_strong_graph(rng, 3)
        f = random_signal(g, rng, H)
        assert metric_delta(f, f, 1e-10) == 0.0

    def test_everywhere_different(self):
        g = DirectedGraph.complete(2)
        f = sigma_embed(constant_sequence(g, 0), H)
        s = sigma_embed(constant_sequence(g, 1), H)
        assert metric_delta(f, s, 1e-10) == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_half_offset_alternating(self):
        f = alternating()
        s = shift(f, H / 2)
        assert metric_delta(f, s, 1e-10) == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_symmetry_bit_exact(self, rng):
        g = random_strong_graph(rng, 3)
        for _ in range(20):
            f, s = random_signal(g, rng, H), random_signal(g, rng, H)
            assert metric_delta(f, s, 1e-9) == metric_delta(s, f, 1e-9)

    def test_mixed_step_rejected(self):
        g = DirectedGraph.complete(2)
        f = sigma_embed(constant_sequence(g, 0), 0.1)
        s = sigma_embed(constant_sequence(g, 0), 0.2)
        with pytest.raises(ValidationError):
            metric_delta(f, s)

    def test_bad_tol_rejected(self):
        f = alternating()
        with pytest.raises(ValidationError):
            metric_delta(f, f, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, 3)
        tol = 1e-9
        f1, f2, f3 = (random_signal(g, rng, H) for _ in range(3))
        d13 = metric_delta(f1, f3, tol)
        assert d13 <= metric_delta(f1, f2, tol) + metric_delta(f2, f3, tol) + 3 * tol

    def test_matches_sampling_oracle(self, rng):
        # independent route: dense midpoint sampling instead of breakpoint
        # integration; they may differ only near cell-internal breakpoints
        samples_per_cell = 2000
        n_cells = 12
        weights_tail = 2.0 * 4.0 ** (-n_cells) / 3.0

        def sampled_distance(f, s):
            total = 0.0
            for i in range(-n_cells, n_cells + 1):
                ts = (i + (np.arange(samples_per_cell) + 0.5) / samples_per_cell) * H
                hits = sum(f.value_at(t) != s.value_at(t) for t in ts)
                total += (hits / samples_per_cell) * 4.0 ** (-abs(i))
            return total

        g = random_strong_graph(rng, 3)
        for _ in range(3):
            f, s = random_signal(g, rng, H), random_signal(g, rng, H)
            exact = metric_delta(f, s, 1e-12)
            approx = sampled_distance(f, s)
            sampling_slack = 4.0 * (5.0 / 3.0) / samples_per_cell
            assert abs(exact - approx) <= sampling_slack + weights_tail


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_breakpoint_integration(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = random_strong_graph(rng, data.draw(st.integers(2, 4), label="n"))
        h = data.draw(st.sampled_from([0.1, 0.3, 1.0, 1e-3, 7.0]), label="h")
        x = random_sequence(g, rng)
        y = (random_sequence(g, rng) if data.draw(st.booleans(), label="fresh")
             else shift_discrete(x, data.draw(st.integers(-3, 3), label="k")))
        phase = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                          st.sampled_from([0.5, 1e-16, 1.0 - 2.0 ** -52]))
        tau_x = data.draw(phase, label="tau_x") * h
        tau_y = tau_x if data.draw(st.booleans(), label="same phase") \
            else data.draw(phase, label="tau_y") * h
        f, s = SwitchingSignal(x, tau_x, h), SwitchingSignal(y, tau_y, h)
        tol = data.draw(st.sampled_from([1e-9, 1e-10, 1e-12]), label="tol")
        d = metric_delta(f, s, tol)
        assert abs(d - breakpoint_metric_delta(f, s, tol)) <= 1e-15
        assert metric_delta(s, f, tol) == d

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-3, 3),
           h=st.sampled_from([0.1, 0.3, 1.0, 7.0]), tol=st.sampled_from([1e-9, 1e-12]))
    def test_phase_aligned_equals_symbolic_sum(self, seed, k, h, tol):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, 3)
        x = random_sequence(g, rng)
        for y in (random_sequence(g, rng), shift_discrete(x, k)):
            n = truncation_order(tol)
            exact = sum(4.0 ** -abs(i) for i in range(-n, n + 1) if x.at(i) != y.at(i))
            assert metric_delta(sigma_embed(x, h), sigma_embed(y, h), tol) == exact

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_per_cell_lookups(self, data):
        # metric_delta reads each base once as a window; it must give the
        # bits of the per-cell at() loop it replaced
        n = data.draw(st.integers(2, 3), label="n")
        g = DirectedGraph.complete(n)
        symbols = st.integers(0, n - 1)

        def word(label, min_size, max_size):
            return tuple(data.draw(st.lists(symbols, min_size=min_size, max_size=max_size),
                                   label=label))

        def sequence(name):
            # periods of different lengths, origins inside and outside the window
            return SymbolicSequence(g, word(f"{name} left", 1, 5), word(f"{name} core", 0, 8),
                                    word(f"{name} right", 1, 5),
                                    data.draw(st.integers(-30, 30), label=f"{name} shift"))

        h = data.draw(st.sampled_from([0.1, 0.3, 1.0, 7.0]), label="h")
        x = sequence("x")
        y = sequence("y") if data.draw(st.booleans(), label="fresh") \
            else shift_discrete(x, data.draw(st.integers(-3, 3), label="k"))
        phase = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                          st.sampled_from([0.5, 1e-16, 1.0 - 2.0 ** -52]))
        tau_x = data.draw(phase, label="tau_x") * h
        tau_y = tau_x if data.draw(st.booleans(), label="same phase") \
            else data.draw(phase, label="tau_y") * h
        f, s = SwitchingSignal(x, tau_x, h), SwitchingSignal(y, tau_y, h)
        tol = data.draw(st.sampled_from([1e-3, 1e-9, 1e-12, 1e-15]), label="tol")
        assert metric_delta(f, s, tol).hex() == per_cell_metric_delta(f, s, tol).hex()
        assert metric_delta(s, f, tol).hex() == per_cell_metric_delta(s, f, tol).hex()


def draw_literal_pair(data):
    """Two signals parsed from literals over a labelled or unlabelled graph,
    with offsets equal, zero, random or one ulp below h, and a tolerance."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(1, 4), label="n")
    g = random_strong_graph(rng, n)
    labels = data.draw(st.one_of(st.none(), st.just(tuple("ABCD"[:n])),
                                 st.permutations([str(v) for v in range(n)]).map(tuple)),
                       label="labels")
    g = DirectedGraph(g.n, g.edges, labels)
    h = data.draw(st.sampled_from([0.1, 0.5, 1.0, 7.0]), label="h")

    def offset(label):
        kind = data.draw(st.sampled_from(["zero", "random", "below h"]), label=label)
        return {"zero": 0.0, "below h": math.nextafter(h, 0.0),
                "random": float(rng.uniform(0.0, h))}[kind]

    x = random_sequence(g, rng)
    pairing = data.draw(st.sampled_from(["fresh", "same", "shifted"]), label="y")
    y = {"fresh": random_sequence(g, rng), "same": x,
         "shifted": shift_discrete(x, int(rng.integers(-3, 4)))}[pairing]
    tau_x = offset("tau_x")
    tau_y = tau_x if data.draw(st.booleans(), label="same offset") else offset("tau_y")
    # y's literal is parsed over an equal copy of the graph, or the graph itself
    g_y = DirectedGraph(g.n, g.edges, labels) if data.draw(st.booleans(),
                                                           label="graph copy") else g
    f = parse_signal(g, format_signal(SwitchingSignal(x, tau_x, h)))
    s = parse_signal(g_y, format_signal(SwitchingSignal(y, tau_y, h)))
    tol = data.draw(st.one_of(st.sampled_from([1e-12, 0.5]), st.floats(1e-12, 0.5)),
                    label="tol")
    return f, s, tol


def gap_bits(gap, f, s, t, tol):
    """``gap(f, s, t, tol)`` as the hex of both values, or its error message."""
    try:
        return tuple(v.hex() for v in gap(f, s, t, tol))
    except ValidationError as exc:
        return str(exc)


class TestMetricReferences:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_metrics_bit_equal_to_references(self, data):
        # both metrics must give the bits of their reference loops
        f, s, tol = draw_literal_pair(data)
        for a, b in ((f, s), (s, f)):
            assert metric_delta(a, b, tol).hex() == reference_metric_delta(a, b, tol).hex()
            assert metric_omega(a.base, b.base, tol).hex() \
                == reference_metric_omega(a.base, b.base, tol).hex()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_omega_is_delta_of_the_embedding_bit_for_bit(self, data):
        # the embedding is an isometry: omega is delta's sum at phase 0, at
        # any tolerance, including those whose partial sums are inexact
        f, s, _ = draw_literal_pair(data)
        tol = data.draw(st.one_of(st.sampled_from([1e-300, 1e-20, 1.4e-16]),
                                  st.floats(1e-300, 0.5)), label="tol")
        for a, b in ((f.base, s.base), (s.base, f.base)):
            assert metric_omega(a, b, tol).hex() \
                == metric_delta(sigma_embed(a, f.step), sigma_embed(b, f.step), tol).hex()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_continuity_gap_bit_equal_to_two_shifts(self, data):
        # the gap reads windows of the bases; it must give the bits (or the
        # error) of shifting both signals and summing on the shifted pair
        f, s, tol = draw_literal_pair(data)
        h = f.step
        cells = st.integers(-40, 40)
        kind = data.draw(st.sampled_from(
            ["zero", "whole cells", "within 40 cells", "next to a boundary", "bound inf",
             "far"]), label="t kind")
        if kind == "zero":
            t = 0.0
        elif kind == "whole cells":
            t = data.draw(cells, label="k") * h
        elif kind == "within 40 cells":
            t = data.draw(st.floats(-40 * h, 40 * h), label="t")
        elif kind == "next to a boundary":
            # t one ulp either side of a cell boundary of f or s: the phase
            # lands at 0 or rounds up to h
            edge = data.draw(st.sampled_from([f, s]), label="boundary of").offset \
                - data.draw(cells, label="k") * h
            t = math.nextafter(edge, data.draw(st.sampled_from([-math.inf, math.inf]),
                                               label="side"))
        elif kind == "bound inf":  # 4^cells overflows from 512 cells on
            t = data.draw(st.floats(511.5, 5000.0), label="cells") * h \
                * data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        else:  # 1e20 / h cells: the windows must not span them
            t = data.draw(st.sampled_from([1e20, -1e300]), label="t")
        for a, b in ((f, s), (s, f)):
            assert gap_bits(continuity_gap, a, b, t, tol) \
                == gap_bits(reference_continuity_gap, a, b, t, tol)


    @pytest.mark.parametrize("h, t", [(0.1, 5e-324), (0.1, math.nextafter(0.2, math.inf)),
                                      (0.5, 5e-324), (1.0, 5e-324)])
    @pytest.mark.parametrize("tau_s", [0.0, 0.25])
    def test_continuity_gap_at_the_boundary_correction(self, h, t, tau_s):
        # an aligned signal shifted one ulp past a cell boundary: its phase
        # rounds up to h and is carried into the next cell as 0
        g = DirectedGraph.complete(2)
        f = parse_signal(g, f"left=(0 1) core=[1 1 0] right=(0) h={h!r}")
        s = parse_signal(g, f"left=(1 0) core=[0] right=(0 1) tau={tau_s * h!r} h={h!r}")
        assert shift(f, t).offset == 0.0
        for a, b in ((f, s), (s, f)):
            assert gap_bits(continuity_gap, a, b, t, 1e-12) \
                == gap_bits(reference_continuity_gap, a, b, t, 1e-12)

def per_cell_metric_delta(f, g, tol):
    """The loop metric_delta replaced: six at() lookups per unit cell, in
    the same float operations and order."""
    n = truncation_order(tol)
    h = f.step
    x, y = f.base, g.base
    early, late = (x, y) if f.offset <= g.offset else (y, x)
    lo, hi = sorted((f.offset, g.offset))
    total = 0.0
    for i in range(-n, n + 1):
        mismatch = ((x.at(i - 1) != y.at(i - 1)) * lo
                    + (early.at(i) != late.at(i - 1)) * (hi - lo)
                    + (x.at(i) != y.at(i)) * (h - hi))
        if mismatch:
            total += mismatch / h * 4.0 ** (-abs(i))
    return total


def breakpoint_metric_delta(f, g, tol):
    """The integration metric_delta replaced: each unit cell is split at the
    signals' breakpoints, found with a float %, and each piece is looked up
    at its midpoint."""
    def cell_mismatch(a, b):
        pts = [a, b]
        for sig in (f, g):
            p = a + (sig.offset - a) % sig.step
            if a < p < b:
                pts.append(p)
        pts.sort()
        acc = 0.0
        for s0, s1 in zip(pts, pts[1:]):
            if s1 <= s0:
                continue
            mid = 0.5 * (s0 + s1)
            if f.value_at(mid) != g.value_at(mid):
                acc += s1 - s0
        return acc

    n = truncation_order(tol)
    h = f.step
    total = 0.0
    for i in range(-n, n + 1):
        frac = cell_mismatch(i * h, (i + 1) * h) / h
        if frac:
            total += frac * 4.0 ** (-abs(i))
    return total


class TestContinuity:
    def test_zero_shift_equality(self, rng):
        g = random_strong_graph(rng, 3)
        f, s = random_signal(g, rng, H), random_signal(g, rng, H)
        lhs, bound = continuity_gap(f, s, 0.0, 1e-10)
        assert lhs == pytest.approx(bound, abs=1e-12)

    def test_single_cell_mismatch_one_step(self):
        g = DirectedGraph.complete(2)
        x = constant_sequence(g, 0)
        y = SymbolicSequence(g, (0,), (1,), (0,))
        f, s = sigma_embed(x, H), sigma_embed(y, H)
        lhs, bound = continuity_gap(f, s, H, 1e-10)
        assert lhs <= 4.0 * metric_delta(f, s, 1e-10) + 5e-10
        assert lhs <= bound + 5e-10

    def test_random_shifts_bounded(self, rng):
        g = random_strong_graph(rng, 3)
        tol = 1e-9
        for _ in range(60):
            f, s = random_signal(g, rng, H), random_signal(g, rng, H)
            t = float(rng.uniform(-5 * H, 5 * H))
            lhs, bound = continuity_gap(f, s, t, tol)
            assert lhs <= bound + 5 * tol

    def test_bound_beyond_the_float_range(self):
        # 4.0 ** 512 overflows: the bound is 0 at distance 0 and inf otherwise
        h = 0.5
        g = DirectedGraph.complete(2)
        f = sigma_embed(constant_sequence(g, 0), h)
        s = sigma_embed(SymbolicSequence(g, (0,), (1,), (0,)), h)
        assert continuity_gap(f, f, 256.0) == (0.0, 0.0)
        assert continuity_gap(f, f, -1e6) == (0.0, 0.0)
        lhs, bound = continuity_gap(f, s, 256.0)
        assert bound == math.inf and lhs == metric_delta(shift(f, 256.0), shift(s, 256.0))
        assert continuity_gap(f, s, -255.5)[1] == 4.0 ** 511 * metric_delta(f, s)


class TestLifts:
    def graph_two_comps(self):
        # components {0,1} (strongly connected) and {2} (self-loop sink)
        return DirectedGraph.from_edges(
            3, [(0, 1), (1, 0), (0, 0), (1, 2), (2, 2)])

    def test_constant_in_component(self):
        g = self.graph_two_comps()
        f = sigma_embed(constant_sequence(g, 0), H)
        assert lift_membership(f, {0, 1})

    def test_core_excursion_detected(self):
        g = self.graph_two_comps()
        x = SymbolicSequence(g, (0, 1), (0, 1, 2), (2,))
        f = sigma_embed(x, H)
        assert not lift_membership(f, {0, 1})

    def test_late_core_excursion_detected(self):
        # the whole core is scanned, however long it is
        g = DirectedGraph.from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)])
        x = SymbolicSequence(g, (0,), (0,) * 20_000 + (2,), (0,))
        assert not lift_membership(sigma_embed(x, H), {0, 1})
        assert lift_membership(sigma_embed(x, H), {0, 2})

    def test_transitive_sequence_stays_inside(self):
        g = self.graph_two_comps()
        x = transitive_sequence(g, {0, 1}, 3)
        assert lift_membership(sigma_embed(x, H), {0, 1})

    def test_shift_preserves_membership(self, rng):
        g = self.graph_two_comps()
        x = transitive_sequence(g, {0, 1}, 2)
        f = sigma_embed(x, H)
        for _ in range(10):
            t = float(rng.uniform(-3, 3))
            assert lift_membership(shift(f, t), {0, 1})

    def test_disjointness_at_symbol_level(self):
        g = self.graph_two_comps()
        decomp = scc(g)
        comps = decomp.components
        f = sigma_embed(constant_sequence(g, 2), H)
        memberships = [lift_membership(f, c) for c in comps]
        assert sum(memberships) == 1

    def test_isolation_after_realignment(self):
        # a signal that tracks the component then leaves it is far from the
        # lift once the exit cell is shifted to the origin
        g = self.graph_two_comps()
        x = SymbolicSequence(g, (0, 1), (0, 1), (2,))
        f = sigma_embed(x, H)
        exit_cell = 2  # first index carrying vertex 2
        g_in = sigma_embed(transitive_sequence(g, {0, 1}, 2), H)
        moved = shift(f, exit_cell * H)
        assert metric_delta(moved, g_in, 1e-9) >= 1.0
        assert metric_delta(moved, g_in, 1e-9) > 0.25


class TestSensitivity:
    def test_window_formula(self):
        assert witness_window(1 / 64) == 4
        assert witness_window(0.1) == 3

    def test_constant_signal_witness(self):
        g = DirectedGraph.complete(2)
        f = sigma_embed(constant_sequence(g, 0), H)
        y, m = sensitivity_witness(f, 0.1)
        n = witness_window(0.1)
        assert m > n
        assert metric_delta(f, y, 1e-10) < 0.1
        assert metric_delta(shift(f, m * H), shift(y, m * H), 1e-10) >= 1.0

    def test_two_cycle_rejected(self):
        g = DirectedGraph.cycle(2)
        f = sigma_embed(periodic_sequence(g, (0, 1)), H)
        with pytest.raises(ValidationError):
            sensitivity_witness(f, 0.1)

    def test_alternating_witness_small_eps(self):
        g = DirectedGraph.complete(2)
        f = alternating()
        y, m = sensitivity_witness(f, 1 / 64)
        n = witness_window(1 / 64)
        assert n >= 4
        assert all(y.base.at(i) == f.base.at(i) for i in range(-n, n + 1))
        assert metric_delta(f, y, 1e-10) < 1 / 64
        assert metric_delta(shift(f, m * H), shift(y, m * H), 1e-10) >= 1.0

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(-8, 8),
           eps=st.sampled_from([0.5, 0.1, 1 / 64, 1e-3]))
    def test_witness_equals_per_cell_reference(self, seed, n, k, eps):
        # the witness spliced from windows is the one prefix_through built
        # with per-cell at() loops, field by field, or the same refusal
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, n)
        f = sigma_embed(shift_discrete(random_sequence(g, rng), k), H)
        outcomes = []
        for witness in (sensitivity_witness, reference_sensitivity_witness):
            try:
                y, m = witness(f, eps)
                outcomes.append((sequence_fields(y.base), y.offset, y.step, m))
            except ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_case_without_revisit(self):
        # 0 branches; constant-1 signal never revisits 0 on its tail
        g = DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 1), (1, 0)])
        f = sigma_embed(constant_sequence(g, 1), H)
        y, m = sensitivity_witness(f, 0.05)
        assert y.base.at(m) != f.base.at(m)
        assert metric_delta(f, y, 1e-10) < 0.05


class TestStitching:
    def test_trivial_chain_constant(self):
        g = DirectedGraph.complete(2)
        const = sigma_embed(constant_sequence(g, 0), H)
        res = stitch_signals([(const, 6 * H)], const, const, 5)
        assert len(res.signals) == 4
        for sig, t, nxt in zip(res.signals, res.link_times, res.signals[1:]):
            assert metric_delta(shift(sig, t), nxt, 1e-10) == 0.0

    def test_two_link_gap_bound(self, rng):
        g = DirectedGraph.complete(2)
        n = 5
        bound = 2.0 * 4.0 ** (-n) / 3.0
        for _ in range(10):
            chain = [(random_signal(g, rng, H, aligned=True),
                      (n + 1 + int(rng.integers(0, 3))) * H) for _ in range(2)]
            f_head = random_signal(g, rng, H, aligned=True)
            g_tail = random_signal(g, rng, H, aligned=True)
            res = stitch_signals(chain, f_head, g_tail, n)
            gaps = [metric_delta(shift(a, t), b, 1e-9)
                    for a, t, b in zip(res.signals, res.link_times, res.signals[1:])]
            gaps.append(metric_delta(shift(res.signals[-1], res.tail_time),
                                     g_tail, 1e-9))
            assert all(gap < bound for gap in gaps)

    def test_outputs_admissible_by_construction(self, rng):
        # constructors validate adjacency; reaching here means all passed
        g = DirectedGraph.complete(3)
        chain = [(random_signal(g, rng, H, aligned=True), 7 * H) for _ in range(3)]
        res = stitch_signals(chain, random_signal(g, rng, H, aligned=True),
                             random_signal(g, rng, H, aligned=True), 5)
        assert len(res.signals) == 6

    def test_non_complete_graph_rejected(self):
        g = DirectedGraph.cycle(2)
        f = sigma_embed(periodic_sequence(g, (0, 1)), H)
        with pytest.raises(ValidationError):
            stitch_signals([(f, 6 * H)], f, f, 5)

    def test_non_multiple_time_rejected(self):
        g = DirectedGraph.complete(2)
        const = sigma_embed(constant_sequence(g, 0), H)
        with pytest.raises(ValidationError):
            stitch_signals([(const, 6.5 * H)], const, const, 5)

    def test_short_link_rejected(self):
        g = DirectedGraph.complete(2)
        const = sigma_embed(constant_sequence(g, 0), H)
        with pytest.raises(ValidationError):
            stitch_signals([(const, 2 * H)], const, const, 5)
