import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchflow.graph import DirectedGraph, ValidationError, scc
from switchflow.literals import parse_sequence
from switchflow.sequences import (
    SymbolicSequence,
    chaos_certificate,
    concat_past_future,
    constant_sequence,
    contains_factor,
    enumerate_admissible_words,
    metric_omega,
    periodic_sequence,
    shift_discrete,
    transitive_sequence,
    truncation_order,
)

from conftest import (
    random_sequence,
    random_strong_graph,
    reference_concat_past_future,
    sequence_fields,
)


def graph_abc():
    # A has a self-loop and feeds B; B feeds C; C loops.
    return DirectedGraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2), (2, 0)],
                                    labels=["A", "B", "C"])


def first_bad_pair(g, left, core, right):
    """The admissibility check as one ``has_edge`` per pair, in the order
    rejections name them: each word's pairs, then the period wraps, then
    the junctions.  ``None`` when every pair is an edge."""
    checks = []
    for word, name in ((left, "left period"), (core, "core"), (right, "right period")):
        for i in range(len(word) - 1):
            checks.append((word[i], word[i + 1], name))
    checks.append((left[-1], left[0], "left period wrap"))
    checks.append((right[-1], right[0], "right period wrap"))
    checks.append((left[-1], core[0] if core else right[0], "left junction"))
    checks.append((core[-1] if core else left[-1], right[0], "right junction"))
    for a, b, where in checks:
        if not g.has_edge(a, b):
            return a, b, where
    return None


class TestRepresentation:
    def test_constant(self):
        g = DirectedGraph.complete(2)
        x = constant_sequence(g, 0)
        assert all(x.at(i) == 0 for i in range(-10, 11))

    def test_core_origin_and_left_extension(self):
        g = graph_abc()
        x = SymbolicSequence(g, (0,), (1,), (2,))
        assert x.at(0) == 1
        assert x.at(-3) == 0
        assert x.at(5) == 2

    def test_inadmissible_junction_rejected(self):
        g = DirectedGraph.cycle(2)
        with pytest.raises(ValidationError):
            SymbolicSequence(g, (0, 1), (0,), (0, 1))  # core 0 -> right 0 not an edge
        with pytest.raises(ValidationError, match="inadmissible"):
            parse_sequence(g, "left=(0 1) core=[0] right=(0 1) shift=3")

    @pytest.mark.parametrize("left, core, right, message", [
        ((0, 2, 0, 1, 2), (), (0, 1, 2), "inadmissible transition A->C (left period)"),
        ((0, 1, 2), (0, 0), (0, 1, 2), "inadmissible transition A->A (core)"),
        ((0, 1, 2), (), (0, 1, 1, 2), "inadmissible transition B->B (right period)"),
        ((0, 1), (2,), (0, 1, 2), "inadmissible transition B->A (left period wrap)"),
        ((0, 1, 2), (), (0, 1), "inadmissible transition B->A (right period wrap)"),
        ((0, 1, 2), (1,), (2, 0, 1), "inadmissible transition C->B (left junction)"),
        ((1, 2, 0), (), (2, 0, 1), "inadmissible transition A->C (left junction)"),
        ((0, 1, 2), (0, 1), (0, 1, 2), "inadmissible transition B->A (right junction)"),
        ((0, 2), (5,), (0, 1, 2), "symbol 5 out of range"),
        ((0, 1, 2), (0,), (-1,), "symbol -1 out of range"),
    ])
    def test_rejection_names_the_first_bad_pair(self, left, core, right, message):
        # each word's pairs first, then the wraps, then the junctions
        g = DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], labels=["A", "B", "C"])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SymbolicSequence(g, left, core, right)

    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(1, 4), extra=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))),
           labelled=st.booleans(),
           left=st.lists(st.integers(0, 3), min_size=1, max_size=4),
           core=st.lists(st.integers(0, 3), max_size=4),
           right=st.lists(st.integers(0, 3), min_size=1, max_size=4))
    @example(n=2, extra=set(), labelled=True, left=[0], core=[], right=[0])  # wrap A->A
    @example(n=3, extra={(0, 0)}, labelled=False, left=[0], core=[], right=[0])
    @example(n=3, extra=set(), labelled=True, left=[2, 0, 1], core=[], right=[2, 0, 1])
    @example(n=3, extra={(1, 1)}, labelled=True, left=[0, 1, 2], core=[0, 1], right=[1])
    def test_admissibility_matches_pairwise_check(self, n, extra, labelled, left, core, right):
        # a sequence is built exactly when every pair is an edge, and a
        # rejection names the pairwise check's first bad pair
        edges = {(u, (u + 1) % n) for u in range(n)} | {(u, v) for u, v in extra
                                                          if u < n and v < n}
        g = DirectedGraph.from_edges(n, sorted(edges), labels=list("ABCD"[:n]) if labelled
                                     else None)
        left, core, right = (tuple(v % n for v in w) for w in (left, core, right))
        bad = first_bad_pair(g, left, core, right)
        if bad is None:
            x = SymbolicSequence(g, left, core, right)
            assert (x.left_period, x.core, x.right_period) == (left, core, right)
        else:
            a, b, where = bad
            message = f"inadmissible transition {g.label_of(a)}->{g.label_of(b)} ({where})"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                SymbolicSequence(g, left, core, right)

    def test_wraparound_checked(self):
        g = DirectedGraph.from_edges(2, [(0, 1), (1, 0), (1, 1)])
        with pytest.raises(ValidationError):
            periodic_sequence(g, (0, 0))

    def test_shift_discrete_relabels_indices(self, rng):
        g = random_strong_graph(rng, 4)
        for _ in range(20):
            x = random_sequence(g, rng)
            k = int(rng.integers(-7, 8))
            y = shift_discrete(x, k)
            assert all(y.at(i) == x.at(i + k) for i in range(-12, 13))
            # a copy of x with a new origin, equal to the constructed sequence
            built = SymbolicSequence(g, x.left_period, x.core, x.right_period,
                                     x.index_shift + k)
            assert type(y) is SymbolicSequence and vars(y) == vars(built)

    @settings(max_examples=300, deadline=None)
    @given(left=st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple),
           core=st.lists(st.integers(0, 2), max_size=6).map(tuple),
           right=st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple),
           shift=st.integers(-15, 15), lo=st.integers(-30, 30), width=st.integers(-3, 40))
    @example(left=(0, 1), core=(2,), right=(1,), shift=0, lo=-9, width=5)  # left period only
    @example(left=(0,), core=(1, 2, 0, 1), right=(2,), shift=-1, lo=1, width=3)  # core only
    @example(left=(0,), core=(1,), right=(2, 0, 1), shift=3, lo=0, width=9)  # right period only
    @example(left=(0, 1, 2), core=(), right=(2, 1), shift=-4, lo=-3, width=12)  # empty core
    @example(left=(0,), core=(1, 2), right=(2,), shift=0, lo=2, width=-1)  # hi < lo
    def test_window_reads_at(self, left, core, right, shift, lo, width):
        # window slices the three parts; it must equal one at() per index
        x = SymbolicSequence(DirectedGraph.complete(3), left, core, right, shift)
        hi = lo + width - 1
        assert x.window(lo, hi) == tuple(x.at(i) for i in range(lo, hi + 1))

    def test_shift_group_law(self, rng):
        g = random_strong_graph(rng, 3)
        x = random_sequence(g, rng)
        y = shift_discrete(shift_discrete(x, 4), -4)
        assert all(y.at(i) == x.at(i) for i in range(-12, 13))

    def test_concat_past_future(self, rng):
        g = DirectedGraph.complete(3)
        for _ in range(20):
            a = random_sequence(g, rng)
            b = random_sequence(g, rng)
            c = concat_past_future(a, b)
            assert all(c.at(i) == a.at(i) for i in range(-20, 0))
            assert all(c.at(i) == b.at(i) for i in range(0, 20))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(-8, 8))
    def test_concat_past_future_equals_per_cell_reference(self, seed, n, k):
        # the three window slices build the sequence the per-cell at() loops
        # built, field by field, or refuse the same junction
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, n)
        past, future = shift_discrete(random_sequence(g, rng), k), random_sequence(g, rng)
        outcomes = []
        for concat in (concat_past_future, reference_concat_past_future):
            try:
                outcomes.append(sequence_fields(concat(past, future)))
            except ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestMetric:
    def test_identity(self, rng):
        g = random_strong_graph(rng, 3)
        x = random_sequence(g, rng)
        assert metric_omega(x, x, 1e-10) == 0.0

    def test_single_mismatch_at_origin(self):
        g = DirectedGraph.complete(2)
        x = constant_sequence(g, 0)
        y = SymbolicSequence(g, (0,), (1,), (0,))
        assert metric_omega(x, y, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_everywhere_different(self):
        g = DirectedGraph.complete(2)
        x = constant_sequence(g, 0)
        y = constant_sequence(g, 1)
        assert metric_omega(x, y, 1e-10) == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_truncation_order_bound(self):
        for tol in (1e-3, 1e-6, 1e-10):
            n = truncation_order(tol)
            assert 2.0 * 4.0 ** (-n) / 3.0 <= tol
            assert n == 0 or 2.0 * 4.0 ** (-(n - 1)) / 3.0 > tol

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        g = random_strong_graph(rng, 3)
        tol = 1e-9
        x, y, z = (random_sequence(g, rng) for _ in range(3))
        assert metric_omega(x, y, tol) == metric_omega(y, x, tol)
        dxz = metric_omega(x, z, tol)
        assert dxz <= metric_omega(x, y, tol) + metric_omega(y, z, tol) + 3 * tol

    def test_discrete_shift_lipschitz(self, rng):
        g = random_strong_graph(rng, 3)
        tol = 1e-9
        for _ in range(30):
            x, y = random_sequence(g, rng), random_sequence(g, rng)
            lhs = metric_omega(shift_discrete(x, 1), shift_discrete(y, 1), tol)
            assert lhs <= 4.0 * metric_omega(x, y, tol) + 5 * tol


class TestWords:
    def test_complete_two_graph_length_two(self):
        g = DirectedGraph.complete(2)
        words = enumerate_admissible_words(g, {0, 1}, 2)
        assert words == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cycle_words(self):
        g = DirectedGraph.cycle(2)
        assert enumerate_admissible_words(g, {0, 1}, 2) == [(0, 1), (1, 0)]
        assert enumerate_admissible_words(g, {0, 1}, 3) == [(0, 1, 0), (1, 0, 1)]

    def test_count_matches_adjacency_power(self, rng):
        for _ in range(15):
            g = random_strong_graph(rng, 4)
            comp = set(range(4))
            for length in (1, 2, 3, 4):
                words = enumerate_admissible_words(g, comp, length)
                a = np.zeros((4, 4), dtype=int)
                for u, v in g.edges:
                    a[u, v] = 1
                expected = 4 if length == 1 else int(
                    np.linalg.matrix_power(a, length - 1).sum())
                assert len(words) == expected
                assert len(set(words)) == len(words)


class TestTransitive:
    def test_single_self_loop_constant(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        x = transitive_sequence(g, {0}, 3)
        assert all(x.at(i) == 0 for i in range(-5, 30))

    def test_complete_two_graph_contains_all_words(self):
        g = DirectedGraph.complete(2)
        x = transitive_sequence(g, {0, 1}, 2)
        for w in enumerate_admissible_words(g, {0, 1}, 2):
            assert contains_factor(x, w, 0, 80)

    def test_cycle_contains_length_three_words(self):
        g = DirectedGraph.cycle(2)
        x = transitive_sequence(g, {0, 1}, 3)
        assert contains_factor(x, (0, 1, 0), 0, 80)
        assert contains_factor(x, (1, 0, 1), 0, 80)

    def test_output_is_admissible_and_stays_in_component(self, rng):
        g = graph_abc()
        decomp = scc(g)
        comp = decomp.components[decomp.component_of[0]]
        x = transitive_sequence(g, comp, 3)  # validated on construction
        assert set(x.window(-20, 60)) <= comp

    def test_orbit_passes_near_sampled_targets(self, rng):
        # density, sampled: some shift of the visiting sequence lands within
        # the tail bound of any short-window target
        g = DirectedGraph.complete(2)
        k = 3
        x_star = transitive_sequence(g, {0, 1}, 2 * k + 1)
        scan = x_star.right_boundary + len(x_star.right_period) + 2 * k + 1
        tail = x_star.window(0, scan)
        for _ in range(10):
            target = random_sequence(g, rng)
            w = target.window(-k, k)
            hits = [j for j in range(len(tail) - len(w) + 1)
                    if tail[j:j + len(w)] == w]
            assert hits, "transitive tail misses a window"
            aligned = shift_discrete(x_star, hits[0] + k)
            d = metric_omega(aligned, target, 1e-10)
            assert d <= 2.0 * 4.0 ** (-k) / 3.0 + 1e-9


class TestChaosCertificate:
    def test_two_cycle_periodic(self):
        cert = chaos_certificate(DirectedGraph.cycle(2), {0, 1})
        assert cert.kind == "periodic_orbit"
        assert cert.orbit == (0, 1)

    def test_three_cycle_periodic(self):
        cert = chaos_certificate(DirectedGraph.cycle(3), {0, 1, 2})
        assert cert.orbit == (0, 1, 2)

    def test_complete_two_graph_chaotic(self):
        cert = chaos_certificate(DirectedGraph.complete(2), {0, 1})
        assert cert.kind == "chaotic"
        assert cert.witness == 0

    def test_internal_out_degree_counts(self):
        # vertex 0 branches only via an edge leaving the component
        g = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (0, 2), (2, 2)])
        cert = chaos_certificate(g, {0, 1})
        assert cert.kind == "periodic_orbit"
        assert cert.orbit == (0, 1)

    def test_cycle_free_component_rejected(self):
        g = DirectedGraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
        with pytest.raises(ValidationError):
            chaos_certificate(g, {1})
