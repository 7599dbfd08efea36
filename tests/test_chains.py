import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchflow import chains
from switchflow.chains import (
    SizingError,
    _sampled_expansion,
    _task_images,
    build_chain_graph,
    build_grid,
    chain_components,
    chain_equivalent,
    hausdorff_distance,
    lift_kernel,
    step_image,
)
from switchflow.config import ExperimentConfig
from switchflow.fields import ExpressionField
from switchflow.flow import SwitchedSystem, integrate_segment
from switchflow.graph import (
    Csr,
    DirectedGraph,
    RangeRows,
    ValidationError,
    self_reaching_components,
    tarjan,
)
from switchflow.sequences import enumerate_admissible_words

H = 0.1


def single_vertex_system(expr, box, h=1.0, substeps=30):
    g = DirectedGraph.from_edges(1, [(0, 0)])
    return SwitchedSystem(g, (box,), h, (ExpressionField((expr,)),), substeps=substeps)


def example2_system(graph, h=H, substeps=20):
    fields = (ExpressionField(("-x1*(x1-1)*(x1-2)",)),
              ExpressionField(("-x1*(x1-2)",)))
    return SwitchedSystem(graph, ((0.0, 2.0),), h, fields, substeps=substeps)


class TestGrid:
    def test_width_and_radius(self):
        grid = build_grid([(0.0, 2.0)], 400)
        assert grid.widths == (0.005,)
        assert grid.radius == pytest.approx(0.0025)

    def test_cell_count_2d(self):
        grid = build_grid([(0.0, 1.0), (0.0, 1.0)], [10, 10])
        assert grid.n_cells == 100
        assert grid.radius == pytest.approx(0.5 * math.hypot(0.1, 0.1))

    def test_first_center(self):
        grid = build_grid([(0.0, 2.0)], 400)
        assert grid.center(0)[0] == pytest.approx(0.0025)

    def test_cell_of_roundtrip(self):
        grid = build_grid([(0.0, 2.0)], 400)
        for c in (0, 57, 399):
            assert grid.cell_of(grid.center(c)) == c
        assert grid.cell_of([2.0]) == 399  # right edge belongs to the last cell

    def test_indexing_bijective_2d(self):
        grid = build_grid([(0.0, 1.0), (-1.0, 1.0)], [4, 6])
        seen = {grid.flat_index(grid.multi_index(c)) for c in range(grid.n_cells)}
        assert seen == set(range(24))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_centers_bit_equal_to_scalar_formula(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        box = [(lo, lo + data.draw(st.floats(0.01, 5.0)))
               for lo in data.draw(st.lists(st.floats(-5.0, 5.0),
                                            min_size=dim, max_size=dim))]
        grid = build_grid(box, data.draw(st.lists(st.integers(1, 7),
                                                  min_size=dim, max_size=dim)))
        expected = np.array([scalar_center(grid, c) for c in range(grid.n_cells)])
        assert grid.all_centers().tobytes() == expected.tobytes()
        cells = data.draw(st.lists(st.integers(0, grid.n_cells - 1), max_size=10))
        assert grid.centers(cells).tobytes() == expected[cells].reshape(-1, dim).tobytes()
        for c in cells:
            assert grid.center(c).tobytes() == expected[c].tobytes()
            assert grid.multi_index(c) == divmod_multi_index(grid, c)
            assert grid.flat_index(grid.multi_index(c)) == c

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            build_grid([(1.0, 1.0)], 10)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cells_within_matches_brute_force(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        box = [(lo, lo + data.draw(st.floats(0.01, 5.0)))
               for lo in data.draw(st.lists(st.floats(-5.0, 5.0),
                                            min_size=dim, max_size=dim))]
        grid = build_grid(box, data.draw(st.lists(st.integers(1, 6),
                                                  min_size=dim, max_size=dim)))
        # points up to a box width outside the box; radii past its diagonal
        points = np.array(data.draw(st.lists(st.tuples(*[
            st.floats(lo - (hi - lo), hi + (hi - lo)) for lo, hi in box]),
            min_size=0, max_size=5)), dtype=float).reshape(-1, dim)
        diagonal = math.dist(*zip(*box))
        dist = data.draw(st.floats(0.0, 1.5 * diagonal))
        centers = [grid.center(c).tolist() for c in range(grid.n_cells)]
        expected = [(i, c) for i, p in enumerate(points.tolist())
                    for c, center in enumerate(centers) if math.dist(center, p) <= dist]
        got = grid.cells_within(points, dist)
        assert got.shape == (len(expected), 2)
        assert [tuple(row) for row in got.tolist()] == expected

    def test_cells_within_exact_ties(self):
        grid = build_grid([(0.0, 3.0), (0.0, 4.0)], [3, 4])
        center = grid.center(grid.flat_index((1, 1)))
        got = grid.cells_within(center, 1.0)[:, 1].tolist()
        assert got == sorted(grid.flat_index(m) for m in
                             [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
        assert grid.cells_within(center, 0.0)[:, 1].tolist() == [grid.flat_index((1, 1))]
        # sqrt of the summed squares rounds this distance one ulp above math.dist
        point = [0.432, 2.846]
        dist = math.dist(center, point)
        assert grid.flat_index((1, 1)) in grid.cells_within(point, dist)[:, 1]
        # the squared distance underflows to 0, the distance does not
        tiny = build_grid([(-0.5, 0.5)], 1)
        assert tiny.cells_within([1e-170], 1e-175).shape == (0, 2)
        # the same cases as range rows
        f = grid.flat_index
        assert grid.rows_within(center, 1.0).tolist() == [
            [0, f((0, 1)), f((0, 1))], [0, f((1, 0)), f((1, 2))], [0, f((2, 1)), f((2, 1))]]
        assert grid.rows_within(center, 0.0).tolist() == [[0, f((1, 1)), f((1, 1))]]
        assert any(a <= f((1, 1)) <= b for _, a, b in grid.rows_within(point, dist).tolist())
        assert tiny.rows_within([1e-170], 1e-175).shape == (0, 3)
        assert tiny.rows_within([1e-170], 1e-170).tolist() == [[0, 0, 0]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_within_are_runs_of_the_brute_force_set(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        box = [(lo, lo + data.draw(st.floats(0.01, 5.0)))
               for lo in data.draw(st.lists(st.floats(-5.0, 5.0),
                                            min_size=dim, max_size=dim))]
        grid = build_grid(box, data.draw(st.lists(st.integers(1, 6),
                                                  min_size=dim, max_size=dim)))
        centers = [grid.center(c).tolist() for c in range(grid.n_cells)]
        # points up to a box width outside the box, and cell centres, whose
        # distances to other centres tie with radii drawn as such distances
        free = st.tuples(*[st.floats(lo - (hi - lo), hi + (hi - lo)) for lo, hi in box])
        points = np.array(data.draw(st.lists(st.one_of(free, st.sampled_from(centers)),
                                             max_size=5)), dtype=float).reshape(-1, dim)
        tie = st.tuples(st.sampled_from(centers), st.sampled_from(centers))
        dist = data.draw(st.one_of(st.floats(0.0, 1.5 * math.dist(*zip(*box))),
                                   tie.map(lambda ab: math.dist(*ab))))
        rows = grid.rows_within(points, dist).tolist()
        assert rows == sorted(rows)
        line = grid.counts[-1]
        for _, first, last in rows:
            assert first <= last and first // line == last // line
        for (a, _, last), (b, first, _) in zip(rows, rows[1:]):
            assert a < b or last < first
        expected = [(i, c) for i, p in enumerate(points.tolist())
                    for c, center in enumerate(centers) if math.dist(center, p) <= dist]
        assert [(i, c) for i, first, last in rows for c in range(first, last + 1)] == expected


class TestStepImage:
    def test_frozen_field(self):
        sys = single_vertex_system("0.0", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 10)
        out = step_image(sys, sys.graph, grid, 3, (0,))
        assert out[0] == pytest.approx(grid.center(3)[0])

    def test_unit_drift(self):
        g = DirectedGraph.complete(2)
        fields = (ExpressionField(("0.0",)), ExpressionField(("1.0",)))
        sys = SwitchedSystem(g, ((0.0, 2.0),), H, fields)
        grid = build_grid([(0.0, 2.0)], 10)
        cell = grid.cell_of([1.1])
        out = step_image(sys, g, grid, cell, (1,))
        assert out[0] == pytest.approx(grid.center(cell)[0] + H, abs=1e-12)

    def test_composition_cancels(self):
        g = DirectedGraph.complete(2)
        fields = (ExpressionField(("-x1",)), ExpressionField(("x1",)))
        sys = SwitchedSystem(g, ((-2.0, 2.0),), H, fields, substeps=40)
        grid = build_grid([(-2.0, 2.0)], 16)
        cell = grid.cell_of([0.5])
        out = step_image(sys, g, grid, cell, (0, 1))
        assert abs(out[0] - grid.center(cell)[0]) < 1e-7

    def test_inadmissible_word_rejected(self):
        g = DirectedGraph.cycle(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 10)
        with pytest.raises(ValidationError):
            step_image(sys, g, grid, 0, (0, 0))


def divmod_multi_index(grid, cell):
    """The divmod loop ``Grid.multi_index`` replaced."""
    idx = []
    for c in reversed(grid.counts):
        cell, r = divmod(cell, c)
        idx.append(r)
    return tuple(reversed(idx))


def scalar_center(grid, cell):
    """The per-axis scalar centre formula ``Grid.centers`` replaced."""
    return [lo + (k + 0.5) * w for (lo, _), k, w in
            zip(grid.box, divmod_multi_index(grid, cell), grid.widths)]


class TestBuildChainGraph:
    def test_every_cell_reaches_its_image_cell(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 40)
        cg = build_chain_graph(sys, sys.graph, grid, 0.01, 1)
        for a in range(grid.n_cells):
            image = step_image(sys, sys.graph, grid, a, (0,))
            assert cg.has_edge(a, grid.cell_of(image))

    def test_free_mode_is_union_over_words(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 50)
        cg = build_chain_graph(sys, g, grid, 0.02, 1)
        r = grid.radius
        for a in (0, 10, 25, 49):
            expected = set()
            for word in ((0,), (1,)):
                image = step_image(sys, g, grid, a, word)
                kappa = cg.word_expansion[word]
                expected |= set(grid.cells_within(image, 0.02 + r * kappa + r)[:, 1].tolist())
            assert cg.successors(a) == expected

    def test_constrained_cycle_words(self):
        # the cycle graph admits only the alternating words (0, 1) and (1, 0)
        g = DirectedGraph.cycle(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 50)
        cg = build_chain_graph(sys, g, grid, 0.02, 2)
        assert sorted(cg.word_expansion) == [(0, 1), (1, 0)]
        a = 25
        expected = set()
        for word in ((0, 1), (1, 0)):
            image = step_image(sys, g, grid, a, word)
            reach = 0.02 + grid.radius * cg.word_expansion[word] + grid.radius
            expected |= set(grid.cells_within(image, reach)[:, 1].tolist())
        assert cg.successors(a) == expected

    def test_monotone_in_eps(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 30)
        cg1 = build_chain_graph(sys, sys.graph, grid, 0.01, 1)
        cg2 = build_chain_graph(sys, sys.graph, grid, 0.05, 1)
        for a in range(grid.n_cells):
            assert cg1.successors(a) <= cg2.successors(a)

    def test_sizing_guard(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 400)
        with pytest.raises(SizingError):
            build_chain_graph(sys, g, grid, 0.02, 1, max_work=100)

    def test_prefix_reuse_matches_per_word_integration(self, monkeypatch):
        g = DirectedGraph.complete(2)
        h = H
        segments = []

        def recording_segment(sys, sym, x, dt):
            segments.append(x.shape)
            return integrate_segment(sys, sym, x, dt)

        monkeypatch.setattr(chains, "integrate_segment", recording_segment)

        def check(sys, points, words):
            out = list(_task_images(sys, points, words))
            assert [word for word, _ in out] == words
            for word, (_, images) in zip(words, out):
                expected = points
                for sym in word:
                    expected = integrate_segment(sys, sym, expected, h)
                assert np.array_equal(images, expected)

        # a longer word after a shorter one must not reuse a prefix image
        check(example2_system(g), build_grid([(0.0, 2.0)], 20).all_centers(),
              [(0, 1, 1), (0, 1, 0), (1, 0), (1, 0, 1, 1)])
        # 2-D, a duplicate word, an empty word, and mixed lengths out of
        # lexicographic order
        plane = SwitchedSystem(
            g, ((-2.0, 2.0), (-2.0, 2.0)), h,
            (ExpressionField(("x2", "-x1+(1-x1**2)*x2")),
             ExpressionField(("-x1+x2", "-x1-x2"))), substeps=5)
        check(plane, build_grid(plane.box, (7, 5)).all_centers(),
              [(1, 0, 1), (0,), (0, 0, 1, 1), (1, 0, 1), (), (0, 1), (1, 1), (0, 0)])
        # enough points that a sweep holds two prefixes, so each key's four
        # children at level 3 take two sweeps
        points = build_grid([(0.0, 2.0)], chains.SWEEP_ROWS // 3 + 1).all_centers()
        assert chains.SWEEP_ROWS // len(points) == 2
        words = enumerate_admissible_words(g, frozenset({0, 1}), 3)
        del segments[:]
        check(example2_system(g, substeps=2), points, words)
        # one sweep per key at levels 1 and 2, two per key at level 3
        assert segments == [(1, len(points), 1)] * 2 + [(2, len(points), 1)] * 6


# Edge count and sha256 of repr(sorted (source, target) cell pairs), and
# component count and sha256 of repr([(sorted cells, sorted cells)]) in
# output order, for the chain graphs of scripts/configs; recorded from the
# dict-of-sets builder that preceded the array core, when components were
# hashed as (sorted nodes, sorted cells).  two_well_cycle was re-recorded
# when its (cell, vertex) nodes gave way to cells: its edges are the old
# ones projected to cells, its components the old cell sets re-sorted.
CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
FROZEN_EDGES = {
    "sine_curve_reduced": (
        21040, "c669837680d3ccc3a9a60a6421aadcb180198ea563b8fe0a02010b45b347f571"),
    "two_well_complete": (
        7132, "18e3f14e6ad01c062a37e704d2cb0741f7ea68f9a154b5afbb39c1664622ec9e"),
    "two_well_cycle": (
        2086, "baa2a59fe90b4bfe773fa5d46de055af3811454a08033bcc4c3e186171c2d3ae"),
}
FROZEN_COMPONENTS = {
    "sine_curve_reduced": (
        1, "a1cd7f178b215835b0ead00b6966a70aca6610a983461432c953abe9fe0fe2ab"),
    "two_well_complete": (
        22, "d32b73722b9c058ab819818c1eab99c45908caf650384f56a7a597e871927d81"),
    "two_well_cycle": (
        19, "b6e8ba92c8e092281ee6b600a8cc136dff82d604aeea3b91eb1ecb9429706062"),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN_EDGES))
def test_config_edge_sets_frozen(name):
    cfg = ExperimentConfig.from_file(CONFIG_DIR / f"{name}.json")
    a = cfg.analysis
    cg = build_chain_graph(cfg.system, cfg.graph, build_grid(cfg.system.box, a.cells),
                           a.eps, a.m, max_work=a.max_work)
    pairs = sorted((src, dst) for src in range(cg.adjacency.n) for dst in cg.successors(src))
    assert (len(pairs), _sha(pairs)) == FROZEN_EDGES[name]
    comps = [(sorted(c.cells), sorted(c.cells)) for c in chain_components(cg)]
    assert (len(comps), _sha(comps)) == FROZEN_COMPONENTS[name]


def expanded_edge_pairs(sys, g, grid, eps, m):
    """The expanded edge set that range rows replaced, built as before: per
    word, every (point, cell) pair of the ball query."""
    words = enumerate_admissible_words(g, frozenset(range(g.n)), m)
    r = grid.radius
    pairs = set()
    for word, images in _task_images(sys, grid.all_centers(), words):
        kappa = _sampled_expansion(images, grid)
        pairs.update(map(tuple, grid.cells_within(images, eps + r * kappa + r).tolist()))
    return sorted(pairs)


def expression_system(box, fields, h=0.25):
    return SwitchedSystem(DirectedGraph.complete(2), box, h,
                          tuple(map(ExpressionField, fields)), substeps=4)


VDP_FOCUS = [("x2", "-x1+(1-x1**2)*x2"), ("-x1+x2", "-x1-x2")]
CHAIN_CASES = {  # system, cells, eps, m
    "1d-free": lambda: (example2_system(DirectedGraph.complete(2)), [40], 0.02, 1),
    "1d-free-m2": lambda: (example2_system(DirectedGraph.complete(2)), [40], 0.01, 2),
    "1d-cycle-m2": lambda: (example2_system(DirectedGraph.cycle(2)), [40], 0.01, 2),
    "2d-free": lambda: (expression_system(((-2.0, 2.0), (-1.0, 2.0)), VDP_FOCUS),
                        [9, 7], 0.05, 2),
    "2d-m1": lambda: (expression_system(((-1.0, 1.0),) * 2, [("-x2", "x1"), ("0.5", "-x2")]),
                      [6, 8], 0.1, 1),
    "3d-free": lambda: (expression_system(((-1.0, 1.0),) * 3,
                                          [("-x2", "x1", "-0.5*x3"), ("x1-x2", "0.3", "-x3")]),
                        [5, 4, 6], 0.05, 1),
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_chain_graph_answers_from_rows_match_expanded_pairs(case):
    sys, cells, eps, m = CHAIN_CASES[case]()
    grid = build_grid(sys.box, cells)
    cg = build_chain_graph(sys, sys.graph, grid, eps, m)
    expected = expanded_edge_pairs(sys, sys.graph, grid, eps, m)
    cells = range(grid.n_cells)
    got = sorted((a, b) for a in cells for b in cg.successors(a))
    assert got == expected
    assert cg.adjacency.nnz == len(expected)
    pairs = set(expected)
    for a in cells:
        for b in cells:
            assert cg.has_edge(a, b) == ((a, b) in pairs)


def test_large_grid_components():
    # two-well free switching at 20 000 cells: the relation holds 14.4 M
    # edges, stored as at most one range row per node and word
    g = DirectedGraph.complete(2)
    grid = build_grid([(0.0, 2.0)], 20_000)
    cg = build_chain_graph(example2_system(g), g, grid, 0.02, 1)
    assert len(cg.adjacency.first) <= grid.n_cells * 2
    comps = chain_components(cg)
    assert len(comps) == 21
    assert [c.size for c in comps[:3]] == [11_994, 1_315, 1]


class TestSelfReachingComponents:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_match_tarjan_on_expanded_edges(self, data):
        k = data.draw(st.sampled_from([1, 2, 3]), label="k")
        cells = data.draw(st.integers(1, 60 // k), label="cells")
        n = cells * k
        source = st.integers(0, n - 1)
        # cell runs as chain rows write them, single ids (a leaf covers
        # them, a gadget self-loop) and whole-range rows
        run = st.tuples(source, st.integers(0, cells - 1), st.integers(0, cells - 1)).map(
            lambda r: (r[0], min(r[1:]) * k, max(r[1:]) * k + k - 1))
        single = st.tuples(source, st.integers(0, n - 1)).map(lambda r: (r[0], r[1], r[1]))
        whole = source.map(lambda u: (u, 0, n - 1))
        rows = data.draw(st.lists(st.one_of(run, single, whole), max_size=2 * n), label="rows")
        if data.draw(st.booleans(), label="singles only"):
            rows = [r for r in rows if r[1] == r[2]]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4), label="cuts"))
        batches = [np.array(rows[a:b], dtype=np.int64).reshape(-1, 3).T
                   for a, b in zip([0, *cuts], [*cuts, len(rows)])]
        relation = RangeRows.from_rows(n, batches)
        pairs = sorted({(u, v) for u, first, last in rows for v in range(first, last + 1)})
        csr = expanded_csr(pairs, n)
        assert relation.nnz == len(pairs)
        for u in range(n):
            ranges = slice(relation.indptr[u], relation.indptr[u + 1])
            first, last = relation.first[ranges], relation.last[ranges]
            assert (first <= last).all() and (first[1:] > last[:-1] + 1).all()
            successors = csr_row(csr, u).tolist()
            assert relation.row(u).tolist() == successors
            assert [relation.has_edge(u, v) for v in range(n)] == \
                [v in successors for v in range(n)]
        assert sorted(map(sorted, self_reaching_components(relation))) == \
            sorted(map(sorted, expanded_self_reaching(csr)))


def expanded_csr(pairs, n):
    """The expanded-edge ``Csr`` that range rows replaced as the stored relation."""
    return Csr.from_keys(np.array([u * n + v for u, v in pairs], dtype=np.int64), n)


def csr_row(csr, u):
    return csr.indices[csr.indptr[u]:csr.indptr[u + 1]]


def expanded_self_reaching(csr):
    """Components as found before the gadget: ``tarjan`` on the expanded
    edges, dropping single nodes without a self-edge."""
    return [comp for comp in tarjan(csr)
            if len(comp) > 1 or comp[0] in csr_row(csr, comp[0])]


class TestChainComponents:
    def test_decay_single_component_at_origin(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 40)
        cg = build_chain_graph(sys, sys.graph, grid, 0.1, 1)
        comps = chain_components(cg)
        assert len(comps) == 1
        assert grid.cell_of([0.0]) in comps[0].cells

    def test_two_well_components_near_attractors(self):
        sys = single_vertex_system("-x1*(x1-1)*(x1+1)", (-1.5, 1.5))
        grid = build_grid([(-1.5, 1.5)], 60)
        cg = build_chain_graph(sys, sys.graph, grid, 0.05, 1)
        comps = chain_components(cg)
        tops = sorted(comps[:2], key=lambda c: min(c.cells))
        lo_cells = sorted(tops[0].cells)
        hi_cells = sorted(tops[1].cells)
        assert abs(grid.center(lo_cells[len(lo_cells) // 2])[0] + 1.0) < 0.2
        assert abs(grid.center(hi_cells[len(hi_cells) // 2])[0] - 1.0) < 0.2
        assert tops[0].cells.isdisjoint(tops[1].cells)

    def test_components_pairwise_disjoint_nodes(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 100)
        comps = chain_components(build_chain_graph(sys, g, grid, 0.02, 1))
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert a.cells.isdisjoint(b.cells)

    def test_1d_components_contiguous(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 100)
        comps = chain_components(build_chain_graph(sys, g, grid, 0.02, 1))
        for comp in comps[:2]:
            cells = sorted(comp.cells)
            assert cells[-1] - cells[0] + 1 == len(cells)

    def test_two_well_complete_components_cover_targets(self):
        # the persistent components cover [0,1] and the upper fixed point
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 400)
        comps = chain_components(build_chain_graph(sys, g, grid, 0.02, 1))
        unit_cells = set(range(200))
        assert any(unit_cells <= c.cells for c in comps)
        assert any(grid.cell_of([2.0]) in c.cells and unit_cells.isdisjoint(c.cells)
                   for c in comps)


class TestChainEquivalence:
    def test_same_point(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 40)
        cg = build_chain_graph(sys, sys.graph, grid, 0.1, 1)
        assert chain_equivalent(cg, [0.0], [0.0])

    def test_example2_complete_inside_unit_interval(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 200)
        cg = build_chain_graph(sys, g, grid, 0.02, 1)
        assert chain_equivalent(cg, [0.2], [0.9])
        assert not chain_equivalent(cg, [0.2], [2.0])  # no return from the sink

    def test_example2_cycle_m2_separates(self):
        g = DirectedGraph.cycle(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 200)
        cg = build_chain_graph(sys, g, grid, 0.005, 2)
        comps = chain_components(cg)
        assert not chain_equivalent(cg, [0.45], [0.9], comps)


class TestLiftKernel:
    def test_invariant_set_keeps_everything(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 100)
        cells = range(grid.n_cells)  # whole box is invariant (fixed endpoints)
        kernel = lift_kernel(sys, g, grid, cells, slack=0.02)
        assert len(kernel) == grid.n_cells * 2

    def test_shared_fixed_point_cell(self):
        g = DirectedGraph.complete(2)
        fields = (ExpressionField(("x1",)), ExpressionField(("2.0*x1",)))
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, fields, substeps=20)
        grid = build_grid([(-1.0, 1.0)], 41)  # odd count: 0 is a cell center
        cell0 = grid.cell_of([0.0])
        kernel = lift_kernel(sys, g, grid, [cell0])
        assert kernel == {(cell0, 0), (cell0, 1)}

    def test_escaping_pairs_excluded(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 400)
        unit_cells = list(range(200))  # cells of [0, 1]
        kernel = lift_kernel(sys, g, grid, unit_cells)
        # drive field B pushes x=0.95 beyond 1 within one step
        assert (grid.cell_of([0.95]), 1) not in kernel
        # field A contracts toward 0, so its pairs deep inside survive
        assert (grid.cell_of([0.5]), 0) in kernel


# Fields for the lift-kernel reference test: one per vertex of the largest
# graph, in 1-D and 2-D.
LIFT_FIELDS = {
    1: (ExpressionField(("-x1*(x1-1)*(x1-2)",)), ExpressionField(("-x1*(x1-2)",)),
        ExpressionField(("1.0-x1",))),
    2: (ExpressionField(("-x2", "x1-0.5*x2")), ExpressionField(("-x1", "-2.0*x2")),
        ExpressionField(("0.3", "x1*x1-x2"))),
}
LIFT_GRAPHS = (DirectedGraph.complete(2), DirectedGraph.cycle(2),
               DirectedGraph.complete(3),
               DirectedGraph.from_edges(3, [(0, 1), (1, 1), (1, 2), (2, 0), (0, 2)]))


class TestLiftKernelReference:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_worklist(self, data):
        dim = data.draw(st.integers(1, 2), label="dim")
        g = data.draw(st.sampled_from(LIFT_GRAPHS), label="graph")
        box = ((0.0, 2.0),) if dim == 1 else ((-1.0, 1.0), (-1.0, 1.0))
        sys = SwitchedSystem(g, box, H, LIFT_FIELDS[dim][:g.n], substeps=4)
        grid = build_grid(box, 30 if dim == 1 else [7, 6])
        # an index range with holes, so kernels are neither always empty nor full
        lo, hi = sorted(data.draw(st.lists(st.integers(0, grid.n_cells - 1),
                                           min_size=2, max_size=2), label="range"))
        holes = data.draw(st.sets(st.integers(0, grid.n_cells - 1), max_size=4))
        cells = set(range(lo, hi + 1)) - holes
        slack = data.draw(st.one_of(st.none(), st.floats(0.0, 3 * grid.radius)),
                          label="slack")
        assert lift_kernel(sys, g, grid, cells, slack) == \
            worklist_lift_kernel(sys, g, grid, cells, slack)


def worklist_lift_kernel(sys, g, grid, cells, slack=None):
    """The dict-of-sets worklist ``lift_kernel`` replaced: peel nodes without a
    live successor or predecessor, re-checking the neighbours of each."""
    cell_list = sorted(set(cells))
    if not cell_list:
        return frozenset()
    if slack is None:
        slack = grid.radius
    cell_set = set(cell_list)
    centers = np.stack([grid.center(c) for c in cell_list])
    nodes = [(c, u) for c in cell_list for u in range(g.n)]
    succ = {nd: set() for nd in nodes}
    pred = {nd: set() for nd in nodes}
    for u in range(g.n):
        images = integrate_segment(sys, u, centers, sys.step)
        for i, b in grid.cells_within(images, slack).tolist():
            if b not in cell_set:
                continue
            for v in g.successors(u):
                succ[(cell_list[i], u)].add((b, v))
                pred[(b, v)].add((cell_list[i], u))
    alive = set(nodes)
    queue = [nd for nd in nodes if not (succ[nd] & alive) or not (pred[nd] & alive)]
    while queue:
        nd = queue.pop()
        if nd not in alive:
            continue
        alive.discard(nd)
        for other in succ[nd] | pred[nd]:
            if other in alive and (not (succ[other] & alive) or not (pred[other] & alive)):
                queue.append(other)
    return frozenset(alive)


class TestHausdorff:
    def test_identical_sets(self):
        assert hausdorff_distance([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_two_singletons(self):
        assert hausdorff_distance([0.0], [1.0]) == 1.0

    def test_cells_vs_interval_half_width_bound(self):
        grid = build_grid([(0.0, 1.0)], 200)
        centers = [float(grid.center(c)[0]) for c in range(200)]
        assert hausdorff_distance(centers, interval=(0.0, 1.0)) <= 0.0025 + 1e-12

    def test_interval_far_side(self):
        assert hausdorff_distance([0.0, 1.0], interval=(0.0, 1.0)) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_point_sets_match_per_point_formula(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        point = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)
        a = data.draw(st.lists(point, min_size=1, max_size=12), label="a")
        b = data.draw(st.lists(point, min_size=1, max_size=12), label="b")
        assert hausdorff_distance(a, b) == per_point_hausdorff(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            hausdorff_distance([], [0.0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
           st.floats(-2.0, 2.0), st.floats(0.0, 2.0))
    def test_interval_matches_quadratic_formula(self, points, lo, length):
        hi = lo + length
        assert hausdorff_distance(points, interval=(lo, hi)) == \
            quadratic_interval_hausdorff(points, lo, hi)


def quadratic_interval_hausdorff(points, lo, hi):
    """The O(n^2) formula the interval form replaced: far side at an endpoint
    or at a midpoint between consecutive set points inside the interval."""
    pts = np.sort(np.asarray(points, dtype=float))
    d_set_to_interval = max(max(lo - p, p - hi, 0.0) for p in pts)
    candidates = [lo, hi]
    for p0, p1 in zip(pts, pts[1:]):
        mid = 0.5 * (p0 + p1)
        if lo <= mid <= hi:
            candidates.append(mid)
    d_interval_to_set = max(min(abs(c - p) for p in pts) for c in candidates)
    return max(d_set_to_interval, d_interval_to_set)


def per_point_hausdorff(points_a, points_b):
    """The per-point generator the point-set form replaced."""
    a, b = np.asarray(points_a, dtype=float), np.asarray(points_b, dtype=float)
    d_ab = max(float(np.min(np.linalg.norm(b - p, axis=1))) for p in a)
    d_ba = max(float(np.min(np.linalg.norm(a - p, axis=1))) for p in b)
    return max(d_ab, d_ba)
