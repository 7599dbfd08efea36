import hashlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchflow import chains, graph
from switchflow.chains import (
    SizingError,
    _link_images,
    _sampled_expansion,
    build_chain_graph,
    build_grid,
    chain_components,
    hausdorff_distance,
    lift_kernel,
)
from switchflow.config import ExperimentConfig
from switchflow.fields import ExpressionField
from switchflow.flow import SwitchedSystem, integrate_segment
from switchflow.graph import (
    DirectedGraph,
    RangeRows,
    ValidationError,
    expand_ranges,
    self_reaching_components,
    successor_rows,
    tarjan,
)
from switchflow.sequences import enumerate_admissible_words

from conftest import mutual_classes, reachability, reference_rows_within

H = 0.1


def single_vertex_system(expr, box, h=1.0, substeps=30):
    g = DirectedGraph.from_edges(1, [(0, 0)])
    return SwitchedSystem(g, (box,), h, (ExpressionField((expr,)),), substeps=substeps)


def example2_system(graph, h=H, substeps=20):
    fields = (ExpressionField(("-x1*(x1-1)*(x1-2)",)),
              ExpressionField(("-x1*(x1-2)",)))
    return SwitchedSystem(graph, ((0.0, 2.0),), h, fields, substeps=substeps)


def cells_within(grid, points, dist):
    """``(point index, cell)`` rows, one per cell whose center lies within
    ``dist`` of a point: the expansion of ``grid.rows_within``."""
    point, first, last = grid.rows_within(points, dist).T
    row, cell = expand_ranges(first, last)
    return np.column_stack((point[row], cell))


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
        assert grid.centers([0])[0, 0] == pytest.approx(0.0025)

    def test_cell_of_roundtrip(self):
        # the centre of cell c lies in [c w, (c + 1) w)
        grid = build_grid([(0.0, 2.0)], 400)
        cells = [0, 57, 399]
        assert np.floor(grid.centers(cells)[:, 0] / 0.005).astype(int).tolist() == cells

    def test_indexing_bijective_2d(self):
        # each flat cell's centre lies in the cell its per-axis indices name
        grid = build_grid([(0.0, 1.0), (-1.0, 1.0)], [4, 6])
        lo = np.array([b[0] for b in grid.box])
        multi = np.floor((grid.all_centers() - lo) / grid.widths).astype(int)
        assert np.ravel_multi_index(tuple(multi.T), grid.counts).tolist() == list(range(24))

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

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            build_grid([(1.0, 1.0)], 10)
        # an infinite or NaN bound, or a width past the float range, gave a
        # grid of non-finite centres on which every row query came back empty
        for interval in [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
                         (-1e308, 1e308)]:
            for box in ([interval], [(0.0, 1.0), interval]):
                with pytest.raises(ValidationError, match="finite"):
                    build_grid(box, 4)

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
        centers = grid.all_centers().tolist()
        expected = [(i, c) for i, p in enumerate(points.tolist())
                    for c, center in enumerate(centers) if math.dist(center, p) <= dist]
        got = cells_within(grid, points, dist)
        assert got.shape == (len(expected), 2)
        assert [tuple(row) for row in got.tolist()] == expected

    def test_cells_within_exact_ties(self):
        grid = build_grid([(0.0, 3.0), (0.0, 4.0)], [3, 4])
        def f(multi):
            return int(np.ravel_multi_index(multi, grid.counts))

        center = grid.centers([f((1, 1))])[0]
        got = cells_within(grid, center, 1.0)[:, 1].tolist()
        assert got == sorted(f(m) for m in [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
        assert cells_within(grid, center, 0.0)[:, 1].tolist() == [f((1, 1))]
        # sqrt of the summed squares rounds this distance one ulp above math.dist
        point = [0.432, 2.846]
        dist = math.dist(center, point)
        assert f((1, 1)) in cells_within(grid, point, dist)[:, 1]
        # the squared distance underflows to 0, the distance does not
        tiny = build_grid([(-0.5, 0.5)], 1)
        assert cells_within(tiny, [1e-170], 1e-175).shape == (0, 2)
        # the same cases as range rows
        assert grid.rows_within(center, 1.0).tolist() == [
            [0, f((0, 1)), f((0, 1))], [0, f((1, 0)), f((1, 2))], [0, f((2, 1)), f((2, 1))]]
        assert grid.rows_within(center, 0.0).tolist() == [[0, f((1, 1)), f((1, 1))]]
        assert any(a <= f((1, 1)) <= b for _, a, b in grid.rows_within(point, dist).tolist())
        assert tiny.rows_within([1e-170], 1e-175).shape == (0, 3)
        assert tiny.rows_within([1e-170], 1e-170).tolist() == [[0, 0, 0]]

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rows_within_are_runs_of_the_brute_force_set(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        box = [(lo, lo + data.draw(st.floats(0.01, 5.0)))
               for lo in data.draw(st.lists(st.floats(-5.0, 5.0),
                                            min_size=dim, max_size=dim))]
        grid = build_grid(box, data.draw(st.lists(st.integers(1, 6),
                                                  min_size=dim, max_size=dim)))
        centers = grid.all_centers().tolist()
        # points up to a box width outside the box, and cell centres, whose
        # distances to other centres tie with radii drawn as such distances
        free = st.tuples(*[st.floats(lo - (hi - lo), hi + (hi - lo)) for lo, hi in box])
        points = data.draw(st.lists(st.one_of(free, st.sampled_from(centers)), max_size=6))
        tie = st.tuples(st.sampled_from(centers), st.sampled_from(centers))
        radius = st.one_of(st.floats(0.0, 1.5 * math.dist(*zip(*box))),
                           tie.map(lambda ab: math.dist(*ab)))
        # one radius for all points, or one per point
        if data.draw(st.booleans(), label="one radius"):
            dist = data.draw(radius)
            dists = [dist] * len(points)
        else:
            dists = data.draw(st.lists(radius, min_size=len(points), max_size=len(points)))
            dist = np.array(dists)
        rows = grid.rows_within(np.array(points, dtype=float).reshape(-1, dim), dist)
        assert rows.tolist() == sorted(rows.tolist())
        line = grid.counts[-1]
        for _, first, last in rows.tolist():
            assert first <= last and first // line == last // line
        for (a, _, last), (b, first, _) in zip(rows.tolist(), rows[1:].tolist()):
            assert a < b or last < first
        expected = [(i, c) for i, (p, r) in enumerate(zip(points, dists))
                    for c, center in enumerate(centers) if math.dist(center, p) <= r]
        assert [(i, c) for i, first, last in rows.tolist()
                for c in range(first, last + 1)] == expected
        # each point's rows are those of a query on that point alone
        for i, (p, r) in enumerate(zip(points, dists)):
            alone = grid.rows_within(np.array(p, dtype=float), r)
            assert rows[rows[:, 0] == i, 1:].tolist() == alone[:, 1:].tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_within_bit_equal_to_reference(self, data):
        # grids at scales from the underflow range to 1e8, some far from
        # the origin (|lo| about 1e5 cell widths); points off the box, at
        # centres or a few ulps from them; radii 0, free, negative, or the
        # distance from the point to a centre give or take a few ulps
        dim = data.draw(st.integers(1, 3), label="dim")
        unit = data.draw(st.sampled_from([1e-170, 1e-8, 1.0, 1e8]), label="unit")
        far = data.draw(st.sampled_from([0.0, 1e5, -1e5]), label="far")
        counts = data.draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
        box = []
        for c in counts:
            w = unit * data.draw(st.floats(0.5, 4.0))
            lo = w * (far + data.draw(st.floats(-5.0, 5.0)))
            box.append((lo, lo + c * w))
        grid = build_grid(box, counts)
        centers = grid.all_centers()

        def nudge(x, ulps):
            for _ in range(abs(ulps)):
                x = np.nextafter(x, math.copysign(math.inf, ulps))
            return x

        ulps = st.integers(-3, 3)
        free = st.tuples(*[st.floats(lo - (hi - lo), hi + (hi - lo)) for lo, hi in grid.box])
        at_center = st.tuples(st.integers(0, grid.n_cells - 1), ulps).map(
            lambda ck: nudge(centers[ck[0]], ck[1]).tolist())
        points = data.draw(st.lists(st.one_of(free, at_center), max_size=6), label="points")
        dists = []
        for p in points:
            j, k = data.draw(st.integers(0, grid.n_cells - 1)), data.draw(ulps)
            tie = float(nudge(math.dist(p, centers[j]), k))
            free_r = data.draw(st.floats(0.0, 1.5 * math.dist(*zip(*grid.box))))
            dists.append(data.draw(st.sampled_from([tie, free_r, 0.0, -free_r])))
        pts = np.array(points, dtype=float).reshape(-1, dim)
        rows = grid.rows_within(pts, np.array(dists))
        want = reference_rows_within(grid, pts, np.array(dists))
        assert rows.dtype == want.dtype and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()
        if unit == 1e-170:
            # squares underflow there, the chord can be off by more than the
            # one cell the walk widens by, and both queries can miss a tie
            # (a known fault of the walk, kept bit for bit)
            return
        expected = [(i, c) for i, (p, r) in enumerate(zip(points, dists))
                    for c, center in enumerate(centers.tolist()) if math.dist(center, p) <= r]
        assert [(i, c) for i, first, last in rows.tolist()
                for c in range(first, last + 1)] == expected


def word_image(sys, grid, cell, word):
    """The centre of ``cell`` flowed for one step h per symbol of ``word``."""
    return _link_images(sys, [word], grid.centers([cell]))[0, 0]


class TestStepImage:
    def test_frozen_field(self):
        sys = single_vertex_system("0.0", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 10)
        out = word_image(sys, grid, 3, (0,))
        assert out[0] == pytest.approx(grid.centers([3])[0, 0])

    def test_unit_drift(self):
        g = DirectedGraph.complete(2)
        fields = (ExpressionField(("0.0",)), ExpressionField(("1.0",)))
        sys = SwitchedSystem(g, ((0.0, 2.0),), H, fields)
        grid = build_grid([(0.0, 2.0)], 10)
        cell = 5  # holds 1.1
        out = word_image(sys, grid, cell, (1,))
        assert out[0] == pytest.approx(grid.centers([cell])[0, 0] + H, abs=1e-12)

    def test_composition_cancels(self):
        g = DirectedGraph.complete(2)
        fields = (ExpressionField(("-x1",)), ExpressionField(("x1",)))
        sys = SwitchedSystem(g, ((-2.0, 2.0),), H, fields, substeps=40)
        grid = build_grid([(-2.0, 2.0)], 16)
        cell = 10  # holds 0.5
        out = word_image(sys, grid, cell, (0, 1))
        assert abs(out[0] - grid.centers([cell])[0, 0]) < 1e-7


def divmod_multi_index(grid, cell):
    """Per-axis indices of a flat cell index, by a divmod loop."""
    idx = []
    for c in reversed(grid.counts):
        cell, r = divmod(cell, c)
        idx.append(r)
    return tuple(reversed(idx))


def scalar_center(grid, cell):
    """The per-axis scalar centre formula ``Grid.centers`` replaced."""
    return [lo + (k + 0.5) * w for (lo, _), k, w in
            zip(grid.box, divmod_multi_index(grid, cell), grid.widths)]


def edge_pairs(rows):
    """Every ``(source, target)`` edge of ``rows``, its ranges expanded; the
    ranges of a source ascend, so the pairs come out sorted."""
    source = np.repeat(np.arange(rows.n), np.diff(rows.indptr))
    row, target = expand_ranges(rows.first, rows.last)
    return list(zip(source[row].tolist(), target.tolist()))


class TestBuildChainGraph:
    def test_every_cell_reaches_its_image_cell(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 40)
        pairs = set(edge_pairs(build_chain_graph(sys, grid, 0.01, 1)))
        images = _link_images(sys, [(0,)], grid.all_centers())[0, :, 0]
        # the cell holding each image, the right edge in the last cell
        image_cells = np.clip(np.floor((images + 1.0) / 0.05), 0, 39).astype(int)
        for a, b in enumerate(image_cells.tolist()):
            assert (a, b) in pairs

    def test_free_mode_is_union_over_words(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 50)
        pairs = edge_pairs(build_chain_graph(sys, grid, 0.02, 1))
        kappas = word_expansions(sys, grid, 1)
        r = grid.radius
        for a in (0, 10, 25, 49):
            expected = set()
            for word in ((0,), (1,)):
                image = word_image(sys, grid, a, word)
                kappa = kappas[word]
                expected |= set(cells_within(grid, image, 0.02 + r * kappa + r)[:, 1].tolist())
            assert {b for s, b in pairs if s == a} == expected

    def test_constrained_cycle_words(self):
        # the cycle graph admits only the alternating words (0, 1) and (1, 0)
        g = DirectedGraph.cycle(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 50)
        rows = build_chain_graph(sys, grid, 0.02, 2)
        kappas = word_expansions(sys, grid, 2)
        assert sorted(kappas) == [(0, 1), (1, 0)]
        a = 25
        expected = set()
        for word in ((0, 1), (1, 0)):
            image = word_image(sys, grid, a, word)
            reach = 0.02 + grid.radius * kappas[word] + grid.radius
            expected |= set(cells_within(grid, image, reach)[:, 1].tolist())
        assert {b for s, b in edge_pairs(rows) if s == a} == expected

    def test_monotone_in_eps(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 30)
        rows1 = build_chain_graph(sys, grid, 0.01, 1)
        rows2 = build_chain_graph(sys, grid, 0.05, 1)
        assert set(edge_pairs(rows1)) <= set(edge_pairs(rows2))

    def test_sizing_guard(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 400)
        with pytest.raises(SizingError):
            build_chain_graph(sys, grid, 0.02, 1, max_work=100)

    def test_sizing_guard_lists_no_word(self, monkeypatch):
        # 2**40 words of length 40: the guard must refuse them from walk
        # counts, before any word is listed
        def refuse(*args):
            raise AssertionError("words listed before the work guard")

        monkeypatch.setattr(chains, "enumerate_admissible_words", refuse)
        g = DirectedGraph.complete(2)
        grid = build_grid([(0.0, 2.0)], 400)
        with pytest.raises(SizingError, match="at least"):
            build_chain_graph(example2_system(g), grid, 0.02, 40)

    def test_cell_count_guard_at_packed_key_bound(self, monkeypatch):
        # range rows pack three cell ids of 21 bits into one int64 key: 2**21
        # cells are refused before any work, 2**21 - 1 reach the word listing,
        # which fails here before it allocates anything
        def refuse(*args):
            raise AssertionError("words listed")

        monkeypatch.setattr(chains, "enumerate_admissible_words", refuse)
        sys = example2_system(DirectedGraph.complete(2))
        with pytest.raises(SizingError, match="range rows can index"):
            build_chain_graph(sys, build_grid([(0.0, 2.0)], 2**21), 0.02, 1, max_work=10**12)
        with pytest.raises(AssertionError, match="words listed"):
            build_chain_graph(sys, build_grid([(0.0, 2.0)], 2**21 - 1), 0.02, 1,
                              max_work=10**12)

    def test_prefix_reuse_matches_per_word_integration(self, monkeypatch):
        segments = []

        def recording_segment(sys, sym, x, dt):
            segments.append(x.shape)
            return integrate_segment(sys, sym, x, dt)

        monkeypatch.setattr(chains, "integrate_segment", recording_segment)

        def check(sys, points, m):
            words = enumerate_admissible_words(sys.graph, frozenset(range(sys.graph.n)), m)
            images = _link_images(sys, words, points)
            assert images.shape == (len(words),) + points.shape
            for word, image in zip(words, images):
                expected = points
                for sym in word:
                    expected = integrate_segment(sys, sym, expected, sys.step)
                assert np.array_equal(image, expected)

        for g in (DirectedGraph.complete(2), DirectedGraph.cycle(2)):
            check(example2_system(g), build_grid([(0.0, 2.0)], 20).all_centers(), 4)
            plane = SwitchedSystem(g, ((-2.0, 2.0), (-2.0, 2.0)), H,
                                   tuple(map(ExpressionField, VDP_FOCUS)), substeps=5)
            check(plane, build_grid(plane.box, (7, 5)).all_centers(), 3)
        # enough points that a sweep holds two prefixes, so each key's four
        # children at level 3 take two sweeps
        points = build_grid([(0.0, 2.0)], chains.SWEEP_ROWS // 3 + 1).all_centers()
        assert chains.SWEEP_ROWS // len(points) == 2
        del segments[:]
        check(example2_system(DirectedGraph.complete(2), substeps=2), points, 3)
        # one sweep per key at levels 1 and 2, two per key at level 3
        assert segments == [(1, len(points), 1)] * 2 + [(2, len(points), 1)] * 6

    def test_plane2d_build_makes_14_segment_calls(self, monkeypatch):
        # van der Pol against a focus, 20x20, m = 6: one segment call per
        # trie level and symbol, and two per symbol at level 6, whose 32
        # nodes per symbol hold more than SWEEP_ROWS points; the calls flow
        # the trie's 2 + 4 + ... + 64 nodes, 64 of them words
        calls = []

        def counting_segment(*args):
            calls.append(args[2].shape)
            return integrate_segment(*args)

        monkeypatch.setattr(chains, "integrate_segment", counting_segment)
        sys = SwitchedSystem(DirectedGraph.complete(2), ((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 6.0,
                             tuple(map(ExpressionField, VDP_FOCUS)), substeps=20)
        build_chain_graph(sys, build_grid(sys.box, [20, 20]), 0.05, 6)
        assert len(calls) == 14 and sum(shape[0] for shape in calls) == 126


# Edge count and sha256 of repr(sorted (source, target) cell pairs), and
# component count and sha256 of repr([(sorted cells, sorted cells)]) in
# output order, for the chain graphs of scripts/configs; recorded from the
# dict-of-sets builder that preceded the array core, when components were
# hashed as (sorted nodes, sorted cells).  two_well_cycle was re-recorded
# when its (cell, vertex) nodes gave way to cells: its edges are the old
# ones projected to cells, its components the old cell sets re-sorted.
# plane2d, the only 2-D config, was recorded from the row query that walked
# every line with four distance checks, before the rounding-margin query.
CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
FROZEN_EDGES = {
    "plane2d": (
        20094, "4ad177df63223cd7e49846aba030af0e792151081e084ac7fa3f76a2deb1c7ff"),
    "sine_curve_reduced": (
        21040, "c669837680d3ccc3a9a60a6421aadcb180198ea563b8fe0a02010b45b347f571"),
    "two_well_complete": (
        7132, "18e3f14e6ad01c062a37e704d2cb0741f7ea68f9a154b5afbb39c1664622ec9e"),
    "two_well_cycle": (
        2086, "baa2a59fe90b4bfe773fa5d46de055af3811454a08033bcc4c3e186171c2d3ae"),
}
FROZEN_COMPONENTS = {
    "plane2d": (
        1, "fc1e2590bc5db21d7d14c3cea495cd04cf5b4a152172532fe5430e2edac0c47c"),
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
    rows = build_chain_graph(cfg.system, build_grid(cfg.system.box, a.cells),
                             a.eps, a.m, max_work=a.max_work)
    pairs = edge_pairs(rows)
    assert (len(pairs), _sha(pairs)) == FROZEN_EDGES[name]
    # components come as ascending cell lists, so each hashes as recorded
    comps = [(c, c) for c in chain_components(rows)]
    assert (len(comps), _sha(comps)) == FROZEN_COMPONENTS[name]


def expanded_edge_pairs(sys, g, grid, eps, m):
    """The expanded edge set that range rows replaced, built as before: per
    word, every (point, cell) pair of the ball query."""
    words = enumerate_admissible_words(g, frozenset(range(g.n)), m)
    r = grid.radius
    pairs = set()
    for images in _link_images(sys, words, grid.all_centers()):
        kappa = per_word_expansion(images, grid)
        pairs.update(map(tuple, cells_within(grid, images, eps + r * kappa + r).tolist()))
    return sorted(pairs)


def per_word_expansion(images, grid):
    """Max growth of one word's flow map, from adjacent-center differences,
    as estimated one word at a time."""
    shaped = images.reshape(grid.counts + (grid.dimension,))
    best = 0.0
    for axis, w in enumerate(grid.widths):
        if grid.counts[axis] < 2:
            continue
        diffs = np.diff(shaped, axis=axis)
        norms = np.sqrt(np.sum(diffs * diffs, axis=-1))
        best = max(best, float(norms.max()) / w)
    return best if best > 0.0 else 1.0


def word_expansions(sys, grid, m):
    """Each admissible word of length m, with the expansion factor the chain
    build samples for it."""
    words = enumerate_admissible_words(sys.graph, frozenset(range(sys.graph.n)), m)
    images = _link_images(sys, words, grid.all_centers())
    return dict(zip(words, _sampled_expansion(images, grid).tolist()))


def per_word_chain_graph(sys, g, grid, eps, m):
    """Range rows and expansion factors of the chain graph built one word
    at a time: per word, one expansion estimate and one ball query with a
    single radius."""
    words = enumerate_admissible_words(g, frozenset(range(g.n)), m)
    r = grid.radius
    expansions = {}

    def word_rows():
        for word, images in zip(words, _link_images(sys, words, grid.all_centers())):
            kappa = expansions[word] = per_word_expansion(images, grid)
            yield grid.rows_within(images, eps + r * kappa + r).T

    return RangeRows.from_rows(grid.n_cells, word_rows()), expansions


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
    rows = build_chain_graph(sys, grid, eps, m)
    expected = expanded_edge_pairs(sys, sys.graph, grid, eps, m)
    assert edge_pairs(rows) == expected
    assert rows.nnz == len(expected)


SWEEP_CASES = {  # CHAIN_CASES entry or (system, cells, eps, m), points per sweep
    **{case: (case, None) for case in CHAIN_CASES},
    # a sweep is a block of cells under all words, as many points as whole
    # words of n cells: 63 cells under 4 words in blocks of 31, 31 and 1
    "2d-free-uneven": ("2d-free", 2 * 63),
    # 45 1-D cells under 4 words in blocks of 11, 11, 11, 11 and 1
    "1d-free-m2-uneven": (lambda: (example2_system(DirectedGraph.complete(2)), [45], 0.01, 2),
                          45),
    # 30 2-D cells under 8 words in blocks of 11, 11 and 8
    "2d-m3-uneven": (lambda: (expression_system(((-2.0, 2.0), (-1.0, 2.0)), VDP_FOCUS),
                              [5, 6], 0.05, 3), 3 * 30),
    # more 1-D cells than one sweep holds, n = 2 055 points per sweep: 4
    # words in blocks of 513 cells (four) and 3
    "1d-wide": (lambda: (example2_system(DirectedGraph.complete(2)),
                         [chains.SWEEP_POINTS + 7], 0.02, 2), chains.SWEEP_POINTS),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_swept_build_equals_per_word_build(case, monkeypatch):
    make, points = SWEEP_CASES[case]
    sys, cells, eps, m = (CHAIN_CASES[make] if isinstance(make, str) else make)()
    if points is not None:
        monkeypatch.setattr(chains, "SWEEP_POINTS", points)
    grid = build_grid(sys.box, cells)
    words = enumerate_admissible_words(sys.graph, frozenset(range(sys.graph.n)), m)
    n = grid.n_cells
    per_sweep = max(1, max(n, chains.SWEEP_POINTS // n * n) // len(words))
    if points is not None:
        assert 1 < per_sweep < n and n % per_sweep
    built = build_chain_graph(sys, grid, eps, m)
    rows, expansions = per_word_chain_graph(sys, sys.graph, grid, eps, m)
    for name in ("indptr", "first", "last"):
        assert np.array_equal(getattr(built, name), getattr(rows, name))
    # the vectorised expansion factors are bit-equal to the per-word ones
    kappa = _sampled_expansion(_link_images(sys, words, grid.all_centers()), grid)
    assert list(zip(words, kappa.tolist())) == list(expansions.items())


@pytest.mark.parametrize("d", [3, 7, 8, 9])
def test_sampled_expansion_bit_equal_to_per_word_sum(d):
    # np.sum adds up to 7 squares in sequence and 8 or more pairwise; over
    # 200 words of coordinates of one scale the order shows in the last bits
    rng = np.random.default_rng(d)
    grid = build_grid([(0.0, 1.0)] * d, [3, 2] + [1] * (d - 2))
    images = rng.normal(size=(200, grid.n_cells, d))
    assert _sampled_expansion(images, grid).tolist() == \
        [per_word_expansion(image, grid) for image in images]


def test_large_grid_components():
    # two-well free switching at 20 000 cells: the relation holds 14.4 M
    # edges, stored as at most one range row per node and word
    g = DirectedGraph.complete(2)
    grid = build_grid([(0.0, 2.0)], 20_000)
    rows = build_chain_graph(example2_system(g), grid, 0.02, 1)
    assert len(rows.first) <= grid.n_cells * 2
    comps = chain_components(rows)
    assert len(comps) == 21
    assert [len(c) for c in comps[:3]] == [11_994, 1_315, 1]


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
        ptr, adj = expanded_rows(pairs, n)
        assert relation.nnz == len(pairs)
        assert edge_pairs(relation) == pairs
        for u in range(n):
            ranges = slice(relation.indptr[u], relation.indptr[u + 1])
            first, last = relation.first[ranges], relation.last[ranges]
            assert (first <= last).all() and (first[1:] > last[:-1] + 1).all()
        assert sorted(map(sorted, self_reaching_components(relation))) == \
            sorted(map(sorted, expanded_self_reaching(ptr, adj)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pruned_lone_ids_match_tarjan_on_expanded_edges(self, data):
        # rows that drift upward leave many ids on no cycle: lone ids, which
        # are pruned before the gadget; with no row pointing down, every id
        # is lone and no gadget is built
        shape = data.draw(st.sampled_from(["drift", "all lone", "none lone"]), label="shape")
        n = data.draw(st.integers(2 if shape == "none lone" else 1, 60), label="n")
        ids = st.integers(0, n - 1)
        step = st.tuples(ids, st.integers(0 if shape == "all lone" else -3, 4), st.integers(0, 6))
        rows = [(u, min(max(u + d, 0), n - 1), min(max(u + d, 0) + k, n - 1))
                for u, d, k in data.draw(st.lists(step, max_size=2 * n), label="steps")]
        # sources with no ranges
        silent = data.draw(st.sets(ids, max_size=n // 2), label="silent")
        rows = [r for r in rows if r[0] not in silent]
        if shape == "none lone":
            # an edge each way across every inner cut
            rows += [(n - 1, 0, 0), (0, n - 1, n - 1)]
        relation = RangeRows.from_rows(n, [np.array(rows, dtype=np.int64).reshape(-1, 3).T])
        pairs = sorted({(u, v) for u, first, last in rows for v in range(first, last + 1)})
        lone = lone_ids(pairs, n)
        if shape == "all lone":
            assert lone == list(range(n))
        if shape == "none lone":
            assert lone == []
        with mock.patch("switchflow.graph.tarjan", wraps=tarjan) as gadget:
            found = self_reaching_components(relation)
        assert gadget.call_count == (len(lone) < n)
        assert sorted(map(sorted, found)) == \
            sorted(map(sorted, expanded_self_reaching(*expanded_rows(pairs, n))))

    def test_range_meets_groups_after_its_lone_first_id(self):
        # 2 lies on no cycle (0 -> 2 -> 1 ends at 1), but the edges cross
        # its cut 2 both ways, so it is kept; its range 3..3 meets only the
        # lone id 3, so it maps to no group, not to 2's own
        relation = RangeRows.from_rows(4, [np.array([[0, 2, 2], [2, 1, 1], [2, 3, 3]]).T])
        assert self_reaching_components(relation) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_match_closure_of_expanded_pairs(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        ids = st.integers(0, n - 1)
        if data.draw(st.booleans(), label="one run"):
            runs, links = [(0, n - 1)], []
        else:
            # runs of mutual neighbours, some ending at the last id, and
            # links that are mostly one-way: single edges and ranges
            run = st.one_of(st.tuples(ids, ids).map(sorted), ids.map(lambda lo: (lo, n - 1)))
            runs = data.draw(st.lists(run, max_size=6), label="runs")
            single = st.tuples(ids, ids).map(lambda r: (r[0], r[1], r[1]))
            span = st.tuples(ids, ids, ids).map(lambda r: (r[0], min(r[1:]), max(r[1:])))
            links = data.draw(st.lists(st.one_of(single, span), max_size=n), label="links")
        rows = [(i, max(i - 1, lo), min(i + 1, hi)) for lo, hi in runs
                for i in range(lo, hi + 1)] + links
        relation = RangeRows.from_rows(n, [np.array(rows, dtype=np.int64).reshape(-1, 3).T])
        pairs = {(u, v) for u, first, last in rows for v in range(first, last + 1)}
        assert sorted(map(sorted, self_reaching_components(relation))) == \
            mutual_classes(reachability(n, pairs))


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_packed_join_equals_union_per_source(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        ids = st.integers(0, n - 1)
        rows = []
        # some ids are no source at all; a source's further rows nest in,
        # adjoin or repeat its first one, or fall anywhere
        for u in data.draw(st.lists(ids, max_size=n), label="sources"):
            lo, hi = sorted(data.draw(st.tuples(ids, ids), label="range"))
            rows.append((u, lo, hi))
            for kind in data.draw(st.lists(st.sampled_from(
                    ["nested", "adjacent", "duplicate", "any"]), max_size=3), label="more"):
                if kind == "nested":
                    a, b = sorted(data.draw(st.tuples(st.integers(lo, hi), st.integers(lo, hi))))
                elif kind == "adjacent" and hi + 1 < n:
                    a, b = hi + 1, data.draw(st.integers(hi + 1, n - 1))
                elif kind == "adjacent" and lo > 0:
                    a, b = data.draw(st.integers(0, lo - 1)), lo - 1
                elif kind == "any":
                    a, b = sorted(data.draw(st.tuples(ids, ids)))
                else:
                    a, b = lo, hi
                rows.append((u, a, b))
        # batches in any order, or by ascending source as chain sweeps are,
        # cut anywhere, so a seam may split a source or fall between two
        if data.draw(st.booleans(), label="by source"):
            rows.sort(key=lambda r: r[0])
        else:
            rows = data.draw(st.permutations(rows), label="order")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5), label="cuts"))
        batches = [np.array(rows[a:b], dtype=np.int64).reshape(-1, 3).T
                   for a, b in zip([0, *cuts], [*cuts, len(rows)])]
        relation = RangeRows.from_rows(n, batches)
        # reference: each source's ids as a set, split into maximal runs
        union = [set() for _ in range(n)]
        for u, a, b in rows:
            union[u].update(range(a, b + 1))
        indptr, first, last = [0], [], []
        for targets in union:
            for v in sorted(targets):
                if len(first) > indptr[-1] and last[-1] + 1 == v:
                    last[-1] = v
                else:
                    first.append(v)
                    last.append(v)
            indptr.append(len(first))
        assert relation.indptr.tolist() == indptr
        assert relation.first.tolist() == first and relation.last.tolist() == last

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_peeled_component_matches_tarjan_on_expanded_edges(self, data):
        # the forward-backward pass peels the component of the kept id with
        # the most ranges; every shape must give Tarjan's components
        shape = data.draw(st.sampled_from(["giant", "transient pivot", "many", "all lone"]),
                          label="shape")
        n = data.draw(st.integers(12, 60), label="n")
        ids = st.integers(0, n - 1)
        span = st.tuples(ids, ids).map(sorted)
        rows, giant, pivot = [], [], None
        if shape == "giant":
            # the even ids on one cycle, each with two more single targets
            # among them, so that each has more ranges than an odd id
            giant = data.draw(st.permutations(range(0, n, 2)), label="cycle")
            for u, v in zip(giant, giant[1:] + giant[:1]):
                rows.append((u, v, v))
                for w in data.draw(st.sets(st.sampled_from(giant), min_size=2, max_size=2)):
                    rows.append((u, w, w))
            # at most one row per odd id
            for u in range(1, n, 2):
                if data.draw(st.booleans()):
                    rows.append((u, *data.draw(span)))
        elif shape == "transient pivot":
            # pivot points at scattered ids and nothing points back; 0 and
            # n - 1 point at each other across every inner cut, so no id is
            # lone, and every other row points at least two ids upward, so
            # no two neighbours point at each other: each id is a group of
            # its own, and pivot's ranges outnumber any other id's
            pivot = data.draw(st.integers(1, n - 2), label="pivot")
            # three or more ranges, since ids 3 apart never join
            targets = data.draw(st.sets(st.sampled_from(range(0, n, 3)), min_size=4),
                                label="targets") - {pivot}
            rows += [(pivot, v, v) for v in targets] + [(0, n - 1, n - 1), (n - 1, 0, 0)]
            for u in set(range(1, n - 3)) - {pivot}:
                if data.draw(st.booleans()):
                    lo, hi = sorted(data.draw(st.tuples(st.integers(u + 2, n - 1),
                                                        st.integers(u + 2, n - 1))))
                    if lo <= pivot <= hi:  # keep pivot unreached, split around it
                        rows += [(u, lo, pivot - 1)] * (lo < pivot)
                        lo = pivot + 1
                    if lo <= hi:
                        rows.append((u, lo, hi))
        elif shape == "many":
            # chunks of 1 to 3 shuffled ids, each a cycle, and links only from
            # a chunk to a later one, so no two chunks share a cycle
            order = data.draw(st.permutations(range(n)), label="order")
            sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
            chunks, at = [], 0
            for k in sizes:
                if at < n:
                    chunks.append(order[at:at + k])
                    at += k
            for chunk in chunks:
                if len(chunk) > 1 or data.draw(st.booleans()):
                    rows += [(u, v, v) for u, v in zip(chunk, chunk[1:] + chunk[:1])]
            for _ in range(data.draw(st.integers(0, n), label="links")):
                a, b = sorted(data.draw(st.tuples(st.integers(0, len(chunks) - 1),
                                                  st.integers(0, len(chunks) - 1))))
                if a < b:
                    rows.append((chunks[a][0], chunks[b][-1], chunks[b][-1]))
        else:
            # every row points upward from its source: every id is lone
            rows = [(u, u + d, min(u + d + k, n - 1))
                    for u, d, k in data.draw(st.lists(st.tuples(ids, st.integers(0, 3),
                                                                st.integers(0, 3)),
                                                      max_size=2 * n)) if u + d < n]
        relation = RangeRows.from_rows(n, [np.array(rows, dtype=np.int64).reshape(-1, 3).T])
        pairs = sorted({(u, v) for u, first, last in rows for v in range(first, last + 1)})
        expected = sorted(map(sorted, expanded_self_reaching(*expanded_rows(pairs, n))))
        component_of, peels = graph._component_of, []

        def recording(rows, src, pivot):
            peeled = component_of(rows, src, pivot)
            peels.append((pivot, np.flatnonzero(peeled).tolist()))
            return peeled

        with mock.patch("switchflow.graph._component_of", recording), \
                mock.patch("switchflow.graph.tarjan", wraps=tarjan) as gadget:
            found = self_reaching_components(relation)
        assert sorted(map(sorted, found)) == expected
        if shape == "all lone":
            assert lone_ids(pairs, n) == list(range(n))
            assert peels == [] and gadget.call_count == 0
        if shape == "transient pivot":
            # group ids are ids here: pivot alone is peeled, and not emitted
            assert peels == [(pivot, [pivot])] and [pivot] not in found
        if shape == "giant":
            # the peeled component comes first; tarjan sees the odd ids alone,
            # where without the peel each even id would be one more leaf
            assert found[0] == sorted(giant)
            assert len(gadget.call_args.args[0]) - 1 <= 2 * (n - len(giant))


def expanded_rows(pairs, n):
    """The expanded edges as ``(ptr, adj)`` successor rows, the stored
    relation that range rows replaced."""
    return successor_rows(np.array([u * n + v for u, v in pairs], dtype=np.int64), n)


def lone_ids(pairs, n):
    """Ids ``i`` whose cuts ``i`` and ``i + 1`` are both free: no pair
    crosses the cut downward, or none crosses it upward."""
    free = [not any(v < c <= u for u, v in pairs) or not any(u < c <= v for u, v in pairs)
            for c in range(n + 1)]
    return [i for i in range(n) if free[i] and free[i + 1]]


def expanded_self_reaching(ptr, adj):
    """Components as found before the gadget: ``tarjan`` on the expanded
    edges, dropping single nodes without a self-edge."""
    return [comp for comp in tarjan(ptr, adj)
            if len(comp) > 1 or comp[0] in adj[ptr[comp[0]]:ptr[comp[0] + 1]]]


class TestChainComponents:
    def test_decay_single_component_at_origin(self):
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 40)
        comps = chain_components(build_chain_graph(sys, grid, 0.1, 1))
        assert len(comps) == 1
        assert {19, 20} <= set(comps[0])  # the cells either side of 0

    def test_two_well_components_near_attractors(self):
        sys = single_vertex_system("-x1*(x1-1)*(x1+1)", (-1.5, 1.5))
        grid = build_grid([(-1.5, 1.5)], 60)
        comps = chain_components(build_chain_graph(sys, grid, 0.05, 1))
        lo_cells, hi_cells = sorted(comps[:2])
        mid_lo, mid_hi = grid.centers([lo_cells[len(lo_cells) // 2],
                                       hi_cells[len(hi_cells) // 2]])[:, 0]
        assert abs(mid_lo + 1.0) < 0.2
        assert abs(mid_hi - 1.0) < 0.2
        assert set(lo_cells).isdisjoint(hi_cells)

    def test_components_pairwise_disjoint_nodes(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 100)
        comps = chain_components(build_chain_graph(sys, grid, 0.02, 1))
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert set(a).isdisjoint(b)

    def test_1d_components_contiguous(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 100)
        comps = chain_components(build_chain_graph(sys, grid, 0.02, 1))
        for cells in comps[:2]:
            assert cells[-1] - cells[0] + 1 == len(cells)

    def test_two_well_complete_components_cover_targets(self):
        # the persistent components cover [0,1] and the upper fixed point
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 400)
        comps = chain_components(build_chain_graph(sys, grid, 0.02, 1))
        unit_cells = set(range(200))
        assert any(unit_cells <= set(c) for c in comps)
        assert any(grid.n_cells - 1 in c and unit_cells.isdisjoint(c) for c in comps)


def shared_component(comps, a, b):
    return any(a in c and b in c for c in comps)


class TestChainEquivalence:
    # cells by index: on [0, 2] in 200 cells, cell k holds [k / 100, (k + 1) / 100)
    def test_same_point(self):
        # 0 is the edge between cells 19 and 20 of [-1, 1] in 40 cells
        sys = single_vertex_system("-x1", (-1.0, 1.0))
        grid = build_grid([(-1.0, 1.0)], 40)
        comps = chain_components(build_chain_graph(sys, grid, 0.1, 1))
        assert shared_component(comps, 19, 20)

    def test_example2_complete_inside_unit_interval(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 200)
        comps = chain_components(build_chain_graph(sys, grid, 0.02, 1))
        assert shared_component(comps, 20, 90)  # 0.2 and 0.9
        assert not shared_component(comps, 20, 199)  # no return from the sink at 2.0

    def test_example2_cycle_m2_separates(self):
        g = DirectedGraph.cycle(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 200)
        comps = chain_components(build_chain_graph(sys, grid, 0.005, 2))
        assert not shared_component(comps, 45, 90)  # 0.45 and 0.9


class TestLiftKernel:
    def test_invariant_set_keeps_everything(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 100)
        cells = range(grid.n_cells)  # whole box is invariant (fixed endpoints)
        kernel = lift_kernel(sys, grid, cells, slack=0.02)
        assert len(kernel) == grid.n_cells * 2

    def test_shared_fixed_point_cell(self):
        g = DirectedGraph.complete(2)
        fields = (ExpressionField(("x1",)), ExpressionField(("2.0*x1",)))
        sys = SwitchedSystem(g, ((-1.0, 1.0),), H, fields, substeps=20)
        grid = build_grid([(-1.0, 1.0)], 41)  # odd count: 0 is a cell center
        cell0 = 20
        kernel = lift_kernel(sys, grid, [cell0])
        assert kernel == {(cell0, 0), (cell0, 1)}

    def test_escaping_pairs_excluded(self):
        g = DirectedGraph.complete(2)
        sys = example2_system(g)
        grid = build_grid([(0.0, 2.0)], 400)
        unit_cells = list(range(200))  # cells of [0, 1]
        kernel = lift_kernel(sys, grid, unit_cells)
        # drive field B pushes x=0.95 (cell 190) beyond 1 within one step
        assert (190, 1) not in kernel
        # field A contracts toward 0, so its pairs deep inside (0.5: cell 100) survive
        assert (100, 0) in kernel


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
        assert lift_kernel(sys, grid, cells, slack) == \
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
    centers = grid.centers(cell_list)
    nodes = [(c, u) for c in cell_list for u in range(g.n)]
    succ = {nd: set() for nd in nodes}
    pred = {nd: set() for nd in nodes}
    for u in range(g.n):
        images = integrate_segment(sys, u, centers, sys.step)
        for i, b in cells_within(grid, images, slack).tolist():
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
        # an interval of one point is a singleton set
        assert hausdorff_distance([0.5, 0.5], interval=(0.5, 0.5)) == 0.0

    def test_two_singletons(self):
        assert hausdorff_distance([0.0], interval=(1.0, 1.0)) == 1.0

    def test_cells_vs_interval_half_width_bound(self):
        grid = build_grid([(0.0, 1.0)], 200)
        centers = grid.all_centers()[:, 0]
        assert hausdorff_distance(centers, interval=(0.0, 1.0)) <= 0.0025 + 1e-12

    def test_interval_far_side(self):
        assert hausdorff_distance([0.0, 1.0], interval=(0.0, 1.0)) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            hausdorff_distance([], interval=(0.0, 1.0))

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
