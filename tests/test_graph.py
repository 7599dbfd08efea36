import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchflow
from switchflow.graph import (
    DirectedGraph,
    SccDecomposition,
    ValidationError,
    admissible_path,
    connector,
    morse_order,
    require_valid,
    scc,
    successor_rows,
    tarjan,
)

from switchflow.literals import LiteralError, format_sequence, parse_sequence

from conftest import (
    mutual_classes,
    random_sequence,
    random_strong_graph,
    random_validated_graph,
    reachability,
)


def labels2():
    return DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)], labels=["A", "B"])


class TestValidation:
    def test_complete_two_graph_ok(self):
        g = DirectedGraph.complete(2)
        assert require_valid(g) is g

    def test_two_cycle_ok(self):
        g = DirectedGraph.cycle(2)
        assert require_valid(g) is g

    @pytest.mark.parametrize("edges, message", [
        ([(0, 0), (0, 1)], "vertices with out-degree 0: [1]"),
        ([(0, 0), (1, 0)], "vertices with in-degree 0: [1]"),
        ([(0, 1)], "vertices with out-degree 0: [1]; vertices with in-degree 0: [0]"),
    ], ids=["out-only", "in-only", "out-and-in"])
    def test_missing_degree_reported(self, edges, message):
        g = DirectedGraph.from_edges(2, edges)
        with pytest.raises(ValidationError) as err:
            require_valid(g)
        assert str(err.value) == f"invalid switching graph: {message}"

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValidationError):
            DirectedGraph.from_edges(2, [(0, 1), (0, 1), (1, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValidationError):
            DirectedGraph.from_edges(2, [(0, 2)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            DirectedGraph.from_edges(2, [(0, 1), (1, 0)], labels=["A", "A"])

    # "A B" and "C)" came back from format_sequence as text parse_sequence
    # refused; "" came back as a sequence with a shorter right period
    @pytest.mark.parametrize("labels", [["A B", "C)"], ["", "B"], ["A", "B\n"], ["A", "C)"],
                                        ["(", "B"], ["[A", "B"], ["A", "B]"], ["A", 1]],
                             ids=["space-paren", "empty", "newline", "close-paren", "open-paren",
                                  "open-bracket", "close-bracket", "not-a-string"])
    def test_labels_no_literal_can_name_rejected(self, labels):
        with pytest.raises(ValidationError, match="without whitespace or brackets"):
            DirectedGraph.from_edges(2, [(0, 1), (1, 0)], labels=labels)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_accepted_labels_round_trip_through_literals(self, data):
        # labels of any characters, some holding one that literals treat
        # specially; a label set the graph accepts must round trip
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = random_strong_graph(rng, data.draw(st.integers(1, 4), label="n"))
        text = st.text(st.characters(), max_size=2)
        special = st.sampled_from(" \t\u00a0\u2028()[]=0")
        label = st.one_of(text, st.tuples(text, special, text).map("".join))
        labels = data.draw(st.lists(label, min_size=g.n, max_size=g.n, unique=True),
                           label="labels")
        try:
            g = DirectedGraph(g.n, g.edges, tuple(labels))
        except ValidationError:
            return
        x = random_sequence(g, rng)
        assert parse_sequence(g, format_sequence(x)) == x


class TestParsing:
    def test_json_dict(self):
        g = DirectedGraph.from_json_dict(
            {"vertices": 2, "edges": [[0, 1], [1, 0]], "labels": ["A", "B"]})
        assert g.n == 2 and g.has_edge(0, 1) and g.label_of(1) == "B"

    def test_index_of_label_and_index(self):
        g = labels2()
        assert g.index_of("B") == 1
        assert g.index_of("0") == 0
        with pytest.raises(ValidationError):
            g.index_of("C")


    def test_label_wins_over_the_index_it_spells(self):
        g = DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], labels=["1", "2", "0"])
        assert [g.index_of(t) for t in ("1", "2", "0")] == [0, 1, 2]
        # other spellings of an index are still read as indices
        assert g.index_of("01") == 1 and g.index_of("+2") == 2
        with pytest.raises(ValidationError, match="^vertex index 3 out of range$"):
            g.index_of("3")
        with pytest.raises(ValidationError, match="^unknown vertex 'C'$"):
            g.index_of("C")
        # literals resolve tokens the same way
        assert parse_sequence(g, "left=(1 2 0) right=(00 01 +2)").right_period == (0, 1, 2)
        assert parse_sequence(g, "left=(1 2 0) right=(1 2 0)").left_period == (0, 1, 2)
        with pytest.raises(LiteralError, match="^at position 0: unknown vertex 'C'$"):
            parse_sequence(g, "left=(1 C) right=(1 2 0)")

    def test_degree_defect_made_once(self):
        # the message is stored at construction; require_valid only reads it
        g = DirectedGraph.from_edges(2, [(0, 1), (0, 0)])
        assert g._defect == "vertices with out-degree 0: [1]"
        with pytest.raises(ValidationError) as err:
            require_valid(g)
        assert str(err.value) == f"invalid switching graph: {g._defect}"


class TestScc:
    def test_complete_two_graph_single_component(self):
        d = scc(DirectedGraph.complete(2))
        assert d.components == (frozenset({0, 1}),)

    def test_two_cycle_single_component(self):
        d = scc(DirectedGraph.cycle(2))
        assert d.components == (frozenset({0, 1}),)

    def test_split_components_with_condensation_edge(self):
        g = DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        d = scc(g)
        assert d.components == (frozenset({0}), frozenset({1}))
        assert d.condensation_edges == frozenset({(0, 1)})

    def test_matches_bruteforce_reachability(self, rng):
        for _ in range(30):
            g = random_validated_graph(rng, 6)
            d = scc(g)
            # brute force: reachability closure
            n = g.n
            reach = [[u == v or g.has_edge(u, v) for v in range(n)] for u in range(n)]
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
            for u in range(n):
                for v in range(n):
                    same = d.component_of[u] == d.component_of[v]
                    assert same == (reach[u][v] and reach[v][u])

    def test_partition_and_acyclic_condensation(self, rng):
        for _ in range(20):
            g = random_validated_graph(rng, 8)
            d = scc(g)
            seen = set()
            for comp in d.components:
                assert not (comp & seen)
                seen |= comp
            assert seen == set(range(g.n))
            # condensation acyclic: DFS finds no back edge
            order = morse_order(d)
            for a, b in d.condensation_edges:
                assert (b, a) not in order


class TestTarjan:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reverse_topological_partition(self, data):
        n = data.draw(st.integers(1, 30), label="n")
        ids = st.integers(0, n - 1)
        pairs = data.draw(st.sets(st.tuples(ids, ids), max_size=3 * n), label="edges")
        keys = np.array(sorted(u * n + v for u, v in pairs), dtype=np.int64)
        components = tarjan(*successor_rows(keys, n))
        emitted = {v: k for k, comp in enumerate(components) for v in comp}
        # an edge never leads to a component emitted later: every
        # condensation edge points back in the emission order
        assert all(emitted[u] >= emitted[v] for u, v in pairs)
        reach = reachability(n, pairs) | np.eye(n, dtype=bool)
        assert sorted(map(sorted, components)) == mutual_classes(reach)


class TestPaths:
    def test_direct_edge(self):
        assert admissible_path(DirectedGraph.cycle(2), 0, 1) == [0, 1]

    def test_same_vertex_is_empty_walk(self):
        g = DirectedGraph.from_edges(1, [(0, 0)])
        assert admissible_path(g, 0, 0) == [0]

    def test_unreachable_is_none(self):
        g = DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        assert admissible_path(g, 1, 0) is None

    def test_paths_inside_scc_exist(self, rng):
        for _ in range(20):
            g = random_validated_graph(rng, 7)
            d = scc(g)
            for comp in d.components:
                for u in comp:
                    for v in comp:
                        path = admissible_path(g, u, v)
                        assert path is not None
                        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_connector_always_uses_an_edge(self, rng):
        g = DirectedGraph.cycle(3)
        inter = connector(g, {0, 1, 2}, 0, 0)
        assert inter == [1, 2]


class TestMorseOrder:
    def test_chain_of_two(self):
        g = DirectedGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        order = morse_order(scc(g))
        assert (0, 1) in order and (1, 0) not in order

    def test_single_component_trivial(self):
        order = morse_order(scc(DirectedGraph.cycle(2)))
        assert order == frozenset({(0, 0)})

    def test_three_component_chain_total(self):
        g = DirectedGraph.from_edges(
            3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        order = morse_order(scc(g))
        assert {(0, 1), (1, 2), (0, 2)} <= order

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partial_order_axioms(self, seed):
        g = random_validated_graph(np.random.default_rng(seed), 8)
        d = scc(g)
        order = morse_order(d)
        k = len(d.components)
        for a in range(k):
            assert (a, a) in order
        for a, b in order:
            if a != b:
                assert (b, a) not in order
        for a, b in order:
            for c in range(k):
                if (b, c) in order:
                    assert (a, c) in order

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fixed_point_closure(self, data):
        # any DAG on k components: edges go from lower to higher rank
        k = data.draw(st.integers(1, 9), label="k")
        rank = data.draw(st.permutations(range(k)), label="rank")
        pairs = [(a, b) for a in range(k) for b in range(k) if rank[a] < rank[b]]
        edges = frozenset(data.draw(st.lists(st.sampled_from(pairs), max_size=12))
                          if pairs else [])
        d = SccDecomposition(tuple(frozenset([c]) for c in range(k)),
                             tuple(range(k)), edges)
        assert morse_order(d) == fixed_point_morse_order(d)


def test_morse_order_of_long_chain_is_quick():
    # a fresh interpreter with a timeout, so that an order costing one path
    # search per component pair (minutes on this chain) fails the test
    code = """
from switchflow.graph import DirectedGraph, morse_order, scc
k = 1000
g = DirectedGraph.from_edges(k, [(i, i) for i in range(k)] + [(i, i + 1) for i in range(k - 1)])
order = morse_order(scc(g))
print(len(order), order == {(a, b) for a in range(k) for b in range(a, k)})
"""
    src = Path(switchflow.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=30)
    assert done.stdout.split() == ["500500", "True"]


def fixed_point_morse_order(decomp):
    """The closure loop ``morse_order`` replaced: grow each reach set by one
    condensation step until nothing changes."""
    k = len(decomp.components)
    reach = [{i} for i in range(k)]
    succ = [[] for _ in range(k)]
    for a, b in decomp.condensation_edges:
        succ[a].append(b)
    changed = True
    while changed:
        changed = False
        for a in range(k):
            add = {c for b in reach[a] for c in succ[b]} - reach[a]
            if add:
                reach[a] |= add
                changed = True
    return frozenset((a, b) for a in range(k) for b in reach[a])
