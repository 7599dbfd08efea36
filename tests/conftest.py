"""Shared generators for randomized tests."""
from __future__ import annotations

import numpy as np
import pytest

from switchflow.graph import DirectedGraph, connector, validate_n_graph
from switchflow.sequences import SymbolicSequence
from switchflow.signals import SwitchingSignal


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def complete2() -> DirectedGraph:
    return DirectedGraph.complete(2)


def random_validated_graph(rng: np.random.Generator, n_max: int = 8) -> DirectedGraph:
    """Random graph patched so every vertex has in- and out-degree >= 1."""
    n = int(rng.integers(1, n_max + 1))
    edges = set()
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.25:
                edges.add((u, v))
    for u in range(n):
        if not any(e[0] == u for e in edges):
            edges.add((u, int(rng.integers(n))))
    for v in range(n):
        if not any(e[1] == v for e in edges):
            edges.add((int(rng.integers(n)), v))
    g = DirectedGraph.from_edges(n, sorted(edges))
    assert validate_n_graph(g).ok
    return g


def random_strong_graph(rng: np.random.Generator, n: int = 3) -> DirectedGraph:
    """Strongly connected graph: a full cycle plus random chords."""
    edges = {(u, (u + 1) % n) for u in range(n)}
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.4:
                edges.add((u, v))
    return DirectedGraph.from_edges(n, sorted(edges))


def random_cycle_word(g: DirectedGraph, rng: np.random.Generator, u: int) -> tuple[int, ...]:
    allowed = set(range(g.n))
    parts = [u]
    cur = u
    for _ in range(int(rng.integers(0, 4))):
        cur = int(rng.choice(g.successors(cur)))
        parts.append(cur)
    back = connector(g, allowed, cur, u)
    assert back is not None
    return tuple(parts) + tuple(back)


def random_sequence(g: DirectedGraph, rng: np.random.Generator) -> SymbolicSequence:
    allowed = set(range(g.n))
    u = int(rng.integers(g.n))
    v = int(rng.integers(g.n))
    left = random_cycle_word(g, rng, u)
    right = random_cycle_word(g, rng, v)
    cur = left[-1]
    core: list[int] = []
    for _ in range(int(rng.integers(0, 5))):
        cur = int(rng.choice(g.successors(cur)))
        core.append(cur)
    bridge = connector(g, allowed, cur, v)
    assert bridge is not None
    core.extend(bridge)
    shift = int(rng.integers(-5, 6))
    return SymbolicSequence(g, left, tuple(core), right, shift)


def random_signal(g: DirectedGraph, rng: np.random.Generator, h: float,
                  aligned: bool = False) -> SwitchingSignal:
    tau = 0.0 if aligned else float(rng.uniform(0.0, h))
    return SwitchingSignal(random_sequence(g, rng), tau, h)


def reachability(n: int, pairs) -> np.ndarray:
    """``reach[u, v]``: a path of one or more of the edges ``pairs`` leads
    from u to v, as a boolean matrix closed by repeated squaring."""
    reach = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        reach[u, v] = True
    while True:
        step = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
        if (step == reach).all():
            return reach
        reach = step


def mutual_classes(reach: np.ndarray) -> list[list[int]]:
    """The sorted classes ``{v : reach[u, v] and reach[v, u]}`` of the ids
    ``u`` that reach themselves."""
    mutual = reach & reach.T
    return sorted(map(list, {tuple(np.flatnonzero(mutual[u]).tolist())
                             for u in range(len(reach)) if mutual[u, u]}))
