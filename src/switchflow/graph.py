"""Directed switching-rule graphs: validation, SCCs, condensation, path queries.

The graph fixes which vertex-to-vertex transitions a switching signal may
take.  Everything downstream (admissible sequences, signal spaces, chain
analysis) is built over a validated graph: every vertex must have in-degree
and out-degree at least one, so bi-infinite admissible paths exist through
every vertex.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when a graph or configuration fails a structural requirement."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    missing_out: tuple[int, ...] = ()
    missing_in: tuple[int, ...] = ()

    def message(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if self.missing_out:
            parts.append(f"vertices with out-degree 0: {list(self.missing_out)}")
        if self.missing_in:
            parts.append(f"vertices with in-degree 0: {list(self.missing_in)}")
        return "; ".join(parts)


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph on vertices 0..n-1 given by an edge set.

    Self-loops are allowed; duplicate edges are rejected (the edge set has
    adjacency-matrix semantics).  Optional labels name vertices in text
    formats; internally everything runs on integer indices.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None
    _succ: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _pred: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 1:
            raise ValidationError("vertex_count must be positive")
        if self.labels is not None and len(self.labels) != n:
            raise ValidationError("labels must match vertex_count")
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            succ[u].append(v)
            pred[v].append(u)
        object.__setattr__(self, "_succ", tuple(tuple(sorted(s)) for s in succ))
        object.__setattr__(self, "_pred", tuple(tuple(sorted(p)) for p in pred))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]],
                   labels: Sequence[str] | None = None) -> "DirectedGraph":
        pairs = [(int(u), int(v)) for u, v in edges]
        if len(pairs) != len(set(pairs)):
            raise ValidationError("duplicate edges are not allowed")
        return cls(vertex_count, frozenset(pairs),
                   tuple(labels) if labels is not None else None)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DirectedGraph":
        """Parse ``{"vertices": n, "edges": [[u, v], ...], "labels": [...]}``."""
        try:
            n = int(doc["vertices"])
            edges = doc["edges"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed graph document: {exc}") from exc
        labels = doc.get("labels")
        return cls.from_edges(n, edges, labels)

    @classmethod
    def from_edge_list_text(cls, text: str) -> "DirectedGraph":
        """Parse one ``u v`` pair per line; ``#`` starts a comment."""
        pairs: list[tuple[int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ValidationError(f"line {lineno}: expected 'u v', got {raw!r}")
            try:
                pairs.append((int(toks[0]), int(toks[1])))
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
        if not pairs:
            raise ValidationError("edge list is empty")
        n = max(max(u, v) for u, v in pairs) + 1
        return cls.from_edges(n, pairs)

    @classmethod
    def complete(cls, n: int) -> "DirectedGraph":
        """Complete graph: all n*n ordered pairs, self-loops included."""
        return cls.from_edges(n, [(u, v) for u in range(n) for v in range(n)])

    @classmethod
    def cycle(cls, n: int) -> "DirectedGraph":
        return cls.from_edges(n, [(u, (u + 1) % n) for u in range(n)])

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.vertex_count

    def successors(self, u: int) -> tuple[int, ...]:
        return self._succ[u]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def out_degree(self, u: int) -> int:
        return len(self._succ[u])

    def in_degree(self, u: int) -> int:
        return len(self._pred[u])

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * self.n

    def label_of(self, u: int) -> str:
        return self.labels[u] if self.labels is not None else str(u)

    def index_of(self, token: str) -> int:
        """Resolve a vertex given as a label or an integer index."""
        if self.labels is not None and token in self.labels:
            return self.labels.index(token)
        try:
            u = int(token)
        except ValueError:
            raise ValidationError(f"unknown vertex {token!r}") from None
        if not 0 <= u < self.n:
            raise ValidationError(f"vertex index {u} out of range")
        return u

    def word_is_admissible(self, word: Sequence[int]) -> bool:
        return all(self.has_edge(word[i], word[i + 1]) for i in range(len(word) - 1))


def validate_n_graph(g: DirectedGraph) -> ValidationReport:
    """Check that every vertex has in-degree >= 1 and out-degree >= 1."""
    missing_out = tuple(u for u in range(g.n) if g.out_degree(u) == 0)
    missing_in = tuple(u for u in range(g.n) if g.in_degree(u) == 0)
    return ValidationReport(not missing_out and not missing_in, missing_out, missing_in)


def require_valid(g: DirectedGraph) -> DirectedGraph:
    report = validate_n_graph(g)
    if not report.ok:
        raise ValidationError(f"invalid switching graph: {report.message()}")
    return g


@dataclass(frozen=True)
class SccDecomposition:
    """Maximal strongly connected components plus the condensation DAG.

    Components are sorted by their smallest vertex, so ids are deterministic.
    """

    components: tuple[frozenset[int], ...]
    component_of: tuple[int, ...]
    condensation_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Csr:
    """Directed edges over node ids 0..n-1 in compressed sparse rows: the
    successors of ``i`` are ``indices[indptr[i]:indptr[i + 1]]``, ascending."""

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Csr":
        """From one ascending successor sequence per node."""
        indptr = np.cumsum([0, *map(len, rows)])
        return cls(indptr, np.array([w for row in rows for w in row], dtype=np.int64))

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int) -> "Csr":
        """From ascending unique edge keys ``source * n + target``."""
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return cls(indptr, keys % n)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.row(i)
        k = int(np.searchsorted(row, j))
        return k < len(row) and bool(row[k] == j)


def tarjan(csr: Csr) -> list[list[int]]:
    """Strongly connected components, in Tarjan's emission order (reverse
    topological), taking roots by ascending id and successors in row order.
    Iterative to avoid recursion limits."""
    ptr, adj = memoryview(csr.indptr), memoryview(csr.indices)
    n = csr.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, -1)]
        while work:
            v, pi = work[-1]
            if pi == -1:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                pi = ptr[v]
            end = ptr[v + 1]
            advanced = False
            while pi < end:
                w = adj[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, -1))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def scc(g: DirectedGraph) -> SccDecomposition:
    """Tarjan's components of the switching graph, with the condensation."""
    n = g.n
    ordered = sorted(tarjan(Csr.from_rows(g._succ)), key=min)
    component_of = [0] * n
    for cid, comp in enumerate(ordered):
        for v in comp:
            component_of[v] = cid
    cond = set()
    for u, v in g.edges:
        cu, cv = component_of[u], component_of[v]
        if cu != cv:
            cond.add((cu, cv))
    return SccDecomposition(tuple(frozenset(c) for c in ordered),
                            tuple(component_of), frozenset(cond))


def admissible_path(g: DirectedGraph, u: int, v: int) -> list[int] | None:
    """Shortest directed path from u to v, inclusive; None if unreachable."""
    return path_within(g, frozenset(range(g.n)), u, v)


def morse_order(decomp: SccDecomposition) -> frozenset[tuple[int, int]]:
    """Reflexive-transitive closure of the condensation: the order on components.

    Antisymmetry is automatic because the condensation is acyclic.
    """
    k = len(decomp.components)
    cond = DirectedGraph(k, decomp.condensation_edges)
    every = frozenset(range(k))
    return frozenset((a, b) for a in range(k) for b in range(k)
                     if path_within(cond, every, a, b) is not None)


def path_within(g: DirectedGraph, allowed: frozenset[int] | set[int],
                u: int, v: int) -> list[int] | None:
    """Shortest path from u to v using only vertices in ``allowed``."""
    if u not in allowed or v not in allowed:
        return None
    if u == v:
        return [u]
    parent: dict[int, int] = {u: -1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in g.successors(x):
            if w not in allowed or w in parent:
                continue
            parent[w] = x
            if w == v:
                path = [v]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(w)
    return None


def connector(g: DirectedGraph, allowed: frozenset[int] | set[int],
              u: int, v: int) -> list[int] | None:
    """Intermediate vertices making u -> ... -> v a walk with >= 1 edge.

    Returns [] when the edge u->v exists.  For u == v without a self-loop
    the walk routes through a cycle inside ``allowed``.  None if impossible.
    """
    if g.has_edge(u, v):
        return []
    if u != v:
        path = path_within(g, allowed, u, v)
        return None if path is None else path[1:-1]
    for w in g.successors(u):
        if w not in allowed:
            continue
        back = path_within(g, allowed, w, u)
        if back is not None:
            return back[:-1]
    return None
