"""Directed switching-rule graphs: validation, SCCs, condensation, path queries,
and range-row relations with their self-reaching components.

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


def require_int(value, key: str) -> int:
    """``value`` as an int if it is a whole number (an int, or a float such as
    ``1e6``; not a bool); otherwise a ``ValidationError`` naming ``key``."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def require_real(value, key: str) -> float:
    """``value`` as a float if it is an int or a float (not a bool or a
    string); otherwise a ``ValidationError`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph on vertices 0..n-1 given by an edge set.

    Self-loops are allowed; duplicate edges are rejected (the edge set has
    adjacency-matrix semantics).  Optional labels name vertices in text
    formats, so each must be one literal token: nonempty, with no whitespace
    or bracket.  Internally everything runs on integer indices.
    ``_vertex_by_token`` maps each label and each decimal index to its
    vertex, a label winning over an index it spells, and ``_defect`` names
    the vertices of out- or in-degree 0 (empty if there are none); both are
    made once, here.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None
    _succ: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _vertex_by_token: dict[str, int] = field(init=False, repr=False, compare=False)
    _defect: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 1:
            raise ValidationError("vertex_count must be positive")
        if self.labels is not None and len(self.labels) != n:
            raise ValidationError("labels must match vertex_count")
        for label in self.labels or ():
            # literals split words on whitespace and end them at brackets
            if not (isinstance(label, str) and label) or any(
                    c.isspace() or c in "()[]" for c in label):
                raise ValidationError(f"label {label!r} must be a nonempty string "
                                      "without whitespace or brackets")
        if self.labels is not None and len(set(self.labels)) != n:
            raise ValidationError("labels must be distinct")
        succ: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            succ[u].append(v)
        object.__setattr__(self, "_succ", tuple(tuple(sorted(s)) for s in succ))
        tokens = {str(u): u for u in range(n)}
        tokens.update(zip(self.labels or (), range(n)))
        object.__setattr__(self, "_vertex_by_token", tokens)
        heads = {v for _, v in self.edges}
        defects = [f"vertices with {kind}-degree 0: {missing}" for kind, missing in (
            ("out", [u for u in range(n) if not succ[u]]),
            ("in", [v for v in range(n) if v not in heads])) if missing]
        object.__setattr__(self, "_defect", "; ".join(defects))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]],
                   labels: Sequence[str] | None = None) -> "DirectedGraph":
        pairs = [(require_int(u, "graph.edges"), require_int(v, "graph.edges"))
                 for u, v in edges]
        if len(pairs) != len(set(pairs)):
            raise ValidationError("duplicate edges are not allowed")
        return cls(vertex_count, frozenset(pairs),
                   tuple(labels) if labels is not None else None)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DirectedGraph":
        """Parse ``{"vertices": n, "edges": [[u, v], ...], "labels": [...]}``."""
        try:
            n = require_int(doc["vertices"], "vertices")
            edges = doc["edges"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed graph document: {exc}") from exc
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValidationError(f"graph.labels must be a list, got {labels!r}")
        return cls.from_edges(n, edges, labels)

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

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * self.n

    def label_of(self, u: int) -> str:
        return self.labels[u] if self.labels is not None else str(u)

    def index_of(self, token: str) -> int:
        """Resolve a vertex given as a label or an integer index; a label
        wins over an index it spells."""
        u = self._vertex_by_token.get(token)
        if u is not None:
            return u
        try:  # an index in another spelling, such as "01" or "+1"
            u = int(token)
        except ValueError:
            raise ValidationError(f"unknown vertex {token!r}") from None
        if not 0 <= u < self.n:
            raise ValidationError(f"vertex index {u} out of range")
        return u


def require_valid(g: DirectedGraph) -> DirectedGraph:
    """``g`` if every vertex has in-degree >= 1 and out-degree >= 1."""
    if g._defect:
        raise ValidationError(f"invalid switching graph: {g._defect}")
    return g


@dataclass(frozen=True)
class SccDecomposition:
    """Maximal strongly connected components plus the condensation DAG.

    Components are sorted by their smallest vertex, so ids are deterministic.
    """

    components: tuple[frozenset[int], ...]
    component_of: tuple[int, ...]
    condensation_edges: frozenset[tuple[int, int]]


def successor_rows(keys: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """``(ptr, adj)`` over node ids 0..n-1 from ascending unique edge keys
    ``source * n + target``: the successors of ``v`` are
    ``adj[ptr[v]:ptr[v + 1]]``, ascending."""
    return np.searchsorted(keys, np.arange(n + 1) * n).tolist(), (keys % n).tolist()


def expand_ranges(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, id)`` for every id of every range ``first[row]..last[row]``,
    in row order."""
    lengths = last - first + 1
    row = np.repeat(np.arange(len(first)), lengths)
    offset = np.arange(len(row)) - (np.cumsum(lengths) - lengths)[row]
    return row, first[row] + offset


def _join_ranges(n: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``(source, first, last)`` sorted once on the packed key
    ``source * n + first``, with each source's overlapping or adjacent ranges
    joined.  The rows come in ascending runs (the joined rows, then one run
    per word) or nearly sorted (the contracted rows of
    ``self_reaching_components``), where a stable sort, timsort, takes
    about linear time."""
    key = rows[0] * n + rows[1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    src = key // n
    # running maximum of the packed end src * n + last: sources ascend, so
    # an end never carries over from an earlier source
    end = np.maximum.accumulate(src * n + rows[2][order])
    # start[i]: a joined range starts at sorted row i (i == len: sentinel)
    start = np.ones(len(key) + 1, dtype=bool)
    start[1:-1] = (src[1:] != src[:-1]) | (key[1:] > end[:-1] + 1)
    head, tail = np.flatnonzero(start[:-1]), np.flatnonzero(start[1:])
    src = src[head]
    return np.stack((src, key[head] - src * n, end[tail] - src * n))


@dataclass(frozen=True)
class RangeRows:
    """Directed edges over node ids 0..n-1 stored as ranges: source ``i``
    points at every id in ``first[j]..last[j]`` for ``j`` in
    ``indptr[i]:indptr[i + 1]``.  The ranges of one source ascend and are
    neither overlapping nor adjacent, so no edge is stored twice."""

    indptr: np.ndarray
    first: np.ndarray
    last: np.ndarray

    @classmethod
    def from_rows(cls, n: int, batches: Iterable[np.ndarray]) -> "RangeRows":
        """Merge batches of rows, each a ``(3, R)`` array of ``(source, first,
        last)`` in any order.  Rows are joined again only once the rows held
        since the last join outnumber twice the joined rows plus ``n``, so
        memory stays a small multiple of the result while each row is sorted
        about 1.5 times on average."""
        joined = np.empty((3, 0), dtype=np.int64)
        held: list[np.ndarray] = []
        count = 0
        for rows in batches:
            held.append(rows)
            count += rows.shape[1]
            if count > 2 * joined.shape[1] + n:
                joined = _join_ranges(n, np.concatenate([joined, *held], axis=1))
                held, count = [], 0
        src, first, last = _join_ranges(n, np.concatenate([joined, *held], axis=1))
        return cls(np.searchsorted(src, np.arange(n + 1)), first, last)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        """Number of edges, each range expanded."""
        return int(np.sum(self.last - self.first + 1))


def self_reaching_components(rows: RangeRows) -> list[list[int]]:
    """Strongly connected components of the relation that can reach
    themselves (more than one id, or one id with an edge to itself), without
    expanding any range.

    Ids ``i`` and ``i + 1`` that each have a range containing the other share
    a component, so runs of such ids are contracted first.  A run is a group
    of consecutive ids, so a range of ids maps to a range of groups, and the
    mapped rows are joined again.  A group of two or more ids reaches itself.

    ``tarjan`` then runs on a bottom-up segment-tree gadget over the ``g``
    groups: node 0 is unused, internal node ``j`` in ``1..g-1`` points at its
    children ``2j`` and ``2j + 1``, leaf ``g + i`` stands for group ``i``,
    and each leaf points at the O(log g) tree nodes whose leaves tile its
    ranges.  Paths between leaves are exactly the contracted relation's
    paths, and every cycle passes through a leaf, so the components with more
    than one gadget node are the non-trivial ones.  A range of one group is
    covered by its own leaf, a gadget self-loop, so a single-leaf component
    is kept when one of its ranges contains it.  Components come in Tarjan's
    emission order over the groups, which is reverse topological, each
    expanded back to its ids.
    """
    n = rows.n
    src = np.repeat(np.arange(n), np.diff(rows.indptr))
    first, last = rows.first, rows.last
    # up[i]: i points at i + 1; down[i]: i points at i - 1
    up, down = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    up[src[(first <= src + 1) & (src + 1 <= last)]] = True
    down[src[(first < src) & (src <= last + 1)]] = True
    # apart[i]: ids i and i + 1 lie in different groups
    apart = ~(up[:-1] & down[1:])
    group = np.cumsum(np.concatenate(([0], apart)))
    bounds = np.flatnonzero(np.concatenate(([True], apart, [True]))).tolist()
    g = len(bounds) - 1
    src, first, last = _join_ranges(g, np.stack((group[src], group[first], group[last])))
    src = src + g
    lo, hi = first + g, last + g + 1
    self_loop = np.zeros(2 * g, dtype=bool)
    self_loop[src[(lo <= src) & (src < hi)]] = True
    tails, heads = [np.repeat(np.arange(1, g), 2)], [np.arange(2, 2 * g)]
    while len(lo):
        odd = (lo & 1) == 1
        tails.append(src[odd])
        heads.append(lo[odd])
        lo = lo + odd
        odd = (hi & 1) == 1
        hi = hi - odd
        tails.append(src[odd])
        heads.append(hi[odd])
        lo, hi = lo >> 1, hi >> 1
        more = lo < hi
        src, lo, hi = src[more], lo[more], hi[more]
    keys = np.sort(np.concatenate(tails) * (2 * g) + np.concatenate(heads))
    self_loop = self_loop.tolist()
    return [[i for v in comp if v >= g for i in range(bounds[v - g], bounds[v - g + 1])]
            for comp in tarjan(*successor_rows(keys, 2 * g))
            if len(comp) > 1 or self_loop[comp[0]]]


def tarjan(ptr: list[int], adj: list[int]) -> list[list[int]]:
    """Strongly connected components of the graph whose node ``v`` has the
    successors ``adj[ptr[v]:ptr[v + 1]]``, in Tarjan's emission order (reverse
    topological), taking roots by ascending id and successors in row order.
    Iterative to avoid recursion limits."""
    n = len(ptr) - 1
    # index[v] is -1 before v is visited, its visit number while v is on the
    # stack, and n once its component is emitted, so that one compare with
    # the current lowlink both skips emitted nodes and lowers it
    index = [-1] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        # the node being scanned: its id, its unscanned successors, its
        # lowlink and its position on the stack; its callers' are on calls
        calls = []
        v, succ, low, base = root, iter(adj[ptr[root]:ptr[root + 1]]), counter, len(stack)
        index[v] = counter
        counter += 1
        stack.append(v)
        while True:
            for w in succ:
                at = index[w]
                if at == -1:
                    calls.append((v, succ, low, base))
                    v, succ, low, base = w, iter(adj[ptr[w]:ptr[w + 1]]), counter, len(stack)
                    index[w] = counter
                    counter += 1
                    stack.append(w)
                    break
                if at < low:
                    low = at
            else:
                if low == index[v]:
                    comp = stack[base:]
                    del stack[base:]
                    for w in comp:
                        index[w] = n
                    comp.reverse()
                    components.append(comp)
                if not calls:
                    break
                reached = low
                v, succ, low, base = calls.pop()
                if reached < low:
                    low = reached
    return components


def scc(g: DirectedGraph) -> SccDecomposition:
    """Tarjan's components of the switching graph, with the condensation."""
    n = g.n
    keys = np.array(sorted(u * n + v for u, v in g.edges), dtype=np.int64)
    ordered = sorted(tarjan(*successor_rows(keys, n)), key=min)
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

    One ``tarjan`` pass over the condensation emits its one-node components
    in reverse topological order, so the reach set of every successor is
    complete before it is read.  Antisymmetry is automatic because the
    condensation is acyclic.
    """
    k = len(decomp.components)
    keys = np.array(sorted(a * k + b for a, b in decomp.condensation_edges), dtype=np.int64)
    ptr, succ = successor_rows(keys, k)
    below: list[set[int]] = [set() for _ in range(k)]
    for (a,) in tarjan(ptr, succ):
        below[a].add(a)
        for b in succ[ptr[a]:ptr[a + 1]]:
            below[a] |= below[b]
    return frozenset((a, b) for a in range(k) for b in below[a])


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
