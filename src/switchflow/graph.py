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
    """Rows ``(source, first, last)`` sorted once on one int64 key that packs
    the three ids in ``b`` bits each, ``2**b >= n``, with each source's
    overlapping or adjacent ranges joined.  The key fits while ``3 * b <=
    63``, that is for ``n <= 2**21``; bits, unlike ``(source * n + first) *
    n + last``, unpack without an integer division."""
    b = max(1, (n - 1).bit_length())
    key = np.sort((rows[0] << b | rows[1]) << b | rows[2])
    head = key >> b  # source << b | first
    src = head >> b
    low = (1 << b) - 1
    # running maximum of the packed end source << b | last: sources ascend,
    # so an end never carries over from an earlier source
    end = np.maximum.accumulate(src << b | key & low)
    # start[i]: a joined range starts at sorted row i (i == len: sentinel)
    start = np.ones(len(key) + 1, dtype=bool)
    start[1:-1] = (src[1:] != src[:-1]) | (head[1:] > end[:-1] + 1)
    at, tail = np.flatnonzero(start[:-1]), np.flatnonzero(start[1:])
    return np.stack((src[at], head[at] & low, end[tail] & low))


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
        last)`` in any order.  Each batch is joined as it arrives, and the
        joined batches once more where two of them share or cross a source.
        Where each batch holds all the rows of its sources, in ascending
        blocks, as ``build_chain_graph`` sweeps them, the joined batches are
        the result in order, so every raw row is sorted once."""
        joined = [j for j in (_join_ranges(n, rows) for rows in batches) if j.shape[1]]
        rows = np.concatenate([np.empty((3, 0), dtype=np.int64), *joined], axis=1)
        if any(a[0, -1] >= b[0, 0] for a, b in zip(joined, joined[1:])):
            rows = _join_ranges(n, rows)
        src, first, last = rows
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
    themselves: more than one id, or one id with a range containing it.

    Cut ``c`` in ``0..n`` separates ids ``< c`` from ids ``>= c``.  A cycle
    that crosses a cut crosses it both ways, so none crosses a free cut: one
    that no edge crosses backward (every source ``>= c`` has its first target
    ``>= c``) or none forward (every source ``< c`` has its last target
    ``< c``).  A source without ranges has first target ``n`` and last
    target ``-1``, so cuts ``0`` and ``n`` are free.  An id ``i`` whose cuts
    ``i`` and ``i + 1`` are both free is lone: it lies on no cycle but its
    own self-loop, so it is a component exactly when one of its ranges
    contains it, and it takes no further part.

    Ids ``i`` and ``i + 1`` that each have a range containing the other share
    a component, so runs of such ids are contracted into groups.  A lone id
    is never in a run with a neighbour, since the two edges would cross one
    of its cuts both ways, and it gets no group.  A group is a run of
    consecutive ids, so each range maps to the range of groups it meets, and
    the mapped rows are joined again; the ranges of lone sources, and ranges
    that meet only lone ids, are dropped.  A group of two or more ids
    reaches itself.

    Chain graphs mostly have one component that holds most cells, so one
    forward-backward pass (``_component_of``) finds the component of the
    group with the most ranges, and its groups are dropped the same way: a
    cycle through one of them lies inside it, so the components of the
    other groups are those of the relation without it.

    ``tarjan`` then runs on the groups left, each range expanded to the
    groups it meets.  Each such group edge stands for at least one edge
    between their ids, so the expansion never holds more than the relation's
    ``nnz`` edges.  The peeled component comes first, if it reaches itself;
    Tarjan's components follow, each expanded back to its ids, in Tarjan's
    emission order; then the lone ids with a self-loop, ascending.
    """
    n = rows.n
    src = np.repeat(np.arange(n), np.diff(rows.indptr))
    first, last = rows.first, rows.last
    # lowest[i] and highest[i + 1]: the first and last target of source i,
    # n and -1 where there is none
    some = np.flatnonzero(rows.indptr[1:] > rows.indptr[:-1])
    lowest, highest = np.full(n + 1, n), np.full(n + 1, -1)
    lowest[some], highest[some + 1] = first[rows.indptr[some]], last[rows.indptr[some + 1] - 1]
    # free[c]: no edge crosses cut c backward, or none crosses it forward
    cut = np.arange(n + 1)
    free = (np.minimum.accumulate(lowest[::-1])[::-1] >= cut) \
        | (np.maximum.accumulate(highest) < cut)
    lone = free[:-1] & free[1:]
    # own[i]: one of i's ranges contains i
    own = np.zeros(n, dtype=bool)
    own[src[(first <= src) & (src <= last)]] = True
    # a component is kept if it has more than one id, or its one id has a
    # range containing it; a lone id can meet only the second
    loops = [[i] for i in np.flatnonzero(lone & own).tolist()]
    # up[i]: i points at i + 1; down[i]: i points at i - 1
    up, down = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    up[src[(first <= src + 1) & (src + 1 <= last)]] = True
    down[src[(first < src) & (src <= last + 1)]] = True
    # opens[i]: id i starts a run; a lone id is a run of one, and the other
    # runs are the groups
    opens = np.concatenate(([True], ~(up[:-1] & down[1:])))[:n]
    starts = np.flatnonzero(opens)
    stops = np.append(starts[1:], n)
    starts, stops = starts[~lone[starts]], stops[~lone[starts]]
    g = len(starts)
    if not g:
        return loops
    src, first, last = _join_ranges(g, _relabel(np.cumsum(opens & ~lone) - 1, lone,
                                                src, first, last))
    indptr = np.searchsorted(src, np.arange(g + 1))
    peeled = _component_of(RangeRows(indptr, first, last), src, int(np.argmax(np.diff(indptr))))
    comps = [expand_ranges(starts[peeled], stops[peeled] - 1)[1].tolist()]
    starts, stops = starts[~peeled].tolist(), stops[~peeled].tolist()
    g = len(starts)
    # distinct groups keep distinct ids, so the relabelled ranges of a source
    # still ascend and never overlap: the keys ascend strictly
    src, first, last = _relabel(np.cumsum(~peeled) - 1, peeled, src, first, last)
    row, group = expand_ranges(first, last)
    comps += [[i for v in comp for i in range(starts[v], stops[v])]
              for comp in tarjan(*successor_rows(src[row] * g + group, g))]
    return [comp for comp in comps if len(comp) > 1 or own[comp[0]]] + loops


def _relabel(label: np.ndarray, skip: np.ndarray, src: np.ndarray,
             first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Rows ``(source, first, last)`` mapped onto new ids: ``label[i]`` is
    the new id of ``i``, or the last one before ``i`` if ``i`` is skipped, so
    a range maps to the new ids from that of its first id (the next one if
    that id is skipped) to that of its last id.  The ranges of skipped
    sources, and ranges that meet only skipped ids, are dropped."""
    lo, hi = (label + skip)[first], label[last]
    meets = (lo <= hi) & ~skip[src]
    return np.stack((label[src], lo, hi)).compress(meets, axis=1)


def _component_of(rows: RangeRows, src: np.ndarray, pivot: int) -> np.ndarray:
    """Mask of ``pivot``'s strongly connected component; ``src[j]`` is the
    source of range ``j``.  Forward reach goes one level at a time: the
    frontier's ranges, as a difference array, mark the ids they cover.
    Backward reach runs inside the forward set, whose ids alone can lie on a
    path back to ``pivot``: a range meets the ids found so far where the
    prefix counts at its ends differ, and a source drops its ranges once
    found."""
    n = rows.n
    ahead = np.zeros(n, dtype=bool)
    ahead[pivot] = True
    frontier = np.array([pivot])
    while len(frontier):
        _, j = expand_ranges(rows.indptr[frontier], rows.indptr[frontier + 1] - 1)
        cover = np.bincount(rows.first[j], minlength=n + 1) \
            - np.bincount(rows.last[j] + 1, minlength=n + 1)
        frontier = np.flatnonzero((np.cumsum(cover[:-1]) > 0) & ~ahead)
        ahead[frontier] = True
    behind = np.zeros(n, dtype=bool)
    behind[pivot] = True
    # the ranges of the other sources ahead, as source, first and last + 1
    j = ahead[src] & (src != pivot)
    src, lo, hi = src[j], rows.first[j], rows.last[j] + 1
    while True:
        count = np.concatenate(([0], np.cumsum(behind)))
        meets = count[hi] > count[lo]
        if not meets.any():
            return ahead & behind
        behind[src[meets]] = True
        j = ~behind[src]
        src, lo, hi = src[j], lo[j], hi[j]


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
