"""Bi-infinite admissible vertex sequences with eventually periodic ends.

A sequence is represented by a left period (repeated toward -infinity), a
finite core, a right period (repeated toward +infinity) and an integer
origin shift.  This family is dense in the full path space, closed under
the shift, and lets the weighted mismatch metric be evaluated to any
certified accuracy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import DirectedGraph, ValidationError, connector, require_valid


@dataclass(frozen=True)
class SymbolicSequence:
    """Eventually periodic bi-infinite admissible path in a directed graph.

    Layout before the origin shift: ``left_period`` repeats on negative
    indices, ``core`` occupies ``[0, len(core))`` and ``right_period``
    repeats from ``len(core)`` on.  ``index_shift`` relocates the origin:
    ``at(i)`` reads the layout at ``i + index_shift``.
    """

    graph: DirectedGraph
    left_period: tuple[int, ...]
    core: tuple[int, ...]
    right_period: tuple[int, ...]
    index_shift: int = 0

    def __post_init__(self) -> None:
        g = require_valid(self.graph)
        left, core, right = self.left_period, self.core, self.right_period
        if not left or not right:
            raise ValidationError("period words must be nonempty")
        for word in (left, core, right):
            if word and not (0 <= min(word) and max(word) < g.n):
                s = next(s for s in word if not 0 <= s < g.n)
                raise ValidationError(f"symbol {s} out of range")
        # two walks hold every word's pairs, both period wraps and both
        # junctions (with an empty core, the right junction is the left one)
        edges = g.edges
        wrap, through = left + left[:1], left[-1:] + core + right + right[:1]
        if edges.issuperset(zip(wrap, wrap[1:])) and edges.issuperset(zip(through, through[1:])):
            return
        # name the first bad pair: each word's, then the wraps, then the junctions
        words = ((left, "left period"), (core, "core"), (right, "right period"))
        joins = [(left[-1], left[0], "left period wrap"),
                 (right[-1], right[0], "right period wrap"),
                 (left[-1], (core or right)[0], "left junction"),
                 ((core or left)[-1], right[0], "right junction")]
        pairs = [(a, b, name) for word, name in words for a, b in zip(word, word[1:])]
        a, b, where = next(p for p in pairs + joins if p[:2] not in edges)
        raise ValidationError(
            f"inadmissible transition {g.label_of(a)}->{g.label_of(b)} ({where})")

    # -- evaluation ---------------------------------------------------------

    def at(self, i: int) -> int:
        j = i + self.index_shift
        if 0 <= j < len(self.core):
            return self.core[j]
        if j >= len(self.core):
            return self.right_period[(j - len(self.core)) % len(self.right_period)]
        return self.left_period[j % len(self.left_period)]

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        """Symbols at indices lo..hi inclusive: the left-period, core and
        right-period parts of that range, each read as one slice."""
        a, b = lo + self.index_shift, hi + self.index_shift + 1  # layout [a, b)
        n = len(self.core)
        return (_repeated(self.left_period, a, min(b, 0) - a)
                + self.core[max(a, 0):max(min(b, n), 0)]
                + _repeated(self.right_period, max(a, n) - n, b - max(a, n)))

    # boundaries of the purely periodic regions, in shifted (actual) indices
    @property
    def left_boundary(self) -> int:
        """Indices strictly below this are governed by the left period."""
        return -self.index_shift

    @property
    def right_boundary(self) -> int:
        """Indices at or above this are governed by the right period."""
        return len(self.core) - self.index_shift


def _repeated(period: tuple[int, ...], start: int, length: int) -> tuple[int, ...]:
    """``length`` symbols of ``period`` repeated forever both ways, from its
    index ``start`` (any integer, read modulo the period)."""
    if length <= 0:
        return ()
    start %= len(period)
    return (period * ((start + length - 1) // len(period) + 1))[start:start + length]


def shift_discrete(x: SymbolicSequence, k: int) -> SymbolicSequence:
    """Shifted sequence: at(result, i) == at(x, i + k).  A shift moves only
    the origin, and ``x`` was validated when it was built, so the result is
    a copy of ``x`` with a new ``index_shift``, not validated again."""
    shifted = object.__new__(type(x))
    shifted.__dict__.update(x.__dict__, index_shift=x.index_shift + k)
    return shifted


def concat_past_future(past: SymbolicSequence, future: SymbolicSequence) -> SymbolicSequence:
    """Sequence equal to ``past`` at indices < 0 and to ``future`` at >= 0.

    Raises ValidationError if the junction pair is not an edge.
    """
    lo = min(-1, past.left_boundary)
    hi = max(0, future.right_boundary)
    p = len(past.left_period)
    left = tuple(past.at(lo - p + r) for r in range(p))
    core = tuple(past.at(i) for i in range(lo, 0)) + \
        tuple(future.at(i) for i in range(0, hi))
    right = tuple(future.at(hi + r) for r in range(len(future.right_period)))
    return SymbolicSequence(past.graph, left, core, right, -lo)


def constant_sequence(g: DirectedGraph, v: int) -> SymbolicSequence:
    if not g.has_edge(v, v):
        raise ValidationError(f"vertex {g.label_of(v)} has no self-loop")
    return SymbolicSequence(g, (v,), (), (v,))


def periodic_sequence(g: DirectedGraph, word: Sequence[int]) -> SymbolicSequence:
    """Bi-infinite repetition of ``word`` aligned so index 0 holds word[0]."""
    w = tuple(word)
    return SymbolicSequence(g, w, (), w)


def cycle_word(g: DirectedGraph, allowed: frozenset[int] | set[int], v: int) -> tuple[int, ...]:
    """A closed admissible walk through v inside ``allowed``, as a period word."""
    inter = connector(g, allowed, v, v)
    if inter is None:
        raise ValidationError(f"no cycle through {g.label_of(v)} inside the component")
    return (v, *inter)


# -- metric ----------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def truncation_order(tol: float) -> int:
    """Smallest N with the two-sided tail bound 2*4^(-N)/3 <= tol."""
    if not 0 < tol < math.inf:
        raise ValidationError("tolerance must be positive and finite")
    n = 0
    while 2.0 * 4.0 ** (-n) / 3.0 > tol:
        n += 1
    return n


@functools.lru_cache(maxsize=64)
def metric_weights(n: int) -> tuple[float, ...]:
    """The weights 4^(-|i|) of cells i = -n..n, item i + n."""
    return tuple(4.0 ** (-abs(i)) for i in range(-n, n + 1))


def metric_omega(x: SymbolicSequence, y: SymbolicSequence, tol: float = 1e-12) -> float:
    """Weighted mismatch distance sum_i [x_i != y_i] * 4^(-|i|), within tol.

    The sum is truncated at the smallest N whose geometric tail is below
    tol, so the result is certified to that accuracy.  Each sequence is
    read once, as its window of indices -N..N.
    """
    if x.graph is not y.graph and x.graph != y.graph:
        raise ValidationError("sequences live over different graphs")
    n = truncation_order(tol)
    a, b, w = x.window(-n, n), y.window(-n, n), metric_weights(n)
    total = 1.0 if a[n] != b[n] else 0.0
    for i in range(1, n + 1):  # cells i and -i are items n + i and n - i
        if a[n + i] != b[n + i]:
            total += w[n + i]
        if a[n - i] != b[n - i]:
            total += w[n + i]
    return total


# -- admissible word machinery ----------------------------------------------

def enumerate_admissible_words(g: DirectedGraph, component: Iterable[int],
                               length: int) -> list[tuple[int, ...]]:
    """All length-``length`` walks staying inside ``component``, lexicographic."""
    if length < 1:
        raise ValidationError("word length must be >= 1")
    allowed = sorted(set(component))
    allowed_set = frozenset(allowed)
    words: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = [((v,), 1) for v in reversed(allowed)]
    while stack:
        word, k = stack.pop()
        if k == length:
            words.append(word)
            continue
        for w in reversed(g.successors(word[-1])):
            if w in allowed_set:
                stack.append(((*word, w), k + 1))
    return words


def transitive_sequence(g: DirectedGraph, component: Iterable[int],
                        length: int) -> SymbolicSequence:
    """A sequence whose right tail visits every admissible word of the
    component up to the given length.

    Words are concatenated with shortest connecting walks and closed into a
    period; the left tail is a fixed cycle in the component.  The forward
    orbit of the result therefore comes close to every sequence of the
    component's lift, up to the finite horizon tested.
    """
    allowed = frozenset(component)
    words = enumerate_admissible_words(g, allowed, length)
    if not words:
        raise ValidationError("component admits no words; it has no cycle")
    walk = list(words[0])
    for word in words[1:]:
        u, v = walk[-1], word[0]
        if u == v:
            walk.extend(word[1:])
        elif g.has_edge(u, v):
            walk.extend(word)
        else:
            bridge = connector(g, allowed, u, v)
            if bridge is None:
                raise ValidationError("component is not strongly connected")
            walk.extend(bridge)
            walk.extend(word)
    closing = connector(g, allowed, walk[-1], walk[0])
    if closing is None:
        raise ValidationError("component has no closing cycle")
    right = tuple(walk) + tuple(closing)
    anchor = min(allowed)
    left = cycle_word(g, allowed, anchor)
    bridge = connector(g, allowed, left[-1], right[0])
    if bridge is None:
        raise ValidationError("component is not strongly connected")
    return SymbolicSequence(g, left, tuple(bridge), right)


def contains_factor(x: SymbolicSequence, word: Sequence[int], lo: int, hi: int) -> bool:
    """Whether ``word`` occurs contiguously in x within index window [lo, hi]."""
    w = tuple(word)
    window = x.window(lo, hi)
    return any(window[i:i + len(w)] == w for i in range(len(window) - len(w) + 1))


@dataclass(frozen=True)
class ChaosCertificate:
    """Outcome of the per-component dichotomy: one periodic orbit or chaos."""

    kind: str  # "periodic_orbit" | "chaotic"
    orbit: tuple[int, ...] | None = None
    witness: int | None = None


def chaos_certificate(g: DirectedGraph, component: Iterable[int]) -> ChaosCertificate:
    """Classify the component's lift.

    If every vertex has exactly one successor inside the component the lift
    is a single periodic orbit and the cycle word is returned; otherwise
    some vertex branches and the flow on the lift is chaotic, and that
    vertex witnesses sensitive dependence.
    """
    allowed = sorted(set(component))
    allowed_set = frozenset(allowed)
    internal = {v: [w for w in g.successors(v) if w in allowed_set] for v in allowed}
    for v in allowed:
        if len(internal[v]) >= 2:
            return ChaosCertificate("chaotic", witness=v)
    if any(not internal[v] for v in allowed):
        raise ValidationError("component has a vertex with no internal successor; "
                              "its lift is empty")
    start = allowed[0]
    orbit = [start]
    cur = internal[start][0]
    while cur != start:
        orbit.append(cur)
        cur = internal[cur][0]
    if len(orbit) != len(allowed):
        raise ValidationError("component is not a single cycle")
    return ChaosCertificate("periodic_orbit", orbit=tuple(orbit))

