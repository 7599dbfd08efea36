"""Text literals for sequences and signals.

Sequence form: ``left=(A B) core=[B A] right=(A) shift=0``; a signal adds
``tau=<real>`` and ``h=<real>``.  Vertices may be labels or indices.
"""
from __future__ import annotations

import re

from .graph import DirectedGraph, ValidationError
from .sequences import SymbolicSequence
from .signals import SwitchingSignal

_TOKEN = re.compile(r"(\w+)\s*=\s*(\(([^)]*)\)|\[([^\]]*)\]|[^\s()\[\]]+)")
SEQUENCE_KEYS = ("left", "core", "right", "shift")
SIGNAL_KEYS = SEQUENCE_KEYS + ("tau", "h")


class LiteralError(ValidationError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def _parse_fields(text: str, keys: tuple[str, ...]) -> dict[str, tuple[str, int]]:
    """``key -> (value, position)`` for each ``key=value`` of ``text``; a key
    outside ``keys`` is an error at its position."""
    out: dict[str, tuple[str, int]] = {}
    pos = 0
    for match in _TOKEN.finditer(text):
        start, end = match.span()
        between = text[pos:start].strip()
        if between:
            raise LiteralError(f"unexpected text {between!r}", pos)
        key, value, paren, bracket = match.groups()
        if key not in keys:
            raise LiteralError(f"unknown key {key!r}; expected one of {', '.join(keys)}",
                               start)
        if key in out:
            raise LiteralError(f"duplicate key {key!r}", start)
        inner = paren if paren is not None else bracket
        out[key] = (inner if inner is not None else value, start)
        pos = end
    tail = text[pos:].strip()
    if tail:
        raise LiteralError(f"unexpected trailing text {tail!r}", pos)
    return out


def _word(g: DirectedGraph, text: str, position: int) -> tuple[int, ...]:
    toks = text.split()
    try:  # labels and plain indices; other spellings, such as "01", below
        return tuple(map(g._vertex_by_token.__getitem__, toks))
    except KeyError:
        pass
    try:
        return tuple(g.index_of(t) for t in toks)
    except ValidationError as exc:
        raise LiteralError(str(exc), position) from exc


def parse_sequence(g: DirectedGraph, text: str) -> SymbolicSequence:
    return _sequence(g, _parse_fields(text, SEQUENCE_KEYS), text)


def _sequence(g: DirectedGraph, fields: dict[str, tuple[str, int]],
              text: str) -> SymbolicSequence:
    """The sequence named by the parsed ``fields`` of ``text``."""
    for key in ("left", "right"):
        if key not in fields:
            raise LiteralError(f"missing {key}=(...)", len(text))
    left, core, right = (_word(g, *fields.get(key, ("", 0))) for key in ("left", "core", "right"))
    return SymbolicSequence(g, left, core, right, _number(fields, "shift", 0, int))


def _number(fields: dict[str, tuple[str, int]], key: str, default: float | None,
            convert: type) -> float | None:
    """``convert`` (``int`` or ``float``) of ``key``'s text, else ``default``."""
    if key not in fields:
        return default
    text, position = fields[key]
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a real"
        raise LiteralError(f"{key} must be {kind}, got {text!r}", position)


def parse_signal(g: DirectedGraph, text: str, default_h: float | None = None) -> SwitchingSignal:
    fields = _parse_fields(text, SIGNAL_KEYS)
    base = _sequence(g, fields, text)
    tau = _number(fields, "tau", 0.0, float)
    h = _number(fields, "h", default_h, float)
    if h is None:
        raise LiteralError("missing h=<real>", len(text))
    return SwitchingSignal(base, tau, h)


def format_sequence(x: SymbolicSequence) -> str:
    g = x.graph
    def word(w):
        return " ".join(g.label_of(s) for s in w)
    return (f"left=({word(x.left_period)}) core=[{word(x.core)}] "
            f"right=({word(x.right_period)}) shift={x.index_shift}")


def format_signal(f: SwitchingSignal) -> str:
    return f"{format_sequence(f.base)} tau={f.offset!r} h={f.step!r}"
