"""Transformations of the finite state set Q_n = {0, ..., n-1}.

A transformation is a total self-map of Q_n, stored in one-line notation:
``image[q]`` is the state that ``q`` is sent to.  Composition order is fixed
throughout the package as *left argument first*: ``compose(s, t)`` applies
``s`` and then ``t``, so that the map of a word ``uv`` is
``compose(map_of_u, map_of_v)``.  Both conventions exist in the literature;
everything here (semigroup closure, DFA transitions, case analysis) relies on
this one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence


class NotationError(ValueError):
    """Malformed transformation notation or out-of-range state index."""


@dataclass(frozen=True, slots=True)
class Transformation:
    """A total map of Q_n into itself, as the tuple (0t, 1t, ..., (n-1)t)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        n = len(image)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for q, r in enumerate(image):
            # bool is a subclass of int, and no state index.
            if not (type(r) is int and 0 <= r < n):
                raise ValueError(f"image of state {q} is {r!r}, not in [0, {n})")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, q: int) -> int:
        return self.image[q]

    def __mul__(self, other: "Transformation") -> "Transformation":
        """``s * t`` applies ``s`` first, then ``t`` (see module docstring)."""
        return compose(self, other)

    def __str__(self) -> str:
        return format_notation(self)

    def packed(self) -> bytes:
        """Compact byte form used by the closure engine (requires n <= 255)."""
        return bytes(self.image)


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def constant(n: int, q: int) -> Transformation:
    """The constant map (Q -> q)."""
    _check_state(q, n)
    return Transformation((q,) * n)


def point(n: int, p: int, q: int) -> Transformation:
    """The map (p -> q) sending p to q and fixing every other state."""
    _check_state(p, n)
    _check_state(q, n)
    img = list(range(n))
    img[p] = q
    return Transformation(tuple(img))


def cycle(n: int, points: Sequence[int]) -> Transformation:
    """The k-cycle (p0, ..., p_{k-1}), acting as identity off the cycle."""
    if len(points) < 2:
        raise ValueError("a cycle needs at least two states")
    if len(set(points)) != len(points):
        raise ValueError(f"cycle {points!r} repeats a state")
    for p in points:
        _check_state(p, n)
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return Transformation(tuple(img))


def compose(s: Transformation, t: Transformation) -> Transformation:
    """The composite mapping q to (qs)t: apply ``s`` first, then ``t``."""
    if s.n != t.n:
        raise ValueError(f"size mismatch: {s.n} vs {t.n}")
    ti = t.image
    return Transformation(tuple(ti[q] for q in s.image))


def conjugate(t: Transformation, perm: Sequence[int]) -> Transformation:
    """Relabel states by the permutation: new_image[perm[q]] = perm[image[q]]."""
    n = t.n
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"{perm!r} is not a permutation of Q_{n}")
    img = [0] * n
    for q, r in enumerate(t.image):
        img[perm[q]] = perm[r]
    return Transformation(tuple(img))


_ONE_LINE = re.compile(r"^\[([^][]*)\]$")
_PAREN = re.compile(r"^\(([^()]*)\)$")


def parse_notation(text: str, n: int) -> Transformation:
    """Parse one of the four notations into a transformation of Q_n.

    Accepted grammars (whitespace-insensitive, decimal state indices):

    * one-line:  ``[q0, q1, ..., q_{n-1}]``
    * cycle:     ``(p0, p1, ..., p_{k-1})`` with k >= 2, identity elsewhere
    * constant:  ``(Q -> q)``
    * point:     ``(p -> q)``, identity off p
    * identity:  ``1``
    """
    if n < 1:
        raise ValueError("n must be positive")
    squeezed = "".join(text.split())
    if squeezed == "1":
        return identity(n)
    m = _ONE_LINE.match(squeezed)
    if m:
        entries = _parse_indices(m.group(1), n, text)
        if len(entries) != n:
            raise NotationError(f"{text!r}: expected {n} entries, got {len(entries)}")
        return Transformation(tuple(entries))
    m = _PAREN.match(squeezed)
    if m:
        body = m.group(1)
        if "->" in body:
            left, _, right = body.partition("->")
            q = _parse_index(right, n, text)
            if left == "Q":
                return constant(n, q)
            p = _parse_index(left, n, text)
            return point(n, p, q)
        points = _parse_indices(body, n, text)
        if len(points) < 2:
            raise NotationError(f"{text!r}: a cycle needs at least two states")
        if len(set(points)) != len(points):
            raise NotationError(f"{text!r}: cycle repeats a state")
        return cycle(n, points)
    raise NotationError(f"{text!r}: not a recognized transformation notation")


def format_notation(t: Transformation) -> str:
    """Canonical serialization: one-line notation, e.g. ``[1,2,0]``."""
    return "[" + ",".join(str(q) for q in t.image) + "]"


def _check_state(q: int, n: int) -> None:
    if not (isinstance(q, int) and 0 <= q < n):
        raise NotationError(f"state {q!r} out of range [0, {n})")


def _parse_index(token: str, n: int, context: str) -> int:
    if not token.isdecimal():
        raise NotationError(f"{context!r}: bad state index {token!r}")
    q = int(token)
    if q >= n:
        raise NotationError(f"{context!r}: state {q} out of range [0, {n})")
    return q


def _parse_indices(body: str, n: int, context: str) -> list[int]:
    if not body:
        raise NotationError(f"{context!r}: empty index list")
    return [_parse_index(tok, n, context) for tok in body.split(",")]
