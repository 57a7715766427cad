"""Witness DFA families attaining the syntactic-complexity bounds, the bound
formulas, and closed-form descriptions of the maximal transition semigroups.

The closed forms are deliberately built by direct enumeration, independent of
the closure engine, so that ``expected_semigroup`` can cross-validate
``transition_semigroup(build(...))`` element by element.
"""

from __future__ import annotations

import enum
from itertools import chain, product

from .dfa import Dfa
from .semigroup import TransformationSemigroup
from .transform import Transformation, constant, cycle, identity, point


class IdealClass(enum.Enum):
    RIGHT = "right"
    LEFT = "left"
    TWO_SIDED = "two-sided"

    @classmethod
    def from_string(cls, text: str) -> "IdealClass":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown ideal class {text!r}")


#: Smallest state count with a witness, per class.
MIN_N = {IdealClass.RIGHT: 1, IdealClass.LEFT: 1, IdealClass.TWO_SIDED: 2}


def _check_range(klass: IdealClass, n: int) -> None:
    if n < MIN_N[klass]:
        raise ValueError(f"{klass.value} witness needs n >= {MIN_N[klass]}")


def build(klass: IdealClass, n: int) -> Dfa:
    """The witness DFA with n states for the given ideal class.

    Letters follow the defining construction (a, b, c, d, e, f as applicable);
    where two letters would induce the same transformation at small n, the
    redundant one is dropped.  The smallest sizes are explicit tables.
    """
    _check_range(klass, n)
    if klass is IdealClass.RIGHT:
        return _build_right(n)
    if klass is IdealClass.LEFT:
        return _build_left(n)
    return _build_two_sided(n)


def _build_right(n: int) -> Dfa:
    if n == 1:
        return Dfa(("a",), (identity(1),), 0, frozenset({0}))
    if n == 2:
        return Dfa(("a", "b"), (point(2, 0, 1), identity(2)), 0, frozenset({1}))
    letters = {
        "a": cycle(n, tuple(range(n - 1))),
        "b": cycle(n, (0, 1)),
        "c": point(n, n - 2, 0),
        "d": point(n, n - 2, n - 1),
    }
    if n == 3:
        del letters["b"]  # coincides with a
    names = tuple(letters)
    return Dfa(names, tuple(letters[a] for a in names), 0, frozenset({n - 1}))


def _build_left(n: int) -> Dfa:
    if n == 1:
        return Dfa(("a",), (identity(1),), 0, frozenset({0}))
    if n == 2:
        # One letter into the final sink, one identity, one letter back out:
        # together they induce all three initially aperiodic maps of Q_2.
        return Dfa(
            ("a", "b", "c"),
            (point(2, 0, 1), identity(2), point(2, 1, 0)),
            0,
            frozenset({1}),
        )
    letters = {
        "a": cycle(n, tuple(range(1, n))),
        "b": cycle(n, (1, 2)),
        "c": point(n, n - 1, 1),
        "d": point(n, n - 1, 0),
        "e": constant(n, 1),
    }
    if n == 3:
        del letters["b"]  # coincides with a
    names = tuple(letters)
    return Dfa(names, tuple(letters[a] for a in names), 0, frozenset({n - 1}))


def _build_two_sided(n: int) -> Dfa:
    if n == 2:
        return Dfa(("a", "b"), (point(2, 0, 1), identity(2)), 0, frozenset({1}))
    if n == 3:
        return Dfa(
            ("a", "b", "c"),
            (
                Transformation((1, 2, 2)),  # (1->2)(0->1)
                Transformation((0, 0, 2)),  # (1->0)
                identity(3),
            ),
            0,
            frozenset({2}),
        )
    letters = {
        "a": cycle(n, tuple(range(1, n - 1))),
        "b": cycle(n, (1, 2)),
        "c": point(n, n - 2, 1),
        "d": point(n, n - 2, 0),
        "e": Transformation(tuple(1 if q < n - 1 else n - 1 for q in range(n))),
        "f": point(n, 1, n - 1),
    }
    if n == 4:
        del letters["b"]  # coincides with a
    names = tuple(letters)
    return Dfa(names, tuple(letters[a] for a in names), 0, frozenset({n - 1}))


def bound(klass: IdealClass, n: int) -> int:
    """The syntactic-complexity bound for the class at state count n."""
    _check_range(klass, n)
    if klass is IdealClass.RIGHT:
        return n ** (n - 1)
    if klass is IdealClass.LEFT:
        return n ** (n - 1) + n - 1
    return n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1


def expected_semigroup(klass: IdealClass, n: int) -> TransformationSemigroup:
    """The maximal transition semigroup, built from its closed-form
    description without running any closure.

    * right:     all maps fixing the final sink n-1;
    * left:      all maps fixing 0, plus the constants (Q -> p) for p != 0;
    * two-sided: all maps fixing 0 and n-1; for each p in {1..n-2} all maps
      sending a subset of {1..n-2} together with n-1 to n-1 and everything
      else to p; and the constant (Q -> n-1).

    Each family is an ``itertools.product`` enumeration of image sequences,
    one factor per state (a single value where the state's image is forced),
    packed straight into bytes.
    """
    _check_range(klass, n)
    states = [range(n)]
    if klass is IdealClass.RIGHT:
        maps = product(*states * (n - 1), [n - 1])
    elif klass is IdealClass.LEFT:
        maps = chain(product([0], *states * (n - 1)), ([p] * n for p in range(1, n)))
    else:
        maps = chain(
            product([0], *states * (n - 2), [n - 1]),
            *(product([p], *[(p, n - 1)] * (n - 2), [n - 1]) for p in range(1, n - 1)),
            [[n - 1] * n],
        )
    return TransformationSemigroup(
        n=n, images=frozenset(map(bytes, maps)), generators=tuple(build(klass, n).delta)
    )
