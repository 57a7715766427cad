"""Witness DFA families attaining the syntactic-complexity bounds, the bound
formulas, and closed-form descriptions of the maximal transition semigroups.

A closed form is enumerated on demand and never closed or stored: it is a
few pairwise-disjoint ``itertools.product`` families of image sequences, a
description independent of the closure engine, so ``expected_semigroup``
can cross-validate ``transition_semigroup(build(...))``.  Equality with a
set of packed maps is equal length plus every element of that set lying in
the closed form, tested one by one.  A closure that kept one representative
per orbit of its unit group G (an ``OrbitUnion``) is a union of whole
orbits, and so is a closed form invariant under G
(``ClosedForm.invariant_under``, decided from the families): then equal
length plus every representative in the form decides equality, and no
element is listed.  That holds for every witness closure past
``SPLIT_FRONTIER``; at n=9 it takes ~0.01 s, against ~5 s to list the 43M
maps of the right or left closure.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Set
from itertools import chain, product
from math import prod

from .dfa import Dfa, preorder
from .semigroup import OrbitUnion, TransformationSemigroup
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


class ClosedForm(Set):
    """A set of packed maps on n states given by a closed form, enumerated on
    demand and never stored.

    Each family is a triple (first, middle, last) of allowed images: every
    state maps into ``middle``, and state 0 also into ``first`` and state
    n-1 also into ``last``.  The families' ``first`` values must be
    pairwise disjoint, so the families are disjoint and the image of state 0
    picks the one family a map can lie in.  The length is the sum of the
    family sizes and iteration enumerates the families in order.  Equality
    is decided from the representatives of an ``OrbitUnion`` whose group
    leaves the form invariant, and element by element otherwise (``__eq__``).
    Closed forms are not hashable.
    """

    def __init__(
        self, n: int, families: Iterable[tuple[Iterable[int], Iterable[int], Iterable[int]]]
    ) -> None:
        # As in a closure, every map packs one state per byte.
        if not 1 <= n <= 255:
            raise ValueError(f"a closed form needs 1 <= n <= 255, got {n}")
        self.n = n
        self._zeros = bytes(n)
        # Per family: first and last cut down to middle (to both at n = 1),
        # middle, and a table sending middle to 0 and every other byte to 1.
        self._families: list[tuple[bytes, bytes, bytes, bytes]] = []
        self._by_first: dict[bytes, tuple[bytes, bytes, bytes, bytes]] = {}
        for first, middle, last in families:
            middle = bytes(middle)
            first = bytes(v for v in first if v in middle)
            last = bytes(v for v in last if v in middle)
            if n == 1:
                first = last = bytes(v for v in first if v in last)
            family = (first, middle, last, bytes(v not in middle for v in range(256)))
            self._families.append(family)
            for v in first:
                if bytes([v]) in self._by_first:
                    raise ValueError(f"two families allow state 0 to map to {v}")
                self._by_first[bytes([v])] = family
        #: The number of maps; ``len`` gives it too up to ``sys.maxsize``,
        #: which the right and left forms pass at n = 17.
        self.size = sum(prod(map(len, self._factors(f))) for f in self._families)

    def _factors(self, family: tuple[bytes, bytes, bytes, bytes]) -> tuple[bytes, ...]:
        """The allowed images of each state under the family."""
        first, middle, last, _ = family
        if self.n == 1:
            return (first,)
        return (first, *[middle] * (self.n - 2), last)

    @classmethod
    def _from_iterable(cls, it: Iterable[bytes]) -> frozenset[bytes]:
        # The Set operators (&, |, -, ^) build plain frozensets.
        return frozenset(it)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[bytes]:
        return chain.from_iterable(
            map(bytes, product(*self._factors(f))) for f in self._families
        )

    def __contains__(self, e: object) -> bool:
        if not isinstance(e, bytes):
            return False
        family = self._by_first.get(e[:1])
        # translate() keeps the length, so the comparison also checks it.
        return (
            family is not None
            and e[-1] in family[2]
            and e.translate(family[3]) == self._zeros
        )

    def __eq__(self, other: object) -> bool:
        """Equal length, and every element of ``other`` in the form.  For an
        ``OrbitUnion`` of a group G that leaves the form invariant
        (``invariant_under(other.moved)``), each orbit lies in the form
        whole or not at all, so only the representatives are tested; every
        other set is tested element by element."""
        if not isinstance(other, Set):
            return NotImplemented
        if len(other) != self.size:
            return False
        if (
            isinstance(other, OrbitUnion)
            and other.n == self.n
            and self.invariant_under(other.moved)
        ):
            return all(map(self.__contains__, other.representatives))
        return all(map(self.__contains__, other))

    def invariant_under(self, moved: bytes) -> bool:
        """Whether renumbering the values in ``moved`` by any permutation p
        of them (the map t to t*p) keeps every map of the form in it.

        Sym(``moved``) is generated by a cycle through ``moved`` and the
        transposition of its first two states, so those two are tested.  p
        sends a non-empty family to the maps whose state 0 takes a value v in
        p(first) and whose every other state q takes one in p(A_q), A_q the
        family's middle (0 < q < n-1) or last (q = n-1).  The families are
        told apart by state 0, so these maps lie in the form exactly when,
        for every such v, the family v picks allows each p(A_q) at q.
        """
        n = self.n
        # Indices of middle and last within a family, for the states they bound.
        tails = [i for i, present in ((1, n > 2), (2, n > 1)) if present]
        for image in (moved[1:] + moved[:1], moved[1:2] + moved[:1] + moved[2:]):
            table = bytes.maketrans(moved, image)
            for family in self._families:
                if not all(family[i] for i in tails):
                    continue  # no map lies in it
                moved_tails = [set(family[i].translate(table)) for i in tails]
                for v in family[0].translate(table):
                    target = self._by_first.get(bytes([v]))
                    if target is None or not all(
                        allowed <= set(target[i]) for i, allowed in zip(tails, moved_tails)
                    ):
                        return False
        return True


def expected_semigroup(klass: IdealClass, n: int) -> TransformationSemigroup:
    """The maximal transition semigroup as a ``ClosedForm``, enumerated on
    demand and never closed:

    * right:     all maps fixing the final sink n-1;
    * left:      all maps fixing 0, plus the constants (Q -> p) for p != 0;
    * two-sided: all maps fixing 0 and n-1; for each p in {1..n-2} all maps
      sending a subset of {1..n-2} together with n-1 to n-1 and everything
      else to p; and the constant (Q -> n-1).

    Each family is an ``itertools.product`` of the allowed images of state
    0, of each of the states 1..n-2, and of state n-1.  The images compare
    equal to a set of packed maps when the lengths agree and every map of
    that set lies in one of the families.  Each
    form is invariant under the symmetric group on the states the witness's
    permutation letters move (0..n-2 for right, 1..n-1 for left, 1..n-2 for
    two-sided), so a closure by orbits of that group is compared from its
    representatives.
    """
    _check_range(klass, n)
    states = range(n)
    if klass is IdealClass.RIGHT:
        families = [(states, states, [n - 1])]
    elif klass is IdealClass.LEFT:
        families = [([0], states, states), *(([p], [p], [p]) for p in range(1, n))]
    else:
        families = [
            ([0], states, [n - 1]),
            *(([p], (p, n - 1), [n - 1]) for p in range(1, n - 1)),
            ([n - 1], [n - 1], [n - 1]),
        ]
    return TransformationSemigroup(
        n=n, images=ClosedForm(n, families), generators=tuple(build(klass, n).delta)
    )


def has_maximal_order(d: Dfa, klass: IdealClass) -> bool:
    """Whether ``preorder(d)`` is P*, an antichain with 0 below it (left, two-sided)
    and the one final state above it (right, two-sided), and every letter preserves
    P* and fixes its top.  T then lies in M(P*), ``expected_semigroup`` relabeled,
    and sigma = bound makes them equal, even if ``preorder`` is wrong."""
    n, low = d.n, None if klass is IdealClass.RIGHT else 0
    tops = () if klass is IdealClass.LEFT else d.finals
    leq = tuple(tuple(p in (q, low) or q in tops for q in range(n)) for p in range(n))
    pairs = [(p, q) for p in range(n) for q in range(n) if leq[p][q]]
    return (klass is IdealClass.LEFT or len(tops) == 1) and preorder(d).leq == leq and all(
        all(m[t] == t for t in tops) and all(leq[m[p]][m[q]] for p, q in pairs)
        for m in d.transitions.maps
    )
