"""Semigroups of transformations, generated by closure under composition.

The closure engine is the performance core of the package: elements are kept
as packed byte strings and right-multiplication by a generator is a single
``bytes.translate`` call, mapped over the whole frontier, with the repeat
products filtered out in C.

Known relations among the generators (Froidure & Pin 1997) spare products
too.  An element first made as t*g, multiplied by h, is t*(g*h); when g*h is
a generator or the identity, that product was formed from t a round earlier.
So once a round's frontier outgrows ``SPLIT_FRONTIER`` elements, each round
lists its new elements by the generator that made them, and h's pass skips
the list of every such g.  The passes whose lists are skipped most run
first, so that they are credited with the elements several passes make.  On
the witnesses at n=8 (the transposition b has b*b = 1, the idempotents c*c =
c and c*d = c, the left witness's constant e has x*e = e) that forms 20%
(right), 36% (left) and 31% (two-sided) fewer products.  Below the switch the
per-generator lists would cost more than they save.

On the witness semigroups at n=7 and n=8 (2.1M elements each for right and
left ideals at n=8) the engine closes about 6.8e5 elements/s
(``semigroup.closure.elements_per_s`` of the benchmark's ``closure``
workload, median of four traced runs at seed 7919, which read 6.3e5-7.4e5;
CPython 3.11.7, shared 2-vCPU x86_64 host).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, filterfalse, permutations, repeat
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Sequence

from .transform import Transformation, conjugate

#: Default element cap of a closure: just above the largest witness semigroup
#: at n <= 8 (the left ideal one, 2,097,159 elements).
DEFAULT_CAP = 2_100_000

#: Largest semigroup minimal_generator_count will decompose without an override.
#: Finding the J-classes and their up-sets is polynomial in |S|, but inside
#: each class the search still tries every k-subset of the class's elements
#: not yet generated from above, up to the least k that works; the budget
#: bounds |S| and with it the size of every class searched.
GENERATOR_SEARCH_BUDGET = 100

#: Frontier length beyond which a closure keeps each round's new elements in
#: one list per generator that made them, so that it can skip the products a
#: generator relation proves repeated (``_close_by_relations``).  Setting up
#: those lists costs more than it saves on small closures: split from the
#: first round, the 32,640 two-letter closures at n=4 take ~50 us each
#: instead of ~18 us.  No n=4 sweep closure (at most 256 elements) and none
#: of the benchmark's sampled campaigns (at most 167) reaches this length.
SPLIT_FRONTIER = 1024

#: Relabeling search is factorial in the movable states; refuse beyond this.
RELABEL_MAX_N = 7


class SearchInfeasible(RuntimeError):
    """An exact search was requested outside its documented budget."""


class CapExceeded(RuntimeError):
    """A closure needed as an intermediate value exceeded its element cap."""


@dataclass(frozen=True)
class ClosureOverflow:
    """First-class result of a closure that exceeded its cap."""

    n: int
    cap: int
    generators: tuple[Transformation, ...]


@dataclass(frozen=True)
class TransformationSemigroup:
    """A finite set of transformations closed under composition.

    ``images`` holds the packed element bodies: for a closure, the very
    ``set`` the closure grew (copying it into a frozenset would double the
    table), or a closed form (``witness.expected_semigroup``) that is
    enumerated on demand.  Either is read-only by convention and neither is
    hashable, so neither is a semigroup holding one.  ``generators`` records
    the provenance (each generator is an element, and every element is a
    composite of one or more generators).  The identity is present only if
    it is such a composite: this is a semigroup, not a monoid.
    """

    n: int
    images: AbstractSet[bytes]
    generators: tuple[Transformation, ...]

    @property
    def size(self) -> int:
        return len(self.images)

    @cached_property
    def elements(self) -> tuple[Transformation, ...]:
        """All elements, sorted lexicographically on the image sequence."""
        return tuple(Transformation(tuple(b)) for b in sorted(self.images))

    def __contains__(self, t: Transformation) -> bool:
        return contains(self, t)

    def to_text(self) -> str:
        lines = [f"semigroup n={self.n} size={self.size}"]
        lines.extend(str(t) for t in self.elements)
        return "\n".join(lines) + "\n"


def closure(
    generators: Sequence[Transformation],
    cap: int | None = None,
) -> TransformationSemigroup | ClosureOverflow:
    """All distinct composites of one or more generators.

    Frontier-style breadth-first search: each new element is right-multiplied
    by every generator.  If more than ``cap`` elements appear (default
    ``DEFAULT_CAP``), a ``ClosureOverflow`` is returned instead of a
    semigroup; no partially-closed set ever escapes.  A cap below 1 is a
    ValueError: every closure has at least one element.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError(f"size mismatch: {g.n} vs {n}")
    if n > 255:
        raise ValueError("closure supports at most 255 states")
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"closure cap must be at least 1, got {limit}")
    images = _close_images([g.packed() for g in gens], cap=limit)
    if images is None:
        return ClosureOverflow(n=n, cap=limit, generators=gens)
    return TransformationSemigroup(n=n, images=images, generators=gens)


def _close_images(
    gen_images: Sequence[bytes],
    cap: int = DEFAULT_CAP,
    stop_at: int | None = None,
) -> set[bytes] | None:
    """Closure over packed images: the set grown for membership is the
    result; None when the cap is exceeded.

    Each round right-multiplies that round's frontier (the elements new in
    the previous round) by one generator at a time, so the products are
    formed in C, and the repeats among them (most of them) are dropped by
    ``filterfalse`` without running any Python code.  The filter is lazy:
    each product is tested after the one before it was added, so one made
    twice in a pass is added once.  ``cap`` and ``stop_at`` are checked after
    each generator's pass, so an overflow is detected within one frontier's
    worth of products; without ``stop_at`` the result is None exactly when
    the closure has more than ``cap`` elements.  ``stop_at`` allows an early
    exit for callers that know the closure cannot exceed that size
    (generators drawn from a known closed set).

    Once a round's frontier outgrows ``SPLIT_FRONTIER`` elements, the rest of
    the closure (``_close_by_relations``) keeps each round's new elements in
    one list per generator g that made them, and h's pass skips g's list
    whenever g*h is a generator or the identity: those products were formed
    a round earlier.  The passes whose lists are skipped most run first.  The
    result, ``cap`` and ``stop_at`` are as before.

    The set is the only table: it grew one element at a time, so it is sized
    for the closure (a copied set is sized for twice its length).
    """
    seen = set(gen_images)
    if stop_at is not None and len(seen) >= stop_at:
        return seen
    if len(seen) > cap:
        return None
    # repeat() without a count never runs out, so one per generator serves
    # every pass.
    tables = [repeat(g + bytes(256 - len(g))) for g in gen_images]
    add = seen.add
    contained = seen.__contains__
    frontier = list(seen)
    while frontier:
        if len(frontier) > SPLIT_FRONTIER:
            return _close_by_relations(gen_images, seen, frontier, cap, stop_at)
        new = []
        append = new.append
        for table in tables:
            for c in filterfalse(contained, map(bytes.translate, frontier, table)):
                add(c)
                append(c)
            if stop_at is not None and len(seen) >= stop_at:
                return seen
            if len(seen) > cap:
                return None
        frontier = new
    return seen


def _close_by_relations(
    gen_images: Sequence[bytes],
    seen: set[bytes],
    frontier: list[bytes],
    cap: int,
    stop_at: int | None,
) -> set[bytes] | None:
    """The rest of ``_close_images`` from ``frontier``, whose elements are in
    ``seen`` and were not yet multiplied, with each round's new elements
    kept in one list per generator that made them.

    An element x first made as t*g, multiplied by h, is t*(g*h).  When g*h is
    a generator f, t*f is already in ``seen``: t, in the round before x's,
    was multiplied by every generator (or t*f was skipped by this same rule,
    and is in ``seen`` by induction); when g*h is the identity, x*h is t.  So
    h's pass skips the list of every g with g*h a generator or the identity.
    A generator in no such relation shares one list with the frontier handed
    over here, whose elements count as made by no generator: every pass
    reads it.  Passes run in decreasing order of the number of passes that
    skip their list (input order among equals), so that an element made by
    several generators in one round is credited to the one whose list is
    skipped most.

    A loop of its own because folding it into ``_close_images``, with every
    pass reading and filling one list until the switch, makes the two-letter
    closures at n=4 about 20% slower: the list bookkeeping costs more per
    pass than their few products.
    """
    n = len(frontier[0])
    known = {*gen_images, bytes(range(n))}
    padded = [g + bytes(256 - n) for g in gen_images]
    k = len(gen_images)
    # skips[h][g]: g*h is a generator or the identity.
    skips = [[g.translate(table) in known for g in gen_images] for table in padded]
    credit = [sum(row[g] for row in skips) for g in range(k)]
    # List k holds the elements of no listed generator, the frontier first.
    home = [g if credit[g] else k for g in range(k)]
    passes = [
        (
            repeat(padded[h]),
            home[h],
            [g for g in range(k) if credit[g] and not skips[h][g]] + [k],
        )
        for h in sorted(range(k), key=credit.__getitem__, reverse=True)
    ]
    add = seen.add
    contained = seen.__contains__
    lists = [[] for _ in range(k)] + [frontier]
    while any(lists):
        new = [[] for _ in range(k + 1)]
        for table, out, reads in passes:
            append = new[out].append
            for i in reads:
                for c in filterfalse(contained, map(bytes.translate, lists[i], table)):
                    add(c)
                    append(c)
            if stop_at is not None and len(seen) >= stop_at:
                return seen
            if len(seen) > cap:
                return None
        lists = new
    return seen


def contains(s: TransformationSemigroup, t: Transformation) -> bool:
    if t.n != s.n:
        raise ValueError(f"size mismatch: {t.n} vs {s.n}")
    return t.packed() in s.images


def generator_necessity(s: TransformationSemigroup) -> list[bool]:
    """For each generator: does dropping it strictly shrink the closure?"""
    flags = []
    size = s.size
    packed = [g.packed() for g in s.generators]
    for i in range(len(packed)):
        rest = packed[:i] + packed[i + 1 :]
        if not rest:
            flags.append(size > 0)
            continue
        closed = _close_images(rest, stop_at=size)
        assert closed is not None
        flags.append(len(closed) < size)
    return flags


def minimal_generator_count(
    s: TransformationSemigroup,
    k_max: int,
    budget: int = GENERATOR_SEARCH_BUDGET,
) -> int | None:
    """Least k <= k_max such that some k-subset of the elements generates s.

    The rank of s is computed exactly by J-class decomposition (Froidure & Pin
    1997; East, Egri-Nagy, Mitchell & Peresse 2019).  A product that lands in
    a J-class J has all its factors, and all its prefixes, in the up-set of J,
    so every generating set contains, for each J, a subset X of J such that X
    and the classes strictly above J generate J; conversely such X's together
    generate s, by induction down the J-order.  The rank is therefore the sum
    over the classes, taken top-down, of the least |X|; each term is found by
    trying the subsets of J in increasing size, with closures restricted to the
    up-set of J.  ``None`` means the rank exceeds k_max.  Refuses semigroups
    larger than ``budget`` elements (override deliberately: the search inside
    a class is still exponential in that class's term).
    """
    size = s.size
    if size > budget:
        raise SearchInfeasible(
            f"semigroup has {size} elements, over the search budget {budget}"
        )
    rank = 0
    chosen: list[bytes] = []
    for members, up_set in _j_classes(s):
        extra = _fewest_generating(chosen, members, up_set, k_max - rank)
        if extra is None:
            return None
        rank += len(extra)
        chosen.extend(extra)
    return rank


def _j_classes(s: TransformationSemigroup) -> list[tuple[frozenset[bytes], frozenset[bytes]]]:
    """The J-classes of s top-down, each with its up-set (itself and every
    class above it).

    The classes are the strongly connected components of the two-sided Cayley
    graph (edges e -> e*g and e -> g*e over the generators), found by an
    iterative Tarjan search.  Tarjan emits a component only after every
    component below it, so the reversed emission order is top-down.
    """
    gens = [g.packed() for g in s.generators]
    right = [g + bytes(256 - len(g)) for g in gens]
    succ = {}
    for e in sorted(s.images):
        left = e + bytes(256 - len(e))
        succ[e] = {e.translate(t) for t in right} | {g.translate(left) for g in gens}
    index: dict[bytes, int] = {}
    low: dict[bytes, int] = {}
    stack: list[bytes] = []
    on_stack: set[bytes] = set()
    components: list[list[bytes]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    components.reverse()
    class_of = {e: i for i, component in enumerate(components) for e in component}
    # Up-sets as bitmasks of class indices; a class's parents all come
    # before it, so its mask is complete when it is pushed to its children.
    up = [1 << i for i in range(len(components))]
    for i, component in enumerate(components):
        for e in component:
            for w in succ[e]:
                up[class_of[w]] |= up[i]
    return [
        (
            frozenset(component),
            frozenset(e for e, j in class_of.items() if up[i] >> j & 1),
        )
        for i, component in enumerate(components)
    ]


def _fewest_generating(
    chosen: Sequence[bytes],
    members: frozenset[bytes],
    up_set: frozenset[bytes],
    limit: int,
) -> tuple[bytes, ...] | None:
    """Fewest elements of the class ``members`` that, with ``chosen``,
    generate the whole class; None when more than ``limit`` are needed.

    Elements already generated by ``chosen`` are never needed, so only the
    others are tried.
    """
    reached = _close_within(chosen, up_set)
    missing = sorted(members - reached)
    if not missing:
        return ()
    for k in range(1, min(limit, len(missing)) + 1):
        for extra in combinations(missing, k):
            if members <= _close_within([*chosen, *extra], up_set):
                return extra
    return None


def _close_within(gens: Sequence[bytes], up_set: frozenset[bytes]) -> set[bytes]:
    """The elements of ``up_set`` generated by ``gens``.

    Exact for an up-set of the J-order: every prefix of a product that lands
    in it lies in it, and so does every factor.
    """
    inside = [g for g in gens if g in up_set]
    tables = [repeat(g + bytes(256 - len(g))) for g in inside]
    seen = set(inside)
    add = seen.add
    frontier = list(seen)
    while frontier:
        new = []
        append = new.append
        for table in tables:
            for c in map(bytes.translate, frontier, table):
                if c in up_set and c not in seen:
                    add(c)
                    append(c)
        frontier = new
    return seen


def equal_up_to_relabeling(
    s: TransformationSemigroup,
    t: TransformationSemigroup,
    fixed_states: Iterable[int] = (),
) -> tuple[int, ...] | None:
    """A state permutation fixing ``fixed_states`` that conjugates s onto t.

    Conjugation by a permutation pi sends each element's image to
    ``new[pi[q]] = pi[image[q]]``.  Returns the permutation as a tuple, or
    None if no candidate works.  The search tries all (n - |fixed|)!
    permutations, so it is limited to n <= RELABEL_MAX_N.  A permutation
    that sends some generator of s outside t is rejected without
    conjugating the rest of s; one that passes is confirmed by comparing the
    whole conjugate with t, so t need not be closed.
    """
    if s.n != t.n:
        raise ValueError(f"size mismatch: {s.n} vs {t.n}")
    n = s.n
    if n > RELABEL_MAX_N:
        raise SearchInfeasible(f"relabeling search limited to n <= {RELABEL_MAX_N}")
    if s.size != t.size:
        return None
    fixed = sorted(set(fixed_states))
    for q in fixed:
        if not 0 <= q < n:
            raise ValueError(f"fixed state {q} out of range [0, {n})")
    movable = [q for q in range(n) if q not in fixed]
    target = t.images
    # A permutation conjugating s onto t sends every element of s, the
    # generators among them, into t: a cheap necessary condition, checked
    # before the full conjugation confirms it.
    gens = {g.packed() for g in s.generators} & s.images
    perm = [0] * n
    for q in fixed:
        perm[q] = q
    for assignment in permutations(movable):
        for q, image in zip(movable, assignment):
            perm[q] = image
        pick, table = _conjugation(perm)
        if all(bytes(pick(g)).translate(table) in target for g in gens) and (
            _conjugated_images(s.images, perm) == target
        ):
            return tuple(perm)
    return None


def conjugated(s: TransformationSemigroup, perm: Sequence[int]) -> TransformationSemigroup:
    """s with its states relabeled by perm, generators included: each
    element's image becomes ``new[perm[q]] = perm[image[q]]``."""
    return TransformationSemigroup(
        n=s.n,
        images=_conjugated_images(s.images, perm),
        generators=tuple(conjugate(g, perm) for g in s.generators),
    )


def _conjugation(perm: Sequence[int]) -> tuple[Callable[[bytes], Sequence[int]], bytes]:
    """``(pick, table)`` such that ``bytes(pick(e)).translate(table)`` is the
    conjugate of the packed map e by perm: ``new[r] = perm[e[inverse[r]]]``."""
    n = len(perm)
    inverse = [0] * n
    for q, r in enumerate(perm):
        inverse[r] = q
    # itemgetter with a single index returns an int; at n=1 perm is (0,).
    pick = itemgetter(*inverse) if n > 1 else tuple
    return pick, bytes(perm) + bytes(256 - n)


def _conjugated_images(images: AbstractSet[bytes], perm: Sequence[int]) -> frozenset[bytes]:
    """Every packed map of ``images`` conjugated by perm."""
    pick, table = _conjugation(perm)
    return frozenset(map(bytes.translate, map(bytes, map(pick, images)), repeat(table)))
