"""Semigroups of transformations, generated by closure under composition.

The closure engine is the performance core of the package: elements are kept
as packed byte strings and right-multiplication by a generator is a single
``bytes.translate`` call, mapped over the whole frontier, with the repeat
products filtered out in C.

Before it forms a product, a closure decides from its letters alone which
way it goes (``_symmetric_units``).  One with a transposition among its
letters, whose permutation letters generate the whole symmetric group
G = Sym(M) on the states M they move, at least ``ORBIT_MIN_STATES`` of them,
works on orbits of G (Linton, Pfeiffer, Robertson & Ruskuc 1998; East,
Egri-Nagy, Mitchell & Peresse 2019); any other closure runs the plain
passes.  G lies in the closure, so the closure is a union of orbits t*G.  It
keeps one canonical representative per orbit, seeded from the letters,
multiplies only those, takes the canonical form of each distinct product
once, and returns the representatives as an ``OrbitUnion``: its length is
the sum of the orbit sizes, membership canonicalises the map asked about,
and iteration lists each orbit through translate tables shared by every
orbit, one per permutation of M, built on the first iteration.  No orbit
element is stored.  The right and left witnesses from n=5 on and the
two-sided ones from n=6 on take this path: their units are Sym on n-1 states
(right, left) or n-2 (two-sided), with a transposition among their letters,
so Jordan's theorem decides that they are the whole group (0.05 ms at
n=10); the smaller witnesses move fewer than ``ORBIT_MIN_STATES`` states.
In a fresh process a closure takes 0.007-0.009 s at n=8 (4,140, 4,141 and
3,328 orbits for right, left and two-sided), 0.041-0.047 s at n=9 (21,147,
21,148 and 17,136) and 0.26-0.29 s at n=10 (115,975, 115,976 and 95,085;
peak RSS 43 MB for right and left, 41 MB for two-sided).  Its size is known
without listing an element, and a closed form invariant under G is compared
with it from the representatives alone (``witness.ClosedForm``): 0.6-0.8 ms
at n=8 and 3-4 ms at n=9.  Conjugating it by a permutation of the states
conjugates only the representatives (``_conjugated_images``).  Listing the
elements of the right or left closure through the |M|! tables (7! = 5,040
at n=8, about 1.5 MB) takes 0.09 s at n=8 and 1.9 s at n=9.

On the witness semigroups at n=7 and n=8 the engine reaches about 1.2e8
elements/s (``semigroup.closure.elements_per_s`` of the benchmark's
``closure`` workload, a traced run at seed 7919; CPython 3.11.7, shared
2-vCPU x86_64 host).  All six take the orbit path; the three at n=8 take
most of that time.
"""

from __future__ import annotations

from collections.abc import KeysView, Set
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, filterfalse, permutations, repeat
from math import factorial
from operator import itemgetter, ne
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .transform import Transformation, conjugate

#: Most states a closure takes; it packs each map one state per byte.
MAX_STATES = 255

#: Default element cap of a closure: just above the largest witness semigroup
#: at n <= 8 (the left ideal one, 2,097,159 elements).
DEFAULT_CAP = 2_100_000

#: Largest semigroup minimal_generator_count will decompose without an override.
#: Finding the J-classes and their up-sets is polynomial in |S|, but inside
#: each class the search still tries every k-subset of the class's elements
#: not yet generated from above, up to the least k that works; the budget
#: bounds |S| and with it the size of every class searched.
GENERATOR_SEARCH_BUDGET = 100

#: Fewest states M that a unit group Sym(M) must move for a closure to keep
#: one element per orbit (``_symmetric_units``).  An orbit holds at most
#: |M|! maps and each product is canonicalised in Python, while the plain
#: passes form their products in C, so small groups lose.  At n=8, with a
#: cycle of M and a transposition beside two random maps (three draws per
#: |M|, closures of 0.1-1.4M elements), the orbit path took 1.9-2.5x the
#: plain passes' time with |M| = 2, 0.99-1.4x with |M| = 3, 0.32-0.40x with
#: |M| = 4 and 0.11-0.27x with |M| = 5; on small closures too, 0.11 against
#: 0.08 ms for the two-sided n=5 witness (|M| = 3) and 0.07 against 0.08 ms
#: for the 256 maps of 4 states (|M| = 4) (CPython 3.11.7, shared 2-vCPU
#: x86_64 host).  Every witness that takes the orbit path moves at least 4.
ORBIT_MIN_STATES = 4

#: Relabeling search is factorial in the movable states; refuse beyond this.
#: Campaigns certify uniqueness without it (``witness.has_maximal_order``).
RELABEL_MAX_N = 7


class SearchInfeasible(RuntimeError):
    """An exact search was requested outside its documented budget."""


class CapExceeded(RuntimeError):
    """A closure, or a search of ``generator_necessity``, exceeded its
    element cap."""


@dataclass(frozen=True)
class TransformationSemigroup:
    """A finite set of transformations closed under composition.

    ``images`` holds the packed element bodies: for a closure, the very
    ``set`` the closure grew (copying it into a frozenset would double the
    table) or, for one that worked on orbits of its unit group, an
    ``OrbitUnion`` of one representative per orbit; or a closed form
    (``witness.expected_semigroup``).  The last two list their elements on
    demand.  Each is read-only by convention and none is hashable, so
    neither is a semigroup holding one.  ``generators`` records
    the provenance (each generator is an element, and every element is a
    composite of one or more generators).  The identity is present only if
    it is such a composite: this is a semigroup, not a monoid.
    """

    n: int
    images: AbstractSet[bytes]
    generators: tuple[Transformation, ...]

    @property
    def size(self) -> int:
        """The number of elements: the ``size`` of ``images`` where it has
        one (a ``ClosedForm``, which can hold more than ``len`` reports),
        else its length."""
        size = getattr(self.images, "size", None)
        return len(self.images) if size is None else size

    @cached_property
    def elements(self) -> tuple[Transformation, ...]:
        """All elements, sorted lexicographically on the image sequence."""
        return tuple(Transformation(tuple(b)) for b in sorted(self.images))

    def __contains__(self, t: Transformation) -> bool:
        if t.n != self.n:
            raise ValueError(f"size mismatch: {t.n} vs {self.n}")
        return t.packed() in self.images

    def to_text(self) -> str:
        lines = [f"semigroup n={self.n} size={self.size}"]
        lines.extend(str(t) for t in self.elements)
        return "\n".join(lines) + "\n"


def closure(
    generators: Sequence[Transformation],
    cap: int | None = None,
) -> TransformationSemigroup:
    """All distinct composites of one or more generators.

    Frontier-style breadth-first search (``_close_images``): each new element
    is right-multiplied by every generator.  When a letter is a
    transposition and the permutation letters generate the whole symmetric
    group on the states they move, which is decided from the letters before
    any product, the closure instead multiplies only one element per orbit
    of that group, on the left, and keeps it: the images are an
    ``OrbitUnion``, which lists the orbits on demand.  If more than ``cap``
    elements appear (default ``DEFAULT_CAP``), ``CapExceeded`` is raised; no
    partially-closed set ever escapes.  A cap below 1 is a ValueError:
    every closure has at least one element.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError(f"size mismatch: {g.n} vs {n}")
    if n > MAX_STATES:
        raise ValueError(f"closure supports at most {MAX_STATES} states")
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"closure cap must be at least 1, got {limit}")
    images = _close_images([g.packed() for g in gens], cap=limit)
    if images is None:
        raise CapExceeded(f"semigroup exceeds cap {limit}")
    return TransformationSemigroup(n=n, images=images, generators=gens)


def _close_images(
    gen_images: Sequence[bytes],
    cap: int = DEFAULT_CAP,
) -> AbstractSet[bytes] | None:
    """Closure over packed images: the set grown for membership, or an
    ``OrbitUnion`` from ``_close_by_orbits``, is the result; None when the
    cap is exceeded.

    The path is decided once, from the letters, before any product is
    formed: when a letter is a transposition and the permutation letters
    generate the whole symmetric group on the states they move, at least
    ``ORBIT_MIN_STATES`` of them (``_symmetric_units``), the closure keeps
    one representative per orbit of that group (``_close_by_orbits``);
    otherwise it runs the plain passes below to the end.

    Each round right-multiplies that round's frontier (the elements new in
    the previous round) by one generator at a time, so the products are
    formed in C, and the repeats among them (most of them) are dropped by
    ``filterfalse`` without running any Python code.  The filter is lazy:
    each product is tested after the one before it was added, so one made
    twice in a pass is added once.  ``cap`` is checked after each
    generator's pass, so an overflow is detected within one frontier's worth
    of products; the result is None exactly when the closure has more than
    ``cap`` elements.

    A set result is the only table: it grew one element at a time, so it is
    sized for the closure (a copied set is sized for twice its length).
    """
    moved = _symmetric_units(gen_images, cap)
    if moved is not None:
        return _close_by_orbits(gen_images, moved, cap)
    seen = set(gen_images)
    if len(seen) > cap:
        return None
    # repeat() without a count never runs out, so one per generator serves
    # every pass.
    tables = [repeat(g + bytes(256 - len(g))) for g in gen_images]
    add = seen.add
    contained = seen.__contains__
    frontier = list(seen)
    while frontier:
        new = []
        append = new.append
        for table in tables:
            for c in filterfalse(contained, map(bytes.translate, frontier, table)):
                add(c)
                append(c)
            if len(seen) > cap:
                return None
        frontier = new
    return seen


def _symmetric_units(gen_images: Sequence[bytes], cap: int) -> bytes | None:
    """The states M moved by the permutation letters, in increasing order,
    when one of them is a transposition, they generate the whole symmetric
    group Sym(M), |M| >= ``ORBIT_MIN_STATES`` and |M|! <= cap; None
    otherwise, and then the closure keeps the plain passes.

    Every closure asks this before its first product, so the transposition
    is looked for first, by C-level passes over each letter, and a closure
    without one returns None before M is built: ~0.8 us per call on random
    letter pairs at n=4..6 (CPython 3.11.7, shared 2-vCPU x86_64 host).  All
    but 45 of the 1,211 closures of the n=4 two-letter sweep (one per orbit
    under Sym(n), of its least set), and all but 23 of the 550 of the
    benchmark's ``sample`` workload at seed 7919, have none.  With a
    transposition letter, as every witness but the two smallest of each
    class has, the group is Sym(M) exactly when it is primitive on M
    (``_primitive``), by Jordan's theorem (Wielandt, *Finite Permutation
    Groups*, 1964, §13): 0.05 ms for the witnesses at |M| = 9.
    """
    n = len(gen_images[0])
    states = range(n)
    units = [g for g in gen_images if len(set(g)) == n]
    if not units or not any(sum(map(ne, g, states)) == 2 for g in units):
        return None
    moved = bytes(q for q in states if any(g[q] != q for g in units))
    if len(moved) < ORBIT_MIN_STATES or factorial(len(moved)) > cap:
        return None
    return moved if _primitive(units, moved) else None


def _primitive(units: Sequence[bytes], moved: bytes) -> bool:
    """Whether the group generated by the permutations ``units`` is
    transitive and primitive on ``moved``, the states they move.

    For each x in M = ``moved``, the least block of the group that holds
    m0 = moved[0] and x is found by union-find under the letters: merge
    m0 and x, and for each pair of classes merged, merge the classes of its
    images under every letter (Atkinson 1975).  The group is primitive on
    M exactly when every such block is M, O(k |M|^2) for k letters.  This
    also decides transitivity: the orbit of m0 holds some x other than m0
    (a letter moves m0), and the least block holding m0 and x lies within
    that orbit.
    """
    def find(q: int) -> int:
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        return q

    first = moved[0]
    for x in moved[1:]:
        parent = list(range(256))
        parent[x] = first
        merged = 1
        pairs = [(first, x)]
        while pairs:
            a, b = pairs.pop()
            for g in units:
                u, v = find(g[a]), find(g[b])
                if u != v:
                    parent[v] = u
                    merged += 1
                    pairs.append((u, v))
        if merged < len(moved) - 1:
            return False
    return True


def _close_by_orbits(gen_images: Sequence[bytes], moved: bytes, cap: int) -> OrbitUnion | None:
    """``_close_images`` when the permutation letters generate the whole
    symmetric group G on the states ``moved`` (``_symmetric_units``).

    G lies in the closure S, so S is a union of orbits t*G: right
    multiplication by G renumbers the values of t in ``moved`` and keeps the
    others.  Only each orbit's representative is kept (``_canonical``), with
    the orbit's size counted towards ``cap``; the result is an
    ``OrbitUnion``, which lists the elements on demand.  Since g*(r*h) =
    (g*r)*h, multiplying only the representatives on the left by the
    letters closes S; a product whose representative is already kept lies
    in an orbit that is there whole.  The letters seed the first orbits: a
    word a1...ak with k > 1 lies in the orbit of a1*r, r the representative
    of the orbit of a2...ak, so by induction every element's orbit is
    reached from the letters alone.

    A product costs one ``translate``, and only the first of equal
    products its canonical form: the distinct products are kept in a set,
    and ``filterfalse`` drops the repeats in C, as ``_close_images`` does.
    Most products repeat: with its 4 letters the right n=8 witness forms
    16,564 maps from its 4,140 representatives, 6,898 of them distinct.  The
    set is kept to the end, so it costs memory: at n=10 it holds 200,137
    maps of the right witness, about 16 MiB, beside 9.8 MiB of
    representatives.  No orbit element is stored.  The result and ``cap``
    are as in ``_close_images``.
    """
    n = len(gen_images[0])
    fixed = bytes(q for q in range(n) if q not in moved)
    pad = bytes(256 - n)
    sizes = _orbit_sizes(len(moved))
    reps: dict[bytes, int] = {}
    size = 0
    formed: set[bytes] = set()
    add = formed.add
    products: Iterable[bytes] = gen_images
    while True:
        new = []
        for t in filterfalse(formed.__contains__, products):
            add(t)
            r, j = _canonical(t, fixed, moved)
            if r in reps:
                continue
            reps[r] = j
            size += sizes[j]
            if size > cap:
                return None
            new.append(r)
        if not new:
            return OrbitUnion(n, moved, reps, size)
        tables = map(bytes.__add__, new, repeat(pad))
        products = (g.translate(table) for table in tables for g in gen_images)


def _orbit_sizes(k: int) -> list[int]:
    """``sizes[j]`` = k!/(k-j)!, the injections of j values into k states: the
    size of an orbit of Sym on k states whose maps take j values there."""
    return [factorial(k) // factorial(k - j) for j in range(k + 1)]


def _canonical(t: bytes, fixed: bytes, moved: bytes) -> tuple[bytes, int]:
    """``(r, j)``: the representative r of t's orbit under Sym(``moved``),
    ``fixed`` the other states, and the number j of t's values in
    ``moved``.  r is t with those values renumbered onto moved[:j] in the
    order they first appear, which every element of the orbit shares."""
    values = bytes(dict.fromkeys(t.translate(None, fixed)))
    j = len(values)
    return t.translate(bytes.maketrans(values, moved[:j])), j


class OrbitUnion(Set):
    """A union of orbits t*G of G = Sym(M), M = ``moved``, on maps of n
    states, kept as one representative per orbit (``_canonical``) and
    listed on demand: what ``_close_by_orbits`` returns, and what
    ``_conjugated_images`` makes of one, from its representatives.

    ``reps`` maps each representative to the number j of its values in M;
    its orbit has |M|!/(|M|-j)! elements.  The length is the sum of the
    orbit sizes.  Iteration lists each orbit through translate tables
    shared by every orbit (``_injection_tables``), built on the first
    iteration, so a size alone never builds them.  Membership canonicalises
    its argument and looks the representative up.  Equality with another
    union of the same group compares the representatives, with a set or
    any other union it tests every listed element, and any other ``Set``
    decides it (a ``ClosedForm`` invariant under G tests only the
    representatives, any other each listed element).  The ``Set``
    operators build plain frozensets.  Read-only and not hashable.
    """

    def __init__(self, n: int, moved: bytes, reps: dict[bytes, int], size: int) -> None:
        self.n = n
        self._moved = moved
        self._fixed = bytes(q for q in range(n) if q not in moved)
        self._states = bytes(range(n))
        self._reps = reps
        self._len = size

    @property
    def moved(self) -> bytes:
        """The states M that G = Sym(M) moves, in increasing order."""
        return self._moved

    @property
    def representatives(self) -> KeysView[bytes]:
        """One map per orbit, each the canonical form of every element of
        its orbit (``_canonical``)."""
        return self._reps.keys()

    @classmethod
    def _from_iterable(cls, it: Iterable[bytes]) -> frozenset[bytes]:
        return frozenset(it)

    @cached_property
    def _tables(self) -> list[list[bytes]]:
        return _injection_tables(self._moved)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[bytes]:
        tables = self._tables
        return chain.from_iterable(map(r.translate, tables[j]) for r, j in self._reps.items())

    def __contains__(self, e: object) -> bool:
        # A byte >= n would be renumbered into M like a value there.
        if not isinstance(e, bytes) or len(e) != self.n or e.translate(None, self._states):
            return False
        return _canonical(e, self._fixed, self._moved)[0] in self._reps

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OrbitUnion) and (other.n, other._moved) == (self.n, self._moved):
            return self._reps.keys() == other._reps.keys()
        if not isinstance(other, (set, frozenset, OrbitUnion)):
            return NotImplemented
        return len(other) == self._len and all(map(other.__contains__, self))


def _injection_tables(moved: bytes) -> list[list[bytes]]:
    """``tables[j]`` for j = 0..|M|, M = ``moved``: one translate table per
    injection of moved[:j] into M, |M|!/(|M|-j)! of them.

    Each is the table of a permutation p of M (moved[i] to p[i], every
    other byte to itself), the one that sends moved[:j] as the injection
    does and lists the rest of M in increasing order; so p is in
    ``tables[j]`` for every j from the start of its longest increasing tail
    on, and the lists share |M|! tables, 5,040 at |M| = 7 (about 1.5 MB).
    """
    k = len(moved)
    tables: list[list[bytes]] = [[] for _ in range(k + 1)]
    for p in permutations(moved):
        table = bytes.maketrans(moved, bytes(p))
        start = k - 1
        while start > 0 and p[start - 1] < p[start]:
            start -= 1
        for j in range(start, k + 1):
            tables[j].append(table)
    return tables


def generator_necessity(s: TransformationSemigroup) -> list[bool]:
    """For each generator: does dropping it strictly shrink the closure?

    Decided from ``s.generators`` alone; nothing is closed.  Dropping g
    shrinks the closure exactly when g is no product of the other letters.
    The rank of a product is at most the rank of each factor and of each
    prefix, so a product equal to g, of rank r, has only factors and
    prefixes of rank >= r.  For each letter g:

    1. Keep the other letters of rank >= r.  If none is left, g is necessary.
    2. A word equal to g takes every tuple of states t to the tuple
       ``t.translate(g)``.  Try each state q as a 1-byte tuple, then each
       pair (p, q) that g merges, p the first state of q's kernel class: if
       no non-empty word over the kept letters takes one of them to its
       goal, g is necessary.
    3. Otherwise search breadth first from the identity over the non-empty
       products of the kept letters, keeping those of rank >= r: g is
       necessary unless it appears.

    Each search is ``_reaches``, and raises ``CapExceeded`` past
    ``DEFAULT_CAP`` kept maps, as a closure does.  The pair projections
    decide what the search would take longest on: for the left witness's
    letter c it would keep n! maps, 3,628,800 at n=10.
    """
    n = s.n
    pad = bytes(256 - n)
    packed = [g.packed() for g in s.generators]
    ranks = [len(set(g)) for g in packed]
    flags = []
    for i, g in enumerate(packed):
        r = ranks[i]
        kept = [h + pad for j, h in enumerate(packed) if j != i and ranks[j] >= r]
        table = g + pad
        first = {}
        for q in range(n):
            first.setdefault(g[q], q)
        starts = [bytes([q]) for q in range(n)]
        starts += [bytes([first[g[q]], q]) for q in range(n) if first[g[q]] != q]
        flags.append(
            not kept
            or not all(_reaches(t, t.translate(table), kept) for t in starts)
            or not _reaches(bytes(range(n)), g, kept, floor=r)
        )
    return flags


def _reaches(
    start: bytes, goal: bytes, tables: Sequence[bytes], floor: int | None = None
) -> bool:
    """Whether a non-empty product of the padded letters ``tables`` takes the
    tuple of states ``start`` to ``goal``.

    Breadth-first search over the tuples reached, each letter acting by
    ``bytes.translate`` as in the closure engine; with ``floor``, tuples of
    fewer than ``floor`` distinct states are dropped.  ``start`` is not
    reached until some non-empty product gives it.  Raises ``CapExceeded``
    once more than ``DEFAULT_CAP`` tuples are kept.
    """
    seen: set[bytes] = set()
    add = seen.add
    contained = seen.__contains__
    frontier = [start]
    while frontier:
        new = []
        append = new.append
        for table in tables:
            for c in filterfalse(contained, map(bytes.translate, frontier, repeat(table))):
                if floor is None or len(set(c)) >= floor:
                    add(c)
                    append(c)
            if goal in seen:
                return True
            if len(seen) > DEFAULT_CAP:
                raise CapExceeded(f"necessity search exceeds cap {DEFAULT_CAP}")
        frontier = new
    return False


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

    ``ideals[i]`` is the principal ideal S¹eS¹ of the i-th element e, as a
    mask of element indices: the edges e -> e*g and e -> g*e over the
    generators, closed by Warshall's algorithm as in
    ``dfa.Transitions.reach``.  Two elements are J-related exactly when
    their masks are equal, and a class strictly above another has a strictly
    larger mask, so the classes sorted by popcount, descending, are
    top-down.  A class's up-set is the elements whose mask holds one of its
    members.
    """
    elements = sorted(s.images)
    index = {e: i for i, e in enumerate(elements)}
    gens = [g.packed() for g in s.generators]
    right = [g + bytes(256 - len(g)) for g in gens]
    ideals = []
    for i, e in enumerate(elements):
        left = e + bytes(256 - len(e))
        mask = 1 << i
        for c in chain(map(e.translate, right), (g.translate(left) for g in gens)):
            mask |= 1 << index[c]
        ideals.append(mask)
    for k, via in enumerate(ideals):
        bit = 1 << k
        for i, mask in enumerate(ideals):
            if mask & bit:
                ideals[i] = mask | via
    classes: dict[int, list[bytes]] = {}
    for e, mask in zip(elements, ideals):
        classes.setdefault(mask, []).append(e)
    out = []
    for mask in sorted(classes, key=int.bit_count, reverse=True):
        members = classes[mask]
        bit = 1 << index[members[0]]
        up_set = frozenset(e for e, above in zip(elements, ideals) if above & bit)
        out.append((frozenset(members), up_set))
    return out


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


def _conjugated_images(images: AbstractSet[bytes], perm: Sequence[int]) -> AbstractSet[bytes]:
    """Every packed map of ``images`` conjugated by perm, as a frozenset, or
    as an ``OrbitUnion`` for one.

    Conjugating t*g, g in G = Sym(M), gives (pi t pi^-1)*(pi g pi^-1), so pi
    sends each orbit of G onto an orbit of Sym(pi(M)) of the same size: the
    conjugate of a union is the union on the states pi(M), in increasing
    order, whose representatives are the canonical forms of the conjugated
    representatives.  Nothing else is listed: 877 canonical forms for the
    117,649 maps of the right n=7 witness.
    """
    pick, table = _conjugation(perm)
    if not isinstance(images, OrbitUnion):
        return frozenset(map(bytes.translate, map(bytes, map(pick, images)), repeat(table)))
    n = images.n
    moved = bytes(sorted(images.moved.translate(table)))
    fixed = bytes(q for q in range(n) if q not in moved)
    reps = {
        _canonical(bytes(pick(r)).translate(table), fixed, moved)[0]: j
        for r, j in images._reps.items()
    }
    return OrbitUnion(n, moved, reps, len(images))
