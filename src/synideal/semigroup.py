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

Past the switch, a closure whose permutation letters generate the whole
symmetric group G = Sym(M) on the states M they move, with |M|! above
``SPLIT_FRONTIER``, works on orbits of G instead (Linton, Pfeiffer,
Robertson & Ruskuc 1998; East, Egri-Nagy, Mitchell & Peresse 2019).  G lies
in the closure, so the closure is a union of orbits t*G.  It keeps one
canonical representative per orbit, multiplies only those, and returns them
as an ``OrbitUnion``: its length is the sum of the orbit sizes, membership
canonicalises the map asked about, and iteration lists each orbit through
translate tables shared by every orbit, one per permutation of M, built on
the first iteration.  No orbit element is stored.  The right and left
witnesses at n=8 have Sym on 7 states as units and take this path: 4,140
and 4,141 orbits from 16,560 and 20,705 products past the switch, against
~6.7M products each by the relations.  Their closures take 0.055-0.075 s,
and listing the 2.1M elements of one, to compare it with its closed form,
~0.28 s through 7! = 5,040 tables (about 1.5 MB).  The two-sided n=8
witness's units act on 6 states (6! = 720) and every witness's at n <= 7
on at most 6, so those skip products by the relations.  From n=9 on every
witness takes the orbit path and its size is known without listing an
element: 0.25-0.30 s per closure at n=9 (21,147, 21,148 and 17,136 orbits
for right, left and two-sided) and 1.4-1.9 s at n=10 (115,975, 115,976 and
95,085), of which ~0.35 s closes the unit group Sym(9) in
``_symmetric_units``.

Past the switch a closure by the relations also hands the set tables it
outgrows back to the OS once a round (glibc's ``malloc_trim``; nothing
happens off Linux or where the C library lacks it), so it peaks at its
elements plus one table however many closures the process has already run.
Without the trim, freeing one closure's mmapped tables raises glibc's
dynamic mmap threshold (up to 32 MB), and the next closure's tables up to
that size come from the heap, where they stay resident once outgrown.
Closing the right n=8 witness twice by the relations (its unit group hidden)
peaks at 180.3 and 180.4 MB with the trim, against 185.5 and 211.8 MB
without it (``ru_maxrss``, CPython 3.11.7, x86_64 Linux).  The price is that
later rounds fault the returned pages in again.  The orbit path grows no
such set and does not trim.

On the witness semigroups at n=7 and n=8 the engine reaches about 7.4e6
elements/s (``semigroup.closure.elements_per_s`` of the benchmark's
``closure`` workload, two traced runs at seed 7919, which read 7.1e6 and
7.8e6; CPython 3.11.7, shared 2-vCPU x86_64 host).  The closures by the
relations, at n=7 and the two-sided one at n=8, take most of that time.
"""

from __future__ import annotations

import sys
from collections.abc import Set
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, filterfalse, permutations, repeat
from math import factorial
from operator import itemgetter
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

#: Frontier length beyond which a closure either keeps one element per orbit
#: of its unit group, when the permutation letters generate Sym(M) on the
#: states M they move and |M|! exceeds this length too (``_close_by_orbits``),
#: or else keeps each round's new elements in one list per generator that made
#: them, so that it can skip the products a generator relation proves
#: repeated (``_close_by_relations``).  Setting up those lists costs more
#: than it saves on small closures: split from the first round, the 32,640
#: two-letter closures at n=4 take ~50 us each instead of ~18 us.  No n=4
#: sweep closure (at most 256 elements) and none of the benchmark's sampled
#: campaigns (at most 167) reaches this length.
SPLIT_FRONTIER = 1024

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
    is right-multiplied by every generator, or past ``SPLIT_FRONTIER`` by
    the generators that no relation among them rules out; when the
    permutation letters generate the whole symmetric group on the states
    they move, only one element per orbit of that group is multiplied, on
    the left, and kept: the images are an ``OrbitUnion``, which lists the
    orbits on demand.  If more than ``cap``
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

    Each round right-multiplies that round's frontier (the elements new in
    the previous round) by one generator at a time, so the products are
    formed in C, and the repeats among them (most of them) are dropped by
    ``filterfalse`` without running any Python code.  The filter is lazy:
    each product is tested after the one before it was added, so one made
    twice in a pass is added once.  ``cap`` is checked after each
    generator's pass, so an overflow is detected within one frontier's worth
    of products; the result is None exactly when the closure has more than
    ``cap`` elements.

    Once a round's frontier outgrows ``SPLIT_FRONTIER`` elements, the rest of
    the closure (``_close_by_relations``) keeps each round's new elements in
    one list per generator g that made them, and h's pass skips g's list
    whenever g*h is a generator or the identity: those products were formed
    a round earlier.  The passes whose lists are skipped most run first.  The
    result and ``cap`` are as before.  When the permutation letters generate
    the whole symmetric group on the states they move, and it has more than
    ``SPLIT_FRONTIER`` elements (``_symmetric_units``), the rest of the
    closure keeps one representative per orbit of that group instead
    (``_close_by_orbits``).

    A set result is the only table: it grew one element at a time, so it is
    sized for the closure (a copied set is sized for twice its length).
    """
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
        if len(frontier) > SPLIT_FRONTIER:
            moved = _symmetric_units(gen_images, cap)
            if moved is not None:
                return _close_by_orbits(gen_images, seen, moved, cap)
            return _close_by_relations(gen_images, seen, frontier, cap)
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


def _close_by_relations(
    gen_images: Sequence[bytes],
    seen: set[bytes],
    frontier: list[bytes],
    cap: int,
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
    skipped most.  After each round, the set tables and lists outgrown in
    it are handed back to the OS (``_malloc_trim``; see the module
    docstring).

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
    trim = _malloc_trim()
    lists = [[] for _ in range(k)] + [frontier]
    while any(lists):
        new = [[] for _ in range(k + 1)]
        for table, out, reads in passes:
            append = new[out].append
            for i in reads:
                for c in filterfalse(contained, map(bytes.translate, lists[i], table)):
                    add(c)
                    append(c)
            if len(seen) > cap:
                return None
        lists = new
        if trim is not None:
            trim(0)
    return seen


def _symmetric_units(gen_images: Sequence[bytes], cap: int) -> bytes | None:
    """The states M moved by the permutation letters, in increasing order,
    when those letters generate the whole symmetric group Sym(M) and
    SPLIT_FRONTIER < |M|! <= cap; None otherwise.

    The group is closed by a loop of its own, never by ``_close_images``,
    whose switch past ``SPLIT_FRONTIER`` would call back here.  It has at
    most |M|! elements, so ``cap`` bounds the loop too.  M must not be empty:
    with no state moved every orbit is a single element.
    """
    n = len(gen_images[0])
    units = [g + bytes(256 - n) for g in gen_images if len(set(g)) == n]
    moved = bytes(q for q in range(n) if any(g[q] != q for g in units))
    order = factorial(len(moved))
    if not moved or not SPLIT_FRONTIER < order <= cap:
        return None
    one = bytes(range(n))
    group = {one}
    frontier = [one]
    while frontier:
        new = []
        for t in frontier:
            for g in units:
                c = t.translate(g)
                if c not in group:
                    group.add(c)
                    new.append(c)
        frontier = new
    return moved if len(group) == order else None


def _close_by_orbits(
    gen_images: Sequence[bytes],
    seen: set[bytes],
    moved: bytes,
    cap: int,
) -> OrbitUnion | None:
    """The rest of ``_close_images`` when the permutation letters generate
    the whole symmetric group G on the states ``moved`` (``_symmetric_units``).

    G lies in the closure S, so S is a union of orbits t*G: right
    multiplication by G renumbers the values of t in ``moved`` and keeps the
    others.  Only each orbit's representative is kept (``_canonical``), with
    the orbit's size counted towards ``cap``; the result is an
    ``OrbitUnion``, which lists the elements on demand.  Since g*(r*h) =
    (g*r)*h, multiplying only the representatives on the left by the
    letters closes S; a product whose representative is already kept lies
    in an orbit that is there whole.  The elements of ``seen``, a few
    thousand at the switch, seed the first orbits.

    A product costs one ``translate`` and one canonical form, and no orbit
    element is stored.  The result and ``cap`` are as in ``_close_images``.
    """
    n = len(gen_images[0])
    fixed = bytes(q for q in range(n) if q not in moved)
    pad = bytes(256 - n)
    sizes = _orbit_sizes(len(moved))
    reps: dict[bytes, int] = {}
    size = 0
    products: Iterable[bytes] = seen
    while True:
        new = []
        for t in products:
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
        products = (g.translate(r + pad) for r in new for g in gen_images)


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
    listed on demand: what ``_close_by_orbits`` returns.

    ``reps`` maps each representative to the number j of its values in M;
    its orbit has |M|!/(|M|-j)! elements.  The length is the sum of the
    orbit sizes.  Iteration lists each orbit through translate tables
    shared by every orbit (``_injection_tables``), built on the first
    iteration, so a size alone never builds them.  Membership canonicalises
    its argument and looks the representative up.  Equality with another
    union of the same group compares the representatives, with a set or
    any other union it tests every listed element, and any other ``Set``
    decides it (a ``ClosedForm`` tests the listed elements in bulk).  The
    ``Set`` operators build plain frozensets.  Read-only and not hashable.
    """

    def __init__(self, n: int, moved: bytes, reps: dict[bytes, int], size: int) -> None:
        self.n = n
        self._moved = moved
        self._fixed = bytes(q for q in range(n) if q not in moved)
        self._states = bytes(range(n))
        self._reps = reps
        self._len = size

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


@cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, resolved on first use, or None off Linux or
    where the C library has no such symbol.  ``CDLL(None)`` opens the
    running process's own symbols, so nothing is searched for or started."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


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
