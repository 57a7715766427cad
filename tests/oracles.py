"""Independent oracles and random generators for the test suite.

Everything here deliberately avoids the code paths it is used to check:
containment is re-decided by running explicit words, semigroup membership by
recomputing orbits, and so on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations, product, repeat
from math import factorial
from typing import Iterable, Sequence

from synideal import harness
from synideal.dfa import (
    Dfa,
    StatePreorder,
    Transitions,
    _partition,
    from_maps,
    minimize,
    reachable_states,
    transition_semigroup,
)
from synideal.harness import SAMPLE_ATTEMPTS
from synideal.ideals import ClassificationReport, applicable_bounds, classify_minimal
from synideal.injection import (
    CaseTag,
    InjectionContext,
    InjectionReport,
    InjectionViolation,
)
from synideal.semigroup import TransformationSemigroup, _close_images, equal_up_to_relabeling
from synideal.transform import NotationError, Transformation, cycle, identity, point
from synideal.witness import IdealClass, build, expected_semigroup


def random_transformation(rng: random.Random, n: int) -> Transformation:
    return Transformation(tuple(rng.randrange(n) for _ in range(n)))


def random_dfa(
    rng: random.Random, n: int, alphabet_size: int, letters: str = "abcdefgh"
) -> Dfa:
    delta = tuple(random_transformation(rng, n) for _ in range(alphabet_size))
    finals = frozenset(q for q in range(n) if rng.randrange(2))
    return Dfa(tuple(letters[:alphabet_size]), delta, rng.randrange(n), finals)


def containment_by_words(d: Dfa, p: int, q: int, max_len: int | None = None) -> bool:
    """K_p subset of K_q, decided by running every word up to the length
    bound (default n^2) from both states.  Exponential; keep (n, alphabet)
    small enough that the full tree is enumerable."""
    limit = d.n * d.n if max_len is None else max_len
    finals = d.finals
    images = [g.image for g in d.delta]
    stack = [(p, q, 0)]
    while stack:
        x, y, depth = stack.pop()
        if x in finals and y not in finals:
            return False
        if depth < limit:
            for img in images:
                stack.append((img[x], img[y], depth + 1))
    return True


def containment_by_word_search(d: Dfa, p: int, q: int) -> bool:
    """Word search in breadth-first order over the run-state pair, skipping
    words whose pair was already visited (their continuations repeat an
    earlier word's behaviour).  Covers all words up to length n^2."""
    finals = d.finals
    seen = {(p, q)}
    queue = [(p, q)]
    for x, y in queue:
        if x in finals and y not in finals:
            return False
        for g in d.delta:
            nxt = (g.image[x], g.image[y])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def same_language(d1: Dfa, d2: Dfa) -> bool:
    """Language equality via product reachability (alphabets must match)."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabets differ")
    pair = (d1.initial, d2.initial)
    seen = {pair}
    queue = [pair]
    for x, y in queue:
        if (x in d1.finals) != (y in d2.finals):
            return False
        for g1, g2 in zip(d1.delta, d2.delta):
            nxt = (g1.image[x], g2.image[y])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def is_minimal(d: Dfa) -> bool:
    """Every state reachable and no two equivalent, on the package's own
    kernels (``reachable_states``, ``dfa._partition``): a predicate for
    tests, checked itself against ``reference_partition`` in
    ``test_kernels.py``."""
    t = d.transitions
    if len(reachable_states(t)) != d.n:
        return False
    return len(set(_partition(t.maps, d.finals_mask))) == d.n


def orbit_reaches_fixed_point(t: Transformation, q0: int) -> bool:
    """Brute-force initial aperiodicity: iterate and watch for a plateau."""
    q = q0
    trail = [q]
    for _ in range(t.n + 1):
        q = t.image[q]
        trail.append(q)
    # after n steps the orbit is inside its cycle; period 1 iff it sticks
    return trail[-1] == trail[-2]


def naive_closure(gens: list[Transformation]) -> set[tuple[int, ...]]:
    """Reference closure: repeated pairwise composition until stable."""
    elems = {g.image for g in gens}
    while True:
        new = set()
        for a in elems:
            for b in elems:
                c = tuple(b[q] for q in a)
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems |= new


def symmetric_units_by_listing(gens: Sequence[Transformation]) -> bytes | None:
    """The states M moved by the permutations among gens, in increasing
    order, when those permutations generate all |M|! permutations of M;
    None otherwise, and when no state is moved.  The group is listed, one
    composition at a time, breadth first from the identity."""
    n = gens[0].n
    units = [g.image for g in gens if len(set(g.image)) == n]
    moved = bytes(q for q in range(n) if any(u[q] != q for u in units))
    if not moved:
        return None
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        new = []
        for a in frontier:
            for u in units:
                c = tuple(u[q] for q in a)
                if c not in group:
                    group.add(c)
                    new.append(c)
        frontier = new
    return moved if len(group) == factorial(len(moved)) else None


def orbit_by_injections(t: bytes, moved: bytes) -> list[bytes]:
    """The orbit of the packed map t under the symmetric group on the states
    ``moved``, one element per injection of t's values in ``moved`` (in
    order of first appearance) into ``moved``, each through a
    ``bytes.maketrans`` table of its own: nothing is shared or renumbered."""
    values = bytes(dict.fromkeys(q for q in t if q in moved))
    return [
        t.translate(bytes.maketrans(values, bytes(image)))
        for image in permutations(moved, len(values))
    ]


def invariant_by_renumbering(maps: Iterable[bytes], moved: bytes) -> bool:
    """Whether every packed map of ``maps``, its values renumbered by every
    permutation of the states ``moved`` (t to t*p), stays among ``maps``."""
    members = set(maps)
    tables = [bytes.maketrans(moved, bytes(p)) for p in permutations(moved)]
    return all(t.translate(table) in members for t in members for table in tables)


def minimal_generator_count_by_subsets(s: TransformationSemigroup, k_max: int) -> int | None:
    """Least k <= k_max such that some k-subset of the elements generates s,
    found by closing every subset of each size in turn.  Exponential: keep
    it to semigroups whose subsets up to the answer are enumerable."""
    size = s.size
    element_images = sorted(s.images)
    for k in range(1, min(k_max, size) + 1):
        for subset in combinations(element_images, k):
            if len(_close_images(subset)) == size:
                return k
    return None


def j_classes_by_ideals(
    s: TransformationSemigroup,
) -> list[tuple[frozenset[bytes], frozenset[bytes]]]:
    """The J-classes of s, each with its up-set (the elements f with the
    class inside S¹fS¹), in no particular order.  Each principal ideal
    S¹eS¹ is listed as every product a·e·b with a and b in s or absent,
    read from a table of all products of two elements, each composed one
    state at a time; e and f are J-related when their ideals are equal."""
    n = s.n
    elements = [tuple(e) for e in s.images]
    index = {e: i for i, e in enumerate(elements)}
    # times[i][j]: the index of the i-th element followed by the j-th.
    times = [[index[tuple(b[a[q]] for q in range(n))] for b in elements] for a in elements]
    ideals = []
    for i in range(len(elements)):
        left = {i} | {row[i] for row in times}
        ideals.append(frozenset(left | {j for x in left for j in times[x]}))
    classes: dict[frozenset[int], list[int]] = {}
    for i, ideal in enumerate(ideals):
        classes.setdefault(ideal, []).append(i)
    return [
        (
            frozenset(bytes(elements[i]) for i in members),
            frozenset(bytes(f) for f, ideal in zip(elements, ideals) if members[0] in ideal),
        )
        for members in classes.values()
    ]


def reference_generator_necessity(s: TransformationSemigroup) -> list[bool]:
    """For each generator: does dropping it strictly shrink the closure?
    Decided by closing the other generators fully and comparing sizes."""
    flags = []
    size = s.size
    packed = [g.packed() for g in s.generators]
    for i in range(len(packed)):
        rest = packed[:i] + packed[i + 1 :]
        if not rest:
            flags.append(size > 0)
            continue
        closed = _close_images(rest)
        assert closed is not None
        flags.append(len(closed) < size)
    return flags


def reference_expected_semigroup(klass: IdealClass, n: int) -> TransformationSemigroup:
    """The maximal transition semigroup of the class, by explicit loops that
    assemble each image from its parts (the subset maps state by state)."""
    images: set[bytes] = set()
    if klass is IdealClass.RIGHT:
        for body in product(range(n), repeat=n - 1):
            images.add(bytes(body) + bytes([n - 1]))
    elif klass is IdealClass.LEFT:
        for body in product(range(n), repeat=n - 1):
            images.add(bytes([0]) + bytes(body))
        for p in range(1, n):
            images.add(bytes([p] * n))
    else:
        for body in product(range(n), repeat=n - 2):
            images.add(bytes([0]) + bytes(body) + bytes([n - 1]))
        for p in range(1, n - 1):
            for size in range(n - 1):
                for subset in combinations(range(1, n - 1), size):
                    img = [p] * n
                    img[n - 1] = n - 1
                    for q in subset:
                        img[q] = n - 1
                    images.add(bytes(img))
        images.add(bytes([n - 1] * n))
    return TransformationSemigroup(
        n=n, images=frozenset(images), generators=tuple(build(klass, n).delta)
    )


def reference_conjugated_images(images: frozenset[bytes], perm: Sequence[int]) -> frozenset[bytes]:
    """Conjugate each packed map by perm state by state:
    ``new[perm[q]] = perm[image[q]]``."""
    out = set()
    for e in images:
        img = bytearray(len(e))
        for q, r in enumerate(e):
            img[perm[q]] = perm[r]
        out.add(bytes(img))
    return frozenset(out)


def reference_relabels_to_expected(d: Dfa, klass: IdealClass) -> bool:
    """Whether the transition semigroup of d, closed, relabels onto the
    maximal one by a permutation search that fixes the initial state 0 and,
    for classes with a final sink, the sink (relabeled n-1 first).  Limited
    to n <= RELABEL_MAX_N, like ``equal_up_to_relabeling``."""
    fixed = {0}
    if klass in (IdealClass.RIGHT, IdealClass.TWO_SIDED):
        # Swap the labels of the one final state and n-1; a swap is its own
        # inverse, so state q's new image is swap[image[swap[q]]].
        (f,) = d.finals
        top = d.n - 1
        swap = list(range(d.n))
        swap[f], swap[top] = top, f
        delta = tuple(Transformation(tuple(swap[g.image[r]] for r in swap)) for g in d.delta)
        d = Dfa(d.alphabet, delta, swap[d.initial], frozenset({top}))
        fixed.add(top)
    target = expected_semigroup(klass, d.n)
    return equal_up_to_relabeling(transition_semigroup(d), target, fixed) is not None


def sigma_star_prefix_dfa(d: Dfa) -> Dfa:
    """DFA for Sigma*.L(d), built by the suffix-run subset construction.
    Used to check the letter-based left-ideal test against the definition."""
    start = frozenset({d.initial})
    number = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in d.alphabet]
    for subset in order:
        for ai, g in enumerate(d.delta):
            nxt = frozenset(g.image[q] for q in subset) | {d.initial}
            if nxt not in number:
                number[nxt] = len(number)
                order.append(nxt)
            rows[ai].append(number[nxt])
    return Dfa(
        d.alphabet,
        tuple(Transformation(tuple(row)) for row in rows),
        0,
        frozenset(i for i, subset in enumerate(order) if subset & d.finals),
    )


# ---------------------------------------------------------------------------
# shared example automata


def sigma_ladder_dfas() -> dict[int, Dfa]:
    """Three minimal 3-state DFAs over {a,b,c} with syntactic complexities
    3, 9, and 27: a permutation group, a mixed monoid, and the full monoid."""
    return {
        3: Dfa(
            ("a", "b", "c"),
            (Transformation((0, 1, 2)), Transformation((1, 2, 0)), Transformation((2, 0, 1))),
            0,
            frozenset({2}),
        ),
        9: Dfa(
            ("a", "b", "c"),
            (Transformation((1, 0, 2)), Transformation((0, 0, 2)), Transformation((0, 2, 2))),
            0,
            frozenset({2}),
        ),
        27: Dfa(
            ("a", "b", "c"),
            (Transformation((1, 2, 0)), Transformation((1, 0, 2)), Transformation((0, 1, 0))),
            0,
            frozenset({2}),
        ),
    }


def trailing_runs_dfa(n: int) -> Dfa:
    """Minimal DFA of Sigma* a^{n-1} over {a,b}: states count trailing a's."""
    up = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    reset = Transformation((0,) * n)
    return Dfa(("a", "b"), (up, reset), 0, frozenset({n - 1}))


def contains_run_dfa(n: int) -> Dfa:
    """Minimal DFA of Sigma* a^{n-1} Sigma* over {a,b}: a two-sided ideal."""
    up = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    reset = Transformation(tuple(0 if q < n - 1 else n - 1 for q in range(n)))
    return Dfa(("a", "b"), (up, reset), 0, frozenset({n - 1}))


def unary_threshold_dfa(n: int) -> Dfa:
    """Minimal DFA of a^{n-1} a* over {a}: sigma is n - 1."""
    up = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    return Dfa(("a",), (up,), 0, frozenset({n - 1}))


def not_left_ideal_dfa(final: int = 1) -> Dfa:
    """Quotient DFA of b + Sigma*a for final=1 (not a left ideal); with
    final=2 it accepts Sigma Sigma* b, which is one.  Same semigroup."""
    return Dfa(
        ("a", "b"),
        (Transformation((1, 1, 1)), Transformation((1, 2, 2))),
        0,
        frozenset({final}),
    )


# ---------------------------------------------------------------------------
# reference implementations of the candidate kernels
#
# The dict-based Moore refinement, the backward bad-pair propagation and the
# classification of a minimal DFA as the package computed them before the
# packed kernels (``dfa._partition``, ``dfa.preorder``,
# ``ideals.classify_minimal``) replaced them; kept verbatim, under new names,
# as the references those kernels must agree with.


def reference_partition(d: Dfa, states: Sequence[int]) -> dict[int, int]:
    """Moore refinement over the given states; returns state -> block id."""
    block = {q: (1 if q in d.finals else 0) for q in states}
    blocks = 2 if any(block.values()) and not all(block[q] for q in states) else 1
    while True:
        signatures: dict[tuple, int] = {}
        new_block = {}
        for q in states:
            sig = (block[q],) + tuple(block[g.image[q]] for g in d.delta)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if len(signatures) == blocks:
            return new_block
        block, blocks = new_block, len(signatures)


def reference_preorder(d: Dfa) -> StatePreorder:
    """The full containment relation, by backward propagation of bad pairs.

    A pair (p, q) is bad (p not <= q) iff p is final and q is not, or some
    letter leads to a bad pair; the worklist closes the bad set, and leq is
    its complement.  Agrees pointwise with ``containment_by_word_search``.
    """
    n = d.n
    finals = d.finals
    bad = [[False] * n for _ in range(n)]
    stack = []
    for x in range(n):
        for y in range(n):
            if x in finals and y not in finals:
                bad[x][y] = True
                stack.append((x, y))
    pre: list[list[list[int]]] = []
    for g in d.delta:
        rows: list[list[int]] = [[] for _ in range(n)]
        for p in range(n):
            rows[g.image[p]].append(p)
        pre.append(rows)
    while stack:
        x, y = stack.pop()
        for rows in pre:
            for p in rows[x]:
                row = bad[p]
                for q in rows[y]:
                    if not row[q]:
                        row[q] = True
                        stack.append((p, q))
    leq = tuple(tuple(not bad[p][q] for q in range(n)) for p in range(n))
    return StatePreorder(n=n, leq=leq)


_UNSET = object()


def reference_classify_minimal(
    m: Dfa,
    sigma: int,
    po: StatePreorder | None = None,
    ur: "int | None" = _UNSET,  # type: ignore[assignment]
) -> ClassificationReport:
    """Classification of an already-minimal DFA; ``po`` and ``ur`` may be
    passed in when the caller has them precomputed (enumeration hot path)."""
    n = m.n
    if po is None:
        po = reference_preorder(m)
    leq = po.leq
    non_empty = bool(m.finals)

    right = non_empty and _final_sink(m) is not None
    left = non_empty and all(leq[m.initial][g.image[m.initial]] for g in m.delta)
    all_sided = non_empty and all(
        leq[q][g.image[q]] for q in range(n) for g in m.delta
    )
    two_sided = right and left

    alive = _coreachable(m, m.finals)
    universal = _coreachable(m, frozenset(range(n)) - m.finals)
    dead = [not alive[q] for q in range(n)]
    # universal[q] currently means "can reach a non-final state"; invert.
    universal = [not universal[q] for q in range(n)]

    has_empty = any(dead)
    has_sigma_star = any(universal)
    has_eps = any(
        q in m.finals and all(dead[g.image[q]] for g in m.delta) for q in range(n)
    )
    has_sigma_plus = any(
        q not in m.finals and all(universal[g.image[q]] for g in m.delta)
        for q in range(n)
    )

    ur_depth = reference_ur_depth(m) if ur is _UNSET else ur

    flags = {
        "empty": has_empty,
        "sigma_star": has_sigma_star,
        "eps": has_eps,
        "sigma_plus": has_sigma_plus,
    }
    bounds = applicable_bounds(n, flags, ur_depth)

    prefix_closed = _complement_prefix_closed(m)
    suffix_closed = all(leq[m.initial][q] for q in range(n))
    return ClassificationReport(
        n=n,
        is_right_ideal=right,
        is_left_ideal=left,
        is_two_sided_ideal=two_sided,
        is_all_sided_ideal=all_sided,
        complement_prefix_closed=prefix_closed,
        complement_suffix_closed=suffix_closed,
        complement_factor_closed=prefix_closed and suffix_closed,
        has_empty=has_empty,
        has_sigma_star=has_sigma_star,
        has_eps=has_eps,
        has_sigma_plus=has_sigma_plus,
        ur_depth=ur_depth,
        sigma=sigma,
        applicable_bounds=bounds,
    )


def _final_sink(m: Dfa) -> int | None:
    """The unique final state if it is an all-accepting sink, else None."""
    if len(m.finals) != 1:
        return None
    (f,) = m.finals
    if all(g.image[f] == f for g in m.delta):
        return f
    return None


def _coreachable(m: Dfa, targets: frozenset[int]) -> list[bool]:
    """States from which some state in ``targets`` is reachable."""
    n = m.n
    flag = [q in targets for q in range(n)]
    stack = [q for q in range(n) if flag[q]]
    pre: list[list[int]] = [[] for _ in range(n)]
    for g in m.delta:
        for p in range(n):
            pre[g.image[p]].append(p)
    while stack:
        q = stack.pop()
        for p in pre[q]:
            if not flag[p]:
                flag[p] = True
                stack.append(p)
    return flag


def _complement_prefix_closed(m: Dfa) -> bool:
    """Whether the complement language is prefix-closed.

    In the complement automaton, prefix-closed means no accepting state is
    reachable from a reachable non-accepting one; equivalently every state of
    ``m`` that can reach a non-final state is itself non-final.
    """
    can_reach_nonfinal = _coreachable(m, frozenset(range(m.n)) - m.finals)
    return all(q not in m.finals for q in range(m.n) if can_reach_nonfinal[q])


def reference_ur_depth(m: Dfa) -> int | None:
    """Length of the longest word whose quotient is uniquely reachable.

    State q is uniquely reachable by wa iff its only incoming transition is
    (p, a) with p uniquely reachable by w; the initial state is uniquely
    reachable by the empty word iff nothing (including itself) maps into it.
    Returns None when the language itself is not uniquely reachable.
    """
    n = m.n
    incoming: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    for ai, g in enumerate(m.delta):
        for p in range(n):
            incoming[g.image[p]].add((p, ai))
    if incoming[m.initial]:
        return None
    depth = {m.initial: 0}
    queue = [m.initial]
    for p in queue:
        for ai, g in enumerate(m.delta):
            q = g.image[p]
            if q in depth:
                continue
            if incoming[q] == {(p, ai)}:
                depth[q] = depth[p] + 1
                queue.append(q)
    return max(depth.values())


def reference_ur_chain(m: Dfa) -> list[int] | None:
    """A longest chain q_0, q_1, ..., q_d of uniquely reachable states: q_0
    is the initial state and nothing maps into it, and each q_{i+1} has one
    incoming transition, from q_i.  Found by walking back from every state
    along its unique incoming transition until the walk reaches the initial
    state; None when something maps into the initial state."""
    incoming: list[list[int]] = [[] for _ in range(m.n)]
    for g in m.delta:
        for p in range(m.n):
            incoming[g.image[p]].append(p)
    if incoming[m.initial]:
        return None
    best = [m.initial]
    for q in range(m.n):
        walk = [q]
        while len(incoming[walk[-1]]) == 1 and incoming[walk[-1]][0] not in walk:
            walk.append(incoming[walk[-1]][0])
        if walk[-1] == m.initial and len(walk) > len(best):
            best = walk[::-1]
    return best


# ---------------------------------------------------------------------------
# transformation helpers used only by tests
#
# Orbit shape, initial aperiodicity and the full-monoid generators, as
# ``synideal.transform`` defined them before the injection case analysis
# moved onto packed maps and left them without a caller in the package.


def is_initially_aperiodic(t: Transformation, q0: int) -> bool:
    """Whether the orbit q0, q0 t, q0 t^2, ... has period 1.

    The orbit is eventually periodic; the period is j - i for the first
    repetition q0 t^j = q0 t^i with i < j.  Period 1 means the orbit runs into
    a fixed point of t.
    """
    if not (isinstance(q0, int) and 0 <= q0 < t.n):
        raise NotationError(f"state {q0!r} out of range [0, {t.n})")
    seen: dict[int, int] = {}
    q = q0
    step = 0
    while q not in seen:
        seen[q] = step
        q = t.image[q]
        step += 1
    return step - seen[q] == 1


@dataclass(frozen=True, slots=True)
class Shape:
    """Orbit structure of a transformation."""

    is_identity: bool
    is_constant: bool
    fixed_points: tuple[int, ...]
    has_cycle: bool
    cycles: tuple[tuple[int, ...], ...]


def classify_shape(t: Transformation) -> Shape:
    """Fixed points and cycles (length >= 2) of the functional graph of t."""
    n = t.n
    img = t.image
    fixed = tuple(q for q in range(n) if img[q] == q)
    cycles: list[tuple[int, ...]] = []
    on_cycle: set[int] = set()
    for q in range(n):
        # After n steps every orbit has entered its cycle.
        x = q
        for _ in range(n):
            x = img[x]
        if x in on_cycle or img[x] == x:
            continue
        cyc = [x]
        y = img[x]
        while y != x:
            cyc.append(y)
            y = img[y]
        on_cycle.update(cyc)
        start = cyc.index(min(cyc))
        cycles.append(tuple(cyc[start:] + cyc[:start]))
    cycles.sort()
    return Shape(
        is_identity=len(fixed) == n,
        is_constant=len(set(img)) == 1,
        fixed_points=fixed,
        has_cycle=bool(cycles),
        cycles=tuple(cycles),
    )


def full_monoid_generators(n: int) -> list[Transformation]:
    """Generators of all n^n transformations: an n-cycle, a transposition,
    and the rank n-1 collapse (n-1 -> 0)."""
    if n == 1:
        return [identity(1)]
    if n == 2:
        return [cycle(2, (0, 1)), point(2, 1, 0)]
    return [cycle(n, tuple(range(n))), cycle(n, (0, 1)), point(n, n - 1, 0)]


# ---------------------------------------------------------------------------
# reference implementation of the injection case analysis
#
# The two-pass case analysis on ``Transformation`` objects, as
# ``synideal.injection`` computed it before ``_case_image`` classified and
# built f(t) in one pass on packed maps; kept verbatim, under new names, as
# the reference ``verify_injection`` must agree with.  It still re-checks the
# shape of every case-2 image (``case2_shape``), which ``_case_image`` no
# longer does because that check cannot fire, so the differential tests also
# show that dropping it changes no verdict.


def _less(ctx: InjectionContext, p: int, q: int) -> bool:
    return ctx.po.strictly_less(p, q)


def _reference_orbit_chain(ctx: InjectionContext, t: Transformation, p: int) -> list[int]:
    """The orbit p, pt, ..., pt^k ending at a fixed point, asserting the
    promised strict climb in the preorder at every step."""
    chain = [p]
    q = p
    for _ in range(ctx.n + 1):
        r = t.image[q]
        if r == q:
            return chain
        if not _less(ctx, q, r):
            raise InjectionViolation(
                "chain_not_ascending", t, f"{q} -> {r} does not climb"
            )
        chain.append(r)
        q = r
    raise InjectionViolation("chain_not_terminating", t, "orbit found no fixed point")


def reference_classify_case(ctx: InjectionContext, t: Transformation) -> CaseTag:
    """The first matching case for t (a member of ctx.T)."""
    if t.packed() not in ctx.T.images:
        raise ValueError(f"{t} is not in the transition semigroup")
    if t.packed() in ctx.S.images:
        return CaseTag(ctx.klass, "1")
    n = ctx.n
    p = t.image[0]
    if p == 0:
        # Maps fixing 0 always lie in the maximal semigroup.
        raise InjectionViolation("fixes_initial_outside_witness", t)
    if t.image[p] != p:
        if ctx.klass is IdealClass.LEFT:
            return CaseTag(ctx.klass, "2")
        chain = _reference_orbit_chain(ctx, t, p)
        top, k = chain[-1], len(chain) - 1
        if top != n - 1:
            return CaseTag(ctx.klass, "2a")
        if k >= 2:
            return CaseTag(ctx.klass, "2b")
        return CaseTag(ctx.klass, "2c")
    shape = classify_shape(t)
    if shape.has_cycle:
        return CaseTag(ctx.klass, "3a")
    excluded = {p} if ctx.klass is IdealClass.LEFT else {p, n - 1}
    if any(q not in excluded for q in shape.fixed_points):
        return CaseTag(ctx.klass, "3b")
    if any(_less(ctx, p, q) and t.image[q] == p for q in range(n)):
        return CaseTag(ctx.klass, "3c")
    if ctx.klass is IdealClass.TWO_SIDED and any(
        _less(ctx, p, q) and _less(ctx, q, n - 1) and t.image[q] == n - 1
        for q in range(n)
    ):
        return CaseTag(ctx.klass, "3d")
    raise InjectionViolation("coverage", t, "no case matches")


def reference_apply_f(ctx: InjectionContext, t: Transformation) -> tuple[Transformation, CaseTag]:
    """The image f(t), built per the matched case, checked against S."""
    tag = reference_classify_case(ctx, t)
    n = ctx.n
    img = list(t.image)
    p = t.image[0]

    if tag.label == "1":
        s = t
    elif tag.label in ("2", "2a"):
        chain = _reference_orbit_chain(ctx, t, p)
        img[0] = 0
        img[chain[-1]] = p
        s = Transformation(tuple(img))
        _reference_check_case2_cycle(ctx, t, s, chain)
    elif tag.label == "2b":
        chain = _reference_orbit_chain(ctx, t, p)
        img[0] = 0
        for i in range(1, len(chain) - 1):
            img[chain[i]] = chain[i - 1]
        img[p] = n - 1
        s = Transformation(tuple(img))
    elif tag.label == "2c":
        r = _reference_pick_case2c_state(ctx, t, p)
        rt = t.image[r]
        img[0] = 0
        img[p] = rt
        img[rt] = p
        img[r] = 0
        s = Transformation(tuple(img))
    elif tag.label == "3a":
        shape = classify_shape(t)
        r = min(min(c) for c in shape.cycles)
        img[0] = 0
        img[p] = r
        s = Transformation(tuple(img))
    elif tag.label == "3b":
        excluded = {p} if ctx.klass is IdealClass.LEFT else {p, n - 1}
        img[0] = 0
        for q in classify_shape(t).fixed_points:
            if q not in excluded:
                img[q] = 0
        s = Transformation(tuple(img))
    elif tag.label == "3c":
        r = min(q for q in range(n) if _less(ctx, p, q) and t.image[q] == p)
        img[0] = 0
        img[p] = r
        for q in range(n):
            if _less(ctx, p, q) and t.image[q] == p:
                img[q] = 0
        s = Transformation(tuple(img))
    else:  # 3d
        img[0] = 0
        for q in range(n):
            if t.image[q] == n - 1:
                img[q] = q
        img[p] = n - 1
        s = Transformation(tuple(img))

    if s.packed() not in ctx.S.images:
        raise InjectionViolation("image_outside_witness", t, f"f(t)={s}")
    return s, tag


def _reference_pick_case2c_state(ctx: InjectionContext, t: Transformation, p: int) -> int:
    """Case 2c needs the smallest r outside {0, p, n-1} that is not above p
    and whose image lies strictly between p and n-1."""
    n = ctx.n
    for r in range(n):
        if r in (0, p, n - 1) or ctx.po.leq[p][r]:
            continue
        rt = t.image[r]
        if _less(ctx, p, rt) and rt != n - 1:
            return r
    raise InjectionViolation("no_case2c_state", t)


def _reference_check_case2_cycle(
    ctx: InjectionContext, t: Transformation, s: Transformation, chain: list[int]
) -> None:
    """The case-2 image must contain the chain as a cycle, strictly ordered
    by containment with p as its least element (the distinctness arguments
    lean on exactly this shape)."""
    p = chain[0]
    orbit = [p]
    q = s.image[p]
    while q != p:
        orbit.append(q)
        if len(orbit) > ctx.n:
            raise InjectionViolation("case2_shape", t, "image has no cycle through p")
        q = s.image[q]
    if orbit != chain:
        raise InjectionViolation("case2_shape", t, f"cycle {orbit} != chain {chain}")
    for a, b in zip(chain, chain[1:]):
        if not _less(ctx, a, b):
            raise InjectionViolation("case2_shape", t, "cycle not strictly ordered")


def reference_verify_injection(ctx: InjectionContext) -> InjectionReport:
    """Run f over all of T: totality, image containment, injectivity."""
    report = InjectionReport(
        klass=ctx.klass, n=ctx.n, size_T=ctx.T.size, size_S=ctx.S.size
    )
    seen: dict[bytes, Transformation] = {}
    for t in ctx.T.elements:
        try:
            s, tag = reference_apply_f(ctx, t)
        except InjectionViolation as exc:
            report.violations.append(
                {"kind": exc.kind, "t": str(exc.t), "detail": exc.detail}
            )
            continue
        report.case_counts[tag.label] += 1
        if tag.label == "1" and s != t:
            report.violations.append(
                {"kind": "not_fixed_on_witness", "t": str(t), "detail": str(s)}
            )
        key = s.packed()
        if key in seen:
            report.collisions.append((str(s), str(seen[key]), str(t)))
        else:
            seen[key] = t
    return report


# ---------------------------------------------------------------------------
# reference implementation of the ideal sampler
#
# The closures and the rejection-sampling loop on ``Dfa`` objects, as
# ``synideal.harness`` computed them before each draw stayed packed from the
# random letters to the accept test; kept verbatim, under new names, as the
# reference ``sample_ideal_dfa`` and its packed closures must agree with.
# The former left closure was the same subset construction as
# ``sigma_star_prefix_dfa``.


def reference_right_closure(d: Dfa) -> Dfa:
    """DFA of L.Sigma*: final states become absorbing."""
    delta = []
    for g in d.delta:
        delta.append(
            Transformation(
                tuple(q if q in d.finals else g.image[q] for q in range(d.n))
            )
        )
    return Dfa(d.alphabet, tuple(delta), d.initial, d.finals)


reference_left_closure = sigma_star_prefix_dfa

REFERENCE_CLOSURES = {
    IdealClass.RIGHT: reference_right_closure,
    IdealClass.LEFT: reference_left_closure,
    IdealClass.TWO_SIDED: lambda d: reference_left_closure(reference_right_closure(d)),
}


def reference_sample_ideal_dfa(klass: IdealClass, n: int, alphabet_size: int, seed: int) -> Dfa | None:
    rng = random.Random(seed)
    letters = tuple("abcdefghijklmnopqrstuvwxyz"[:alphabet_size])
    close = REFERENCE_CLOSURES[klass]
    for attempt in range(SAMPLE_ATTEMPTS):
        m = n + (attempt % 3) - 1 if n > 2 else n
        if m < 1:
            m = n
        delta = tuple(
            Transformation(tuple(rng.randrange(m) for _ in range(m)))
            for _ in letters
        )
        final_count = 1 if m == 1 else 1 + rng.randrange(2)
        finals = frozenset(rng.sample(range(m), final_count))
        base = Dfa(letters, delta, 0, finals)
        candidate = minimize(close(base))
        if candidate.n == n and candidate.finals:
            return candidate
    return None


# The sampler's draws as ``synideal.harness._draws`` made them with one
# ``randrange`` call per value and ``random.sample`` for the final states,
# kept verbatim but for the closure into a class, which the sampler now runs
# only on a draw its state bound keeps: the ``getrandbits`` stream it draws
# now must give the same values and leave the generator in the same state.


def reference_draws(n: int, alphabet_size: int, seed: int):
    rng = random.Random(seed)
    randrange = rng.randrange
    for attempt in range(SAMPLE_ATTEMPTS):
        m = n + (attempt % 3) - 1 if n > 2 else n
        if m < 1:
            m = n
        if m > 256:
            raise ValueError("the packed form holds at most 256 states")
        maps = tuple(bytes(map(randrange, repeat(m, m))) for _ in range(alphabet_size))
        final_count = 1 if m == 1 else 1 + randrange(2)
        finals = 0
        for q in rng.sample(range(m), final_count):
            finals |= 1 << q
        yield maps, finals


# ``synideal.harness._left_closure`` before it numbered every subset that meets
# final states no letter leaves as one accept state, kept verbatim: where a
# letter leaves the final states the two must agree byte for byte.


def reference_packed_left_closure(
    maps: tuple[bytes, ...], finals: int
) -> tuple[tuple[bytes, ...], int]:
    n = len(maps[0])
    bits = [[1 << r for r in m] for m in maps]
    number = {1: 0}
    order = [1]
    rows: list[list[int]] = [[] for _ in maps]
    appends = [row.append for row in rows]
    for subset in order:
        states = [q for q in range(n) if subset >> q & 1]
        for append, bit in zip(appends, bits):
            nxt = 1
            for q in states:
                nxt |= bit[q]
            i = number.get(nxt)
            if i is None:
                i = number[nxt] = len(order)
                order.append(nxt)
            append(i)
    if len(order) > 256:
        raise ValueError("the packed form holds at most 256 states")
    return (
        tuple(map(bytes, rows)),
        sum(1 << i for i, subset in enumerate(order) if subset & finals),
    )


# ``synideal.harness._run_exhaustive`` before it swept its letter sets by
# orbits: every labelled letter set in ``combinations`` order, each with its
# own letter facts, reachability probe and closure, which gives sigma and the
# semigroup of every injection context of the set.  Its report, violations in
# order included, must equal the orbit sweep's byte for byte.


def reference_sweep(spec: harness.CampaignSpec) -> harness.CampaignReport:
    """An exhaustive campaign by the labelled loop, with the checks that
    ``harness._Checks`` (looked up on each call) makes."""
    report = harness.CampaignReport(spec=spec)
    checks = harness._Checks(spec, report)
    n = spec.n
    all_images = [bytes(img) for img in product(range(n), repeat=n)]
    inert: set[int] = set()
    identity = bytes(range(n))
    for size in range(1, spec.alphabet_size + 1):
        letters = tuple("abcdefghijklmnopqrstuvwxyz"[:size])
        for codes in combinations(range(len(all_images)), size):
            gen_images = tuple(all_images[c] for c in codes)
            report.examined += 2**n - 1
            t = Transitions(gen_images)
            if len(reachable_states(t)) != n:
                continue
            T = TransformationSemigroup(
                n, _close_images(gen_images), tuple(Transformation(tuple(m)) for m in gen_images)
            )
            sigma = T.size
            minimal = [f for f in range(1, 2**n) if _partition(gen_images, f) == identity]
            report.minimal += len(minimal)
            for finals in minimal:
                rep = classify_minimal(t, finals, sigma, checks.memo)
                if id(rep) in inert:
                    continue
                if checks(rep, partial(from_maps, letters, gen_images, finals), lambda: T):
                    inert.add(id(rep))
    return report
